import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import chdtrc, ndtr, ndtri

from subsetphase.copysim import CopyEnsemble, sample_initial_copies
from subsetphase.drivers import ensemble_subsets, run_bit_battery, run_sign_trials
from subsetphase.generators import sign_thermalizer
from subsetphase.rng import derive_seed, stream
from subsetphase.stats import (
    TestReport,
    expected_uniform_tv,
    marginal_bias_test,
    pairwise_xor_test,
    poisson_tails,
    sign_vector_test,
    subset_collision_test,
    subset_uniformity_test,
)

from conftest import apply_gate, frozen_initial_ensembles, oracle_bit_ensembles, oracle_sign_vectors


def shifted_copies(n, t, trials, seed):
    """Adversarial ensembles: all copies share one uniform flip vector,
    so marginals look fair but pairwise XORs are frozen."""
    base = list(range(t))
    out = []
    for i in range(trials):
        rng = stream(seed, "shared-flip", i)
        shift = int(rng.integers(0, 1 << n))
        out.append(CopyEnsemble.from_ints(n, [b ^ shift for b in base]))
    return out


class TestMarginalBias:
    def test_oracle_passes(self):
        ens = oracle_bit_ensembles(16, 4, 1500, master_seed=41)
        assert marginal_bias_test(ens).passed

    def test_frozen_initial_fails(self):
        ens = frozen_initial_ensembles(16, 6, 4, 1500, master_seed=42)
        report = marginal_bias_test(ens)
        assert not report.passed
        # sites beyond k are stuck at zero
        assert report.details["flagged_count"] >= 4 * (16 - 6)

    def test_constant_bit_flagged(self):
        ens = []
        for i in range(1200):
            rng = stream(43, "const", i)
            vals = [int(v) | 1 for v in rng.integers(0, 1 << 8, size=2)]
            if vals[0] == vals[1]:
                vals[1] ^= 2
            ens.append(CopyEnsemble.from_ints(8, vals))
        report = marginal_bias_test(ens)
        assert not report.passed

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            marginal_bias_test(oracle_bit_ensembles(8, 2, 10, master_seed=1))


class TestPairwiseXor:
    def test_oracle_passes(self):
        ens = oracle_bit_ensembles(16, 4, 1500, master_seed=44)
        assert pairwise_xor_test(ens).passed

    def test_shared_flip_fails(self):
        report = pairwise_xor_test(shifted_copies(12, 3, 1500, seed=45))
        assert not report.passed
        assert report.p_value == pytest.approx(0.0, abs=1e-30)

    def test_near_identical_copies_fail(self):
        # copies differing only in the lowest bits: higher sites XOR to 0
        ens = []
        for i in range(1200):
            rng = stream(46, "nearid", i)
            base = int(rng.integers(0, 1 << 10)) & ~0b11
            ens.append(CopyEnsemble.from_ints(10, [base, base ^ 1, base ^ 2]))
        assert not pairwise_xor_test(ens).passed

    def test_statistic_equals_pair_loop(self):
        # the co-occurrence fold must give the per-pair XOR counts exactly;
        # 1100 trials end in a partial chunk
        ens = shifted_copies(60, 5, 550, seed=49) + oracle_bit_ensembles(60, 5, 550, master_seed=49)
        counts = np.zeros((10, 60), dtype=np.int64)
        for e in ens:
            bits = e.bits()
            for idx, (p, q) in enumerate((p, q) for p in range(5) for q in range(p + 1, 5)):
                counts[idx] += bits[p] ^ bits[q]
        chi2 = float((((counts - 1100 / 2.0) ** 2) / (1100 / 4.0)).sum())
        report = pairwise_xor_test(ens)
        assert report.statistic == chi2
        assert report.details == {"cells": 600, "dof": 600}

    def test_requires_two_copies(self):
        ens = oracle_bit_ensembles(8, 1, 1200, master_seed=47)
        with pytest.raises(ValueError):
            pairwise_xor_test(ens)


@pytest.mark.parametrize("fold", [marginal_bias_test, pairwise_xor_test], ids=["marginal", "xor"])
@pytest.mark.parametrize("t,n", [(3, 16), (4, 17)], ids=["t", "n"])
def test_bit_folds_refuse_mixed_shapes(fold, t, n):
    # one ensemble of another t or n, past the first chunk of trials; the
    # odd n keeps one word per copy, so only the shape check can see it
    ens = oracle_bit_ensembles(16, 4, 1200, master_seed=50)
    ens[700] = oracle_bit_ensembles(n, t, 1, master_seed=51)[0]
    with pytest.raises(ValueError, match=r"all ensembles must share \(t, n\)"):
        fold(ens)


class TestSignVector:
    def test_oracle_passes(self):
        vectors = oracle_sign_vectors(6, 12_000, master_seed=48)
        assert sign_vector_test(vectors, 6).passed

    def test_all_positive_fails(self):
        vectors = [np.ones(6, dtype=np.int8) for _ in range(12_000)]
        report = sign_vector_test(vectors, 6)
        assert not report.passed

    def test_subsamples_wide_vectors(self):
        vectors = oracle_sign_vectors(16, 12_000, master_seed=49)
        assert sign_vector_test(vectors, 4).passed

    def test_trial_floor(self):
        with pytest.raises(ValueError):
            sign_vector_test(oracle_sign_vectors(4, 100, master_seed=1), 4)

    def test_statistic_matches_bit_loop_reference(self):
        # skewed signs on wide vectors: entry i of each vector's first t
        # sets bit i of its bin
        rng = stream(52, "skewed-signs")
        vectors = list(np.where(rng.random((10_000, 9)) < 0.4, -1, 1).astype(np.int8))
        t = 5
        counts = np.zeros(1 << t)
        for v in vectors:
            counts[sum(1 << i for i in range(t) if v[i] < 0)] += 1
        expected = len(vectors) / (1 << t)
        report = sign_vector_test(iter(vectors), t)
        assert report.statistic == pytest.approx(((counts - expected) ** 2 / expected).sum(), rel=1e-12)
        assert not report.passed

    def test_rejects_short_vector(self):
        vectors = oracle_sign_vectors(6, 10_000, master_seed=53)
        vectors[7] = vectors[7][:3]
        with pytest.raises(ValueError, match="shorter than t=6"):
            sign_vector_test(vectors, 6)

    def test_t_cap(self):
        with pytest.raises(ValueError):
            sign_vector_test(oracle_sign_vectors(20, 10_000, master_seed=1), 17)

    def test_sparse_bins_use_multinomial_tail(self):
        # t=12 with 1e4 trials gives ~2.4 expected per bin, under the
        # chi-square validity floor; the seeded multinomial tail takes over
        vectors = oracle_sign_vectors(12, 10_000, master_seed=50)
        report = sign_vector_test(vectors, 12, seed=50)
        assert report.passed


class TestSubsetUniformity:
    def test_oracle_noise_level(self):
        ens = oracle_bit_ensembles(5, 2, 4000, master_seed=51)
        report = subset_uniformity_test(ensemble_subsets(ens), 5, 2, seed=51)
        assert report.passed
        assert report.tv < 2 * expected_uniform_tv(496, 4000) + 0.02

    def test_frozen_initial_near_one(self):
        # support confined to pairs from a 2^k slice of the full space
        ens = frozen_initial_ensembles(6, 3, 2, 2000, master_seed=52)
        report = subset_uniformity_test(ensemble_subsets(ens), 6, 2, seed=52)
        assert not report.passed
        assert report.tv > 0.9

    def test_thermalized_passes(self):
        # a single copy misses every one of R conditions w.p. (3/4)^R, so
        # R = 24 keeps the frozen-tail residual ~1e-3, below noise
        battery = run_bit_battery("gate-opt", 5, 3, 1, 2, 24.0, 3000, master_seed=53)
        report = subset_uniformity_test(ensemble_subsets(battery.ensembles), 5, 1, seed=53)
        assert report.passed

    def test_domain_cap(self):
        with pytest.raises(ValueError):
            subset_uniformity_test([(1, 2, 3)], 12, 3)


class TestSubsetCollision:
    def test_uniform_sampler_passes(self):
        ens = oracle_bit_ensembles(10, 2, 3000, master_seed=54)
        assert subset_collision_test(ensemble_subsets(ens), 10, 2).passed

    def test_degenerate_sampler_fails(self):
        samples = [(1, 2)] * 500
        assert not subset_collision_test(samples, 10, 2).passed

    @pytest.mark.parametrize("n_trials,passed", [(1800, True), (3000, False)])
    def test_no_collisions(self, n_trials, passed):
        # distinct pairs: 0 collisions where binom(N, 2)/domain (3.1 at
        # 1800 samples, 8.6 at 3000) are expected; only the lower tail counts
        samples = [(a, b) for a in range(1024) for b in range(a + 1, 1024)][:n_trials]
        rep = subset_collision_test(samples, 10, 2)
        mean = rep.details["expected_collisions"]
        assert rep.statistic == 0.0
        assert rep.p_value == min(1.0, 2.0 * min(sps.poisson.cdf(0, mean), sps.poisson.sf(-1, mean)))
        assert rep.passed is passed


class TestTailKernels:
    """``stats`` calls the ``scipy.special`` kernels that ``scipy.stats``
    wraps; each must return the very float the ``scipy.stats`` call it
    replaces returns, over the argument ranges the tests reach."""

    SIZE = 4000

    def test_normal_quantile(self):
        # Bonferroni quantiles 1 - alpha/(2 cells), alpha/(2 cells) down to 1e-12
        tail = 10.0 ** stream(61, "ndtri").uniform(-12.0, np.log10(0.5), self.SIZE)
        q = 1.0 - tail
        assert np.array_equal(ndtri(q), sps.norm.ppf(q))

    def test_normal_upper_tail(self):
        z = np.concatenate([stream(62, "ndtr").uniform(0.0, 40.0, self.SIZE), [0.0, 4.0, 40.0]])
        assert np.array_equal(ndtr(-z), sps.norm.sf(z))

    def test_chi2_upper_tail(self):
        rng = stream(63, "chdtrc")
        df = rng.integers(1, 5001, self.SIZE)
        # statistics from well below to well above the mean df
        x = df * rng.uniform(0.0, 3.0, self.SIZE)
        assert np.array_equal(chdtrc(df, x), sps.chi2.sf(x, df))
        assert np.array_equal(chdtrc(df, 0.0), sps.chi2.sf(0.0, df))

    def test_poisson_tails(self):
        rng = stream(64, "pdtr")
        means = 10.0 ** rng.uniform(-8.0, 2.0, self.SIZE)
        counts = rng.integers(0, 201, self.SIZE)
        counts[:100] = 0  # no collisions: P(X >= 0) is 1
        got = np.array([poisson_tails(int(c), float(m)) for c, m in zip(counts, means)])
        assert np.array_equal(got[:, 0], sps.poisson.cdf(counts, means))
        assert np.array_equal(got[:, 1], sps.poisson.sf(counts - 1, means))


class TestSanitySandwich:
    """Every battery passes on direct uniform sampling and fails on the
    frozen initial ensembles, at one configured parameter point."""

    def test_bits(self):
        n, k, t, trials = 12, 5, 3, 1500
        oracle = oracle_bit_ensembles(n, t, trials, master_seed=55)
        frozen = frozen_initial_ensembles(n, k, t, trials, master_seed=56)
        assert marginal_bias_test(oracle).passed
        assert pairwise_xor_test(oracle).passed
        assert not marginal_bias_test(frozen).passed
        assert not pairwise_xor_test(frozen).passed

    def test_signs(self):
        oracle = oracle_sign_vectors(5, 11_000, master_seed=57)
        frozen = [np.ones(5, dtype=np.int8)] * 11_000
        assert sign_vector_test(oracle, 5).passed
        assert not sign_vector_test(frozen, 5).passed

    def test_subsets(self):
        n, k, t, trials = 5, 3, 2, 3000
        oracle = ensemble_subsets(oracle_bit_ensembles(n, t, trials, master_seed=58))
        frozen = ensemble_subsets(frozen_initial_ensembles(n, k, t, trials, master_seed=59))
        assert subset_uniformity_test(oracle, n, t).passed
        assert not subset_uniformity_test(frozen, n, t).passed


class TestSignTrials:
    def test_matches_gate_oracle(self):
        # sign programs through the step kernel must reproduce the exported
        # circuit applied gate by gate: same streams, sign vectors, counts
        for n, p, alpha, t, m in [
            (16, 16, 4.0, 4, 1),
            (24, 8, 3.0, 5, 3),
            (64, 10, 9.0, 16, 6),
            (64, 64, 8.0, 8, 1),
            (130, 20, 6.0, 8, 6),
            (130, 65, 4.0, 8, 2),
        ]:
            run = run_sign_trials(n, p, alpha, t, m, 25, master_seed=77)
            for i in range(25):
                circuit = sign_thermalizer(n, p, alpha, t, m, seed=derive_seed(77, "sign-circuit", i))
                e = sample_initial_copies(n, n, t, stream(77, "sign-copies", i))
                for g in circuit.gates():
                    e = apply_gate(e, g)
                assert np.array_equal(run.sign_vectors[i], e.signs)
                assert run.gate_counts[i] == circuit.gate_count
            assert run.layer_count == len(circuit.layers)


class TestThermalizerBatteries:
    def test_gate_opt_battery_passes(self):
        battery = run_bit_battery("gate-opt", 20, 8, 3, 2, 8.0, 1200, master_seed=60)
        assert battery.all_distinct
        assert battery.x_full_rank_frequency >= 0.99
        assert marginal_bias_test(battery.ensembles).passed
        assert pairwise_xor_test(battery.ensembles).passed

    def test_depth_opt_battery_passes(self):
        battery = run_bit_battery("depth-opt", 20, 8, 3, 2, 8.0, 1200, master_seed=61)
        assert battery.all_distinct
        assert marginal_bias_test(battery.ensembles).passed
        assert pairwise_xor_test(battery.ensembles).passed

    def test_sign_battery_passes(self):
        run = run_sign_trials(24, 24, 4.0, 6, 1, 11_000, master_seed=62)
        assert run.layer_count == 1
        assert sign_vector_test(run.sign_vectors, 6).passed


class TestReportShape:
    def test_serializable(self):
        report = TestReport(
            name="x", statistic=1.0, samples=10, passed=True, threshold=0.5, p_value=0.7
        )
        d = report.to_dict()
        assert d["name"] == "x" and d["passed"] is True

    def test_rejects_bad_p_value(self):
        with pytest.raises(ValueError):
            TestReport(name="x", statistic=0.0, samples=1, passed=True, threshold=0.0, p_value=1.5)
