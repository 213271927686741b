from math import comb

import numpy as np
import pytest

from conftest import (
    apply_gate,
    dense_empirical_moment,
    dense_haar_moment,
    dense_trace_distance,
)
from subsetphase import subsetstate
from subsetphase.circuit import MCX, Circuit, ControlTerm, Gate, Layer
from subsetphase.copysim import CopyEnsemble
from subsetphase.generators import GenParams, gate_opt_thermalizer, sign_thermalizer
from subsetphase.rng import stream
from subsetphase.subsetstate import (
    MomentMatrix,
    apply_circuit,
    check_moment_size,
    empirical_moment,
    haar_moment,
    initial_subset_state,
    sample_oracle_state,
    to_statevector,
    trace_distance,
)
from test_circuit import random_circuit


class TestInitialState:
    def test_table_size(self):
        s = initial_subset_state(4, 2)
        assert s.size == 4
        assert s.image_ints() == [0, 1, 2, 3]

    def test_all_signs_positive(self):
        assert np.all(initial_subset_state(6, 3).signs == 1)

    def test_images_confined_to_low_bits(self):
        s = initial_subset_state(10, 4)
        assert set(s.image_ints()) == set(range(16))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            initial_subset_state(4, 5)


class TestApplyCircuit:
    def test_empty_circuit_identity(self):
        s = initial_subset_state(6, 3)
        out = apply_circuit(s, Circuit(n=6, layers=()))
        assert out.image_ints() == s.image_ints()
        assert np.array_equal(out.signs, s.signs)

    def test_uncontrolled_x_flips_every_image(self):
        s = initial_subset_state(5, 2)
        g = Gate(MCX, (), 5)
        out = apply_circuit(s, Circuit(n=5, layers=(Layer([g]),)))
        assert out.image_ints() == [v | 0b10000 for v in s.image_ints()]

    def test_matches_single_copy_evolution(self):
        # evolving the table must equal evolving each entry as a signed
        # singleton ensemble
        rng = stream(21, "cross")
        for _ in range(10):
            n, k = 8, 3
            c = random_circuit(rng, n, 5)
            s = apply_circuit(initial_subset_state(n, k), c)
            for b in range(1 << k):
                single = CopyEnsemble.from_ints(n, [b])
                for layer in c.layers:
                    for g in layer.gates:
                        single = apply_gate(single, g)
                assert single.to_ints()[0] == s.image_ints()[b]
                assert single.signs[0] == s.signs[b]

    def test_injectivity_preserved(self):
        for seed in range(8):
            c = gate_opt_thermalizer(GenParams(n=12, k=4, t=2, alpha=4.0, m=2, seed=seed))
            s = apply_circuit(initial_subset_state(12, 4), c)
            assert s.is_injective()


class TestStatevector:
    def test_initial_uniform_support(self):
        v = to_statevector(initial_subset_state(5, 3))
        assert np.count_nonzero(v) == 8
        assert np.allclose(v[v != 0], 2**-1.5)

    def test_norm_one_after_random_circuits(self):
        rng = stream(22, "norm")
        for _ in range(10):
            s = apply_circuit(initial_subset_state(7, 3), random_circuit(rng, 7, 4))
            v = to_statevector(s)
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
            assert np.count_nonzero(v) == 8

    def test_signs_enter_amplitudes(self):
        s = apply_circuit(
            initial_subset_state(4, 2),
            sign_thermalizer(n=4, p=4, alpha=4.0, t=2, m=1, seed=5),
        )
        v = to_statevector(s)
        assert set(np.sign(v[v != 0])) <= {-1.0, 1.0}
        assert np.count_nonzero(v < 0) == int((s.signs < 0).sum())

    def test_memory_guard(self):
        s = initial_subset_state(30, 2)
        with pytest.raises(ValueError):
            to_statevector(s)


class TestHaarMoment:
    def test_uniform_on_sym(self):
        h = haar_moment(3, 2)
        assert (h.form, h.matrix, h.dim) == ("uniform", None, comb(9, 2))

    def test_t1_is_maximally_mixed(self):
        assert haar_moment(3, 1).dim == 8
        assert np.allclose(dense_haar_moment(3, 1), np.eye(8) / 8)

    def test_trace_one(self):
        for n, t in ((2, 2), (1, 3), (3, 2)):
            assert np.trace(dense_haar_moment(n, t)) == pytest.approx(1.0)

    def test_single_site_t2_closed_form(self):
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[2 * j + i, 2 * i + j] = 1.0
        expected = (np.eye(4) + swap) / 2 / 3  # symmetrizer over dim binom(3,2)
        assert np.allclose(dense_haar_moment(1, 2), expected)

    def test_psd(self):
        # the symmetrizer's range is Sym^t, so I / d_sym on it is exact
        w = np.linalg.eigvalsh(dense_haar_moment(2, 2))
        assert w.min() > -1e-9
        assert np.count_nonzero(w > 1e-9) == haar_moment(2, 2).dim

    def test_guards(self):
        with pytest.raises(ValueError):
            haar_moment(0, 1)
        with pytest.raises(ValueError):
            haar_moment(2, 0)


class TestEmpiricalMoment:
    def test_single_sample_t1_projector(self):
        s = initial_subset_state(3, 2)
        m = dense_empirical_moment([s], 1)
        v = to_statevector(s)
        assert np.allclose(m, np.outer(v, v))
        assert np.trace(m) == pytest.approx(1.0)

    def test_single_sample_gram_is_one(self):
        m = empirical_moment([initial_subset_state(3, 2)], 2)
        assert (m.form, m.dim) == ("gram", comb(9, 2))
        assert m.matrix == pytest.approx(np.ones((1, 1)))

    def test_t1_moment_is_full_space_moment(self):
        # at t = 1 the multiset coordinates are the statevector itself
        states = [sample_oracle_state(3, 2, stream(23, "t1", i)) for i in range(20)]
        m = empirical_moment(states, 1)
        assert m.form == "moment"
        assert np.allclose(m.matrix, dense_empirical_moment(states, 1), atol=1e-15)

    def test_oracle_t1_near_maximally_mixed(self):
        # uniform subsets with uniform signs average to I/2^n at t=1
        states = [sample_oracle_state(4, 2, stream(23, "o1", i)) for i in range(4000)]
        m = empirical_moment(states, 1)
        assert np.abs(m.matrix - np.eye(16) / 16).max() < 0.01

    def test_psd_and_trace(self):
        states = [sample_oracle_state(3, 2, stream(24, "o2", i)) for i in range(50)]
        m = empirical_moment(states, 2)
        assert m.form == "moment" and m.dim == 36
        assert np.trace(m.matrix) == pytest.approx(1.0, rel=1e-9)
        assert np.linalg.eigvalsh(m.matrix).min() > -1e-9

    def test_gram_psd_and_trace(self):
        states = [sample_oracle_state(3, 2, stream(24, "g2", i)) for i in range(30)]
        m = empirical_moment(states, 2)
        assert m.form == "gram" and m.matrix.shape == (30, 30)
        assert np.trace(m.matrix) == pytest.approx(1.0, rel=1e-9)
        assert np.linalg.eigvalsh(m.matrix).min() > -1e-9

    def test_dimension_guard(self):
        # t = 3 at n = 6 fits below d_sym = 45760 samples only while the
        # min(N, d_sym)-sided matrix stays under the cap
        check_moment_size(6, 3, 4096)
        with pytest.raises(ValueError, match="cap"):
            check_moment_size(6, 3, 4097)
        with pytest.raises(ValueError, match="cap"):
            check_moment_size(25, 1, 1)

    def test_guard_stops_the_stream(self, monkeypatch):
        # n = 2, t = 2: d_sym = 10, so 9 samples need a 9 x 9 Gram
        monkeypatch.setattr(subsetstate, "MOMENT_MAX_CELLS", 64)
        consumed = []

        def states():
            for i in range(100):
                consumed.append(i)
                yield initial_subset_state(2, 1)

        with pytest.raises(ValueError, match="cap"):
            empirical_moment(states(), 2)
        assert len(consumed) == 9

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            empirical_moment([], 2)


def algorithm_states(n, k, t, count, seed):
    """Bit then sign thermalizer, as ``run_moment_experiment`` evolves them,
    with parameters that fit n <= 4."""
    for i in range(count):
        bit = gate_opt_thermalizer(GenParams(n=n, k=k, t=t, alpha=16.0, m=1, seed=seed + i))
        sign = sign_thermalizer(n, 1, 24.0, t, 3, seed=seed + 10_000 + i)
        yield apply_circuit(apply_circuit(initial_subset_state(n, k), bit), sign)


ENSEMBLES = {
    "frozen": lambda n, k, t, count, seed: [initial_subset_state(n, k)] * count,
    "oracle": lambda n, k, t, count, seed: [
        sample_oracle_state(n, k, stream(seed, "engine", i)) for i in range(count)
    ],
    "algorithm": lambda n, k, t, count, seed: list(algorithm_states(n, k, t, count, seed)),
}


class TestEngineAgainstOracle:
    """The Sym^t engine against the full-space ``kron`` moment, the
    permutation symmetrizer and ``eigvalsh`` of their difference."""

    @pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
    @pytest.mark.parametrize("side", ["below", "equal", "above"])
    @pytest.mark.parametrize("n,k,t", [(4, 2, 1), (4, 2, 2), (3, 2, 3)])
    def test_distance_matches_dense(self, monkeypatch, n, k, t, side, ensemble):
        d_sym = comb((1 << n) + t - 1, t)
        count = {"below": d_sym // 2, "equal": d_sym, "above": 2 * d_sym + 7}[side]
        states = ENSEMBLES[ensemble](n, k, t, count, 31 + t)
        # 64-sample blocks put the switch to the d_sym side mid-block
        monkeypatch.setattr(subsetstate, "_SYRK_CHUNK", 64)
        moment = empirical_moment(states, t)
        assert moment.form == ("moment" if side == "above" else "gram")
        got = trace_distance(moment, haar_moment(n, t))
        want = dense_trace_distance(dense_empirical_moment(states, t), dense_haar_moment(n, t))
        assert got == pytest.approx(want, abs=1e-12)
        if side != "above":
            # rank <= N leaves d_sym - N eigenvalues at -1 / d_sym
            assert got >= 1.0 - count / d_sym - 1e-12

    def test_frozen_distance_closed_form(self):
        # one pure state: eigenvalues 1 - 1/d_sym once and -1/d_sym otherwise
        got = trace_distance(empirical_moment([initial_subset_state(4, 2)] * 5, 2),
                             haar_moment(4, 2))
        assert got == pytest.approx(1.0 - 1.0 / 136, abs=1e-14)


class TestTraceDistance:
    def test_self_distance_zero(self):
        h = haar_moment(2, 1)
        assert trace_distance(h, h) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_projectors(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[0, 0] = 1.0
        b[1, 1] = 1.0
        assert trace_distance(MomentMatrix(1, a), MomentMatrix(1, b)) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(haar_moment(1, 1), haar_moment(2, 1))

    def test_symmetric_in_arguments(self):
        m = empirical_moment([sample_oracle_state(3, 2, stream(26, "sym", i)) for i in range(9)], 2)
        h = haar_moment(3, 2)
        assert trace_distance(m, h) == trace_distance(h, m)

    def test_gram_needs_uniform_partner(self):
        m = empirical_moment([initial_subset_state(3, 2)], 1)
        with pytest.raises(ValueError):
            trace_distance(m, MomentMatrix(1, np.eye(8) / 8))

    def test_oracle_ensemble_beats_frozen_initial(self):
        # the un-evolved initial-state ensemble is a fixed pure state and
        # sits far from the maximally random moment; the oracle ensemble
        # lands close
        n, k, t = 4, 3, 1
        haar = haar_moment(n, t)
        frozen = empirical_moment([initial_subset_state(n, k)] * 200, t)
        oracle = empirical_moment(
            [sample_oracle_state(n, k, stream(25, "tdo", i)) for i in range(200)], t
        )
        assert trace_distance(frozen, haar) > 0.9
        assert trace_distance(oracle, haar) < 0.3

