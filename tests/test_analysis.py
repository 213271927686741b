import math

import pytest

from subsetphase.analysis import (
    CCX_REGIME,
    DEPTH_CCX_REGIME,
    DEPTH_MCX_REGIME,
    MCX_REGIME,
    SIGN_MCZ_REGIME,
    SIGN_UNIT_REGIME,
    predicted_cost,
    premise_check,
    success_bound_ccx,
    success_bound_mcx,
)
from subsetphase.circuit import DECOMPOSED, UNIT, ccx_equivalent_count, depth
from subsetphase.drivers import monte_carlo_full_rank_streamed
from subsetphase.generators import (
    GenParams,
    depth_opt_thermalizer,
    gate_opt_thermalizer,
    sign_thermalizer,
)
from subsetphase.rng import derive_seed

from conftest import depth_opt_stage_count

# frozen from 60-digit evaluations of the bound expressions
CCX_BOUND_A8_T16 = 0.99999999999996982773
MCX_BOUND_A10_T2 = 0.99991413301773350623
MCX_LEAD_A10_T2 = 0.99992199316836693084


class TestSuccessBoundCcx:
    def test_pinned_value(self):
        assert success_bound_ccx(8.0, 16) == pytest.approx(CCX_BOUND_A8_T16, rel=1e-12)

    def test_saturates_with_alpha(self):
        assert success_bound_ccx(4000.0, 4) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_alpha(self):
        values = [success_bound_ccx(a, 8) for a in (2.0, 3.0, 5.0, 9.0, 20.0)]
        assert values == sorted(values)

    def test_below_monte_carlo(self):
        bound = success_bound_ccx(8.0, 16)
        est = monte_carlo_full_rank_streamed(16, 128, 0.25, 4000, derive_seed(71, "ccx-mc"))
        assert bound <= est.estimate + (est.ci95.hi - est.ci95.lo)


class TestSuccessBoundMcx:
    def test_pinned_value(self):
        assert success_bound_mcx(10.0, 2) == pytest.approx(MCX_BOUND_A10_T2, rel=1e-12)

    def test_leading_factor_at_t2(self):
        # with t = 2 the secondary factor is ~8e-6 deep; the bound sits
        # just below exp(-(e-1)e^-alpha)
        lead = math.exp(-(math.e - 1) * math.exp(-10.0))
        assert lead == pytest.approx(MCX_LEAD_A10_T2, rel=1e-12)
        assert success_bound_mcx(10.0, 2) < lead

    def test_saturates_with_alpha(self):
        assert success_bound_mcx(60.0, 64) == pytest.approx(1.0, abs=1e-9)

    def test_below_monte_carlo_at_power_of_two_t(self):
        # entry probability 2^-ceil(log2 t) equals 1/t when t is a power
        # of two, matching the bound's matching probability
        t, alpha = 8, 6.0
        bound = success_bound_mcx(alpha, t)
        est = monte_carlo_full_rank_streamed(t, int(alpha * t), 1.0 / t, 4000, derive_seed(72, "mcx-mc"))
        assert bound <= est.estimate + (est.ci95.hi - est.ci95.lo)

    def test_rejects_t_below_two(self):
        with pytest.raises(ValueError):
            success_bound_mcx(5.0, 1)


class TestPredictedCost:
    def test_gate_opt_unit_depth_exact(self):
        for seed in range(5):
            gp = GenParams(n=18, k=6, t=2, alpha=3.0, m=2, seed=seed)
            pred = predicted_cost("gate-opt", 18, 6, 2, 3.0, 2)
            assert pred.unit_depth == depth(gate_opt_thermalizer(gp), UNIT)

    def test_depth_opt_unit_depth_exact(self):
        for seed in range(5):
            gp = GenParams(n=40, k=8, t=2, alpha=2.0, m=2, seed=seed)
            pred = predicted_cost("depth-opt", 40, 8, 2, 2.0, 2)
            assert pred.unit_depth == depth(depth_opt_thermalizer(gp), UNIT)
            stages = depth_opt_stage_count(40, 8, 2)
            assert pred.unit_depth == (stages + 1) * gp.rounds

    @pytest.mark.parametrize("n", [20, 40, 64, 257, 1024])
    @pytest.mark.parametrize("k,m", [(8, 2), (12, 3), (15, 4)])
    @pytest.mark.parametrize("t,alpha", [(2, 2.0), (5, 1.5), (8, 6.0)])
    def test_depth_opt_unit_depth_counts_stages(self, n, k, m, t, alpha):
        rounds = math.ceil(alpha * t)
        pred = predicted_cost("depth-opt", n, k, t, alpha, m)
        assert pred.unit_depth == (depth_opt_stage_count(n, k, m) + 1) * rounds

    def test_depth_opt_needs_a_stage_table(self):
        with pytest.raises(ValueError):
            predicted_cost("depth-opt", 16, 3, 2, 2.0, 4)

    def test_sign_unit_depth_cases(self):
        # full-width parallel single-site conditions finish in one layer
        assert predicted_cost("sign", 64, 64, 8, 8.0, 1, p=64).unit_depth == 1
        # generic case: ceil(alpha*t/p) layers
        assert predicted_cost("sign", 64, 64, 256, 9.0, 6, p=10).unit_depth == math.ceil(9 * 256 / 10)

    def test_gate_opt_mean_gates(self):
        # construction arithmetic: rounds*(n-k)/2 + rounds*k/2 = rounds*n/2
        pred = predicted_cost("gate-opt", 64, 24, 8, 6.0, 2)
        assert pred.gates == 48 * 64 / 2

    def test_gate_count_tracks_prediction(self):
        gp_base = dict(n=24, k=8, t=2, alpha=4.0, m=2)
        pred = predicted_cost("gate-opt", 24, 8, 2, 4.0, 2)
        counts = [
            gate_opt_thermalizer(GenParams(**gp_base, seed=s)).gate_count for s in range(40)
        ]
        mean = sum(counts) / len(counts)
        sigma = math.sqrt(pred.unit_depth * 0.25 / len(counts))
        assert abs(mean - pred.gates) < 5 * sigma

    def test_ccx_count_tracks_prediction(self):
        gp = dict(n=32, k=8, t=4, alpha=3.0, m=3)
        pred = predicted_cost("gate-opt", 32, 8, 4, 3.0, 3)
        measured = [
            ccx_equivalent_count(gate_opt_thermalizer(GenParams(**gp, seed=s))) for s in range(20)
        ]
        mean = sum(measured) / len(measured)
        assert 0.5 * pred.ccx_count < mean < 2.0 * pred.ccx_count

    def test_depth_opt_decomposed_mean(self):
        gp_base = dict(n=36, k=8, t=2, alpha=4.0, m=4)
        pred = predicted_cost("depth-opt", 36, 8, 2, 4.0, 4)
        measured = [
            depth(depth_opt_thermalizer(GenParams(**gp_base, seed=s)), DECOMPOSED)
            for s in range(30)
        ]
        mean = sum(measured) / len(measured)
        assert abs(mean - pred.decomposed_depth) / pred.decomposed_depth < 0.05

    def test_depth_template_fit_within_2x(self):
        # staged-thermalizer depth against the analytic shape
        # alpha*t*ln(n)*(log2 t)^2 with one constant fitted over the row:
        # every point sits within 2x of the fitted curve
        import numpy as np

        from subsetphase.generators import depth_opt_cost_profile
        from subsetphase.rng import derive_seed

        k, t = 64, 16
        m = math.ceil(math.log2(t))
        ns = [2**e for e in range(8, 14)]
        measured = []
        template = []
        for n in ns:
            alpha = float(math.ceil(2 * math.log(n)))
            gp_seed = derive_seed(42, "template", n)
            prof = depth_opt_cost_profile(
                GenParams(n=n, k=k, t=t, alpha=alpha, m=m, seed=gp_seed)
            )
            measured.append(prof.decomposed_depth)
            template.append(alpha * t * math.log(n) * math.log2(t) ** 2)
        c = float(np.exp(np.mean(np.log(np.array(measured) / np.array(template)))))
        ratios = [meas / (c * tmpl) for meas, tmpl in zip(measured, template)]
        assert all(0.5 <= r <= 2.0 for r in ratios)

    def test_sign_needs_p(self):
        with pytest.raises(ValueError):
            predicted_cost("sign", 16, 16, 4, 2.0, 1)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            predicted_cost("bogus", 8, 4, 1, 1.0, 2)


class TestPremiseCheck:
    def test_compliant_ccx_point(self):
        # k comfortably above the log proxy, t and rounds below k/2
        assert premise_check(CCX_REGIME, n=1024, k=512, t=16, alpha=8.0, m=2) == []

    def test_t_above_half_k_flagged(self):
        violations = premise_check(CCX_REGIME, n=1024, k=30, t=16, alpha=1.0, m=2)
        assert any("k/2" in v for v in violations)

    def test_wrong_m_flagged_in_mcx_regime(self):
        violations = premise_check(MCX_REGIME, n=4096, k=512, t=64, alpha=17.0, m=5)
        assert any("ceil(log2 t)" in v for v in violations)

    def test_compliant_mcx_point(self):
        assert premise_check(MCX_REGIME, n=4096, k=512, t=64, alpha=17.0, m=6) == []

    def test_depth_regimes_check_m_vs_k(self):
        violations = premise_check(DEPTH_MCX_REGIME, n=4096, k=4, t=64, alpha=17.0, m=6)
        assert any("exceeds k" in v for v in violations)

    def test_sign_unit_regime(self):
        assert premise_check(SIGN_UNIT_REGIME, n=64, t=8, alpha=8.0, m=1, p=64) == []
        violations = premise_check(SIGN_UNIT_REGIME, n=64, t=8, alpha=9.0, m=1, p=64)
        assert any("exceeds n" in v for v in violations)

    def test_sign_mcz_regime(self):
        assert premise_check(SIGN_MCZ_REGIME, n=64, t=256, alpha=9.0, m=6, p=10) == []
        violations = premise_check(SIGN_MCZ_REGIME, n=64, t=256, alpha=9.0, m=6, p=9)
        assert any("floor(n/m)" in v for v in violations)

    def test_bit_regimes_require_k(self):
        violations = premise_check(DEPTH_CCX_REGIME, n=64, t=4, alpha=2.0, m=2)
        assert violations == ["k is required for bit-thermalizer regimes"]

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            premise_check("bogus", n=8, t=1, alpha=1.0, m=2)
