"""Tests for range algebra and the verification experiments."""

import math
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy import special as sp_special

from fathartogs import analysis, quadrature
from fathartogs.geometry import DomainSpec, Point2, aux_h, boundary_ladder
from fathartogs.analysis import (
    RangeReport,
    SchurConfig,
    VERDICT_CONSISTENT,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    _EDGE_RESCALE_LEVEL,
    _PROBE_POINT,
    _V0_PROBE_LADDER,
    _edge_exponent,
    _ladder_trend,
    _schur_value,
    _u_factor,
    _u_rule,
    _v_axis,
    critical_range,
    divergence_scan,
    norm_ratio_probe,
    schur_range,
    verify_calculus1,
    verify_disc_log,
    verify_schur,
)
from fathartogs.kernel import (
    MultiIndex,
    NearSingularError,
    _polar_phases,
    _polar_theta1_factor,
    _polar_w1_factor,
    kernel_abs_polar,
)
from fathartogs.projection import MonomialInput
from fathartogs.quadrature import DivergentIntegralError

NODES = dict(radial_nodes=10, angular_nodes=24)


def mono(a1, a2, b1, b2):
    return MonomialInput(MultiIndex(a1, a2), MultiIndex(b1, b2))


class TestCriticalRange:
    def test_k1(self):
        rng = critical_range(DomainSpec(1))
        assert rng.p_low == Fraction(4, 3) and rng.p_high == Fraction(4)

    def test_k2(self):
        rng = critical_range(DomainSpec(2))
        assert rng.p_low == Fraction(3, 2) and rng.p_high == Fraction(3)

    def test_conjugate_exactly(self):
        for k in range(1, 21):
            assert critical_range(DomainSpec(k)).conjugacy_defect() == 0

    def test_large_k_pinches_to_two(self):
        rng = critical_range(DomainSpec(10_000))
        assert rng.p_low_float == pytest.approx(2.0, abs=1e-3)
        assert rng.p_high_float == pytest.approx(2.0, abs=1e-3)

    def test_monotone_in_k(self):
        lows = [critical_range(DomainSpec(k)).p_low_float for k in range(1, 21)]
        highs = [critical_range(DomainSpec(k)).p_high_float for k in range(1, 21)]
        assert all(b > a for a, b in zip(lows, lows[1:]))
        assert all(b < a for a, b in zip(highs, highs[1:]))

    def test_real_exponent(self):
        rng = critical_range(DomainSpec(1.5))
        assert rng.p_low_float == pytest.approx(5 / 3.5)
        assert rng.p_high_float == pytest.approx(5 / 1.5)
        assert abs(rng.conjugacy_defect()) < 1e-15
        # the paper proves the range for integer k only
        assert rng.source == "extrapolated_formula"


class TestSchurRange:
    def test_matches_critical_range_exactly(self):
        for k in range(1, 11):
            window = schur_range(Fraction(1, 2), Fraction(k + 2, 2 * k))
            crit = critical_range(DomainSpec(k))
            assert window.p_low == crit.p_low and window.p_high == crit.p_high

    def test_simple_values(self):
        rng = schur_range(1, 2)
        assert rng.p_low_float == pytest.approx(1.5) and rng.p_high_float == pytest.approx(3.0)

    def test_collapses_to_two(self):
        rng = schur_range(1.0, 1.0 + 1e-9)
        assert rng.p_low_float == pytest.approx(2.0, abs=1e-8)
        assert rng.p_high_float == pytest.approx(2.0, abs=1e-8)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            schur_range(2, 1)
        with pytest.raises(ValueError):
            schur_range(0, 1)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            RangeReport(1.0, 4.0, "test")


class TestLadderTrend:
    def test_a_pure_power_grows_with_its_exponent(self):
        values = 3.0 * 2.0 ** (0.7 * np.arange(1, 9))
        trend = _ladder_trend(values, 2.0)
        assert trend.kind == "growing"
        assert trend.c == pytest.approx(-0.7, rel=1e-12)
        assert trend.q == pytest.approx(2.0**0.7, rel=1e-12)

    def test_a_log_grows_with_exponent_zero(self):
        # pi log(1/delta) on delta = 10^-j: every increment is pi ln 10
        values = 2.0 + math.pi * math.log(10.0) * np.arange(1, 12)
        trend = _ladder_trend(values, 10.0)
        assert trend.kind == "growing"
        assert abs(trend.c) < 1e-12

    def test_a_turn_is_not_growth(self):
        # the inner ladder of k = 1, eps 0.997: after the turn the
        # increments rise for two levels, then fall again
        values = np.cumsum([10.0, -0.062, 0.002, 0.023, 0.026, 0.022])
        at_turn = _ladder_trend(values[:-1], 2.0)
        assert at_turn.kind == "bounded" and "at or below the noise floor" in at_turn.rule
        after_turn = _ladder_trend(values, 2.0)
        assert after_turn.kind == "bounded" and "with c > 1e-06" in after_turn.rule
        assert after_turn.c == pytest.approx(-math.log2(0.022 / 0.026), rel=1e-9)

    def test_a_converging_ladder_reports_its_aitken_limit(self):
        values = 7.0 - 3.0 * 2.0 ** (-0.5 * np.arange(1, 11))
        trend = _ladder_trend(values, 2.0)
        assert trend.kind == "bounded"
        assert trend.c == pytest.approx(0.5, rel=1e-9)
        assert trend.limit == pytest.approx(7.0, rel=1e-13)
        assert abs(values[-1] - 7.0) > 0.09

    def test_noise_at_the_plateau_gives_the_last_value(self):
        # increments at 1e-14 of the value are noise: q and c come from the
        # last pair above the floor, and no Aitken step is taken
        values = [1.0, 1.5, 1.75, 1.875, 1.875 + 1e-14, 1.875 - 1e-14, 1.875]
        trend = _ladder_trend(values, 2.0)
        assert trend.kind == "bounded"
        assert trend.q == pytest.approx(0.5) and trend.c == pytest.approx(1.0)
        assert trend.limit == 1.875

    def test_a_short_ladder_is_undecided(self):
        trend = _ladder_trend(2.0 ** np.arange(4), 2.0)
        assert trend.kind == VERDICT_INCONCLUSIVE
        assert trend.rule == "fewer than 5 values"
        assert trend.c == pytest.approx(-1.0)


class TestVerifyCalculus1:
    def test_plateau_mid_parameters(self):
        rep = verify_calculus1(0.5, 1.0, levels=10, **NODES)
        assert rep.verdict == VERDICT_CONSISTENT
        assert rep.fitted_exponent == pytest.approx(-0.5, abs=0.02)
        z0 = rep.samples[0]
        assert z0["abs_z"] == 0.0
        assert z0["value"] == pytest.approx(math.pi**2, rel=1e-7)

    def test_parameter_rejection(self):
        with pytest.raises(DivergentIntegralError):
            verify_calculus1(1.0, 0.0, 6, **NODES)
        with pytest.raises(DivergentIntegralError):
            verify_calculus1(0.5, 2.0, 6, **NODES)
        with pytest.raises(ValueError):
            verify_calculus1(0.5, 0.0, 3, **NODES)
        # 1 - 2^-54 rounds to 1
        with pytest.raises(ValueError, match="at most 53"):
            verify_calculus1(0.5, 0.0, 54, **NODES)

    # criterion 9's three (eps, beta) pairs, on a ladder to the last level
    # that double precision separates from the rim
    @pytest.mark.parametrize("eps, beta", [(0.3, 0.0), (0.5, 1.0), (0.9, 1.9)])
    def test_the_plateau_holds_at_53_levels(self, eps, beta):
        rep = verify_calculus1(eps, beta, 53, radial_nodes=12, angular_nodes=32)
        assert rep.verdict == VERDICT_CONSISTENT


class TestVerifyDiscLog:
    def test_log_law(self):
        rep = verify_disc_log(levels=10, **NODES)
        assert rep.verdict == VERDICT_CONSISTENT
        assert rep.parameters["log_law_slope_over_pi"] == pytest.approx(1.0, abs=0.1)
        assert rep.fitted_exponent == pytest.approx(-0.5, abs=0.05)
        assert rep.samples[0]["value"] == pytest.approx(math.pi, rel=1e-8)

    def test_deep_ladder_stays_finite(self):
        # 1 - 2 a r cos(th) + (ar)^2 cancelled on the ladder a = 1 - 2^-j:
        # 9e-5 relative at j = 24, and inf from j = 28 on
        rep = verify_disc_log(levels=30, radial_nodes=12, angular_nodes=32)
        values = [s[key] for s in rep.samples for key in ("value", "weighted_value") if key in s]
        assert len(values) == 61 and all(math.isfinite(x) for x in values)
        assert rep.verdict == VERDICT_CONSISTENT
        assert rep.parameters["log_law_slope_over_pi"] == pytest.approx(1.0, abs=1e-3)

    def test_both_laws_hold_at_53_levels(self):
        # the rim distance 2^-53 of the last level is a node distance, not
        # rounded to r = 1, so the fits hold to the last level
        rep = verify_disc_log(53, radial_nodes=12, angular_nodes=32)
        assert rep.verdict == VERDICT_CONSISTENT
        assert rep.parameters["log_law_slope_over_pi"] == pytest.approx(1.0, abs=1e-6)
        assert rep.fitted_exponent == pytest.approx(-0.5, abs=1e-6)


class TestDivergenceScan:
    def test_k1_classifications(self):
        d = DomainSpec(1)
        deltas = np.geomspace(1e-2, 1e-10, 9)
        rep = divergence_scan(d, [3.0, 4.0, 5.0], deltas)
        rows = {r["p"]: r for r in rep.parameters["grid_rows"]}
        assert rows[3.0]["classification"] == "saturating"
        assert rows[3.0]["exact_limit"] == pytest.approx(2 * math.pi**2)
        assert rows[3.0]["limit_rel_err"] < 1e-6
        assert rows[4.0]["classification"] == "growing"
        assert rows[4.0].get("growth_type") == "logarithmic"
        assert rows[5.0]["classification"] == "growing"
        assert rows[5.0]["fitted_slope"] == pytest.approx(1.0, abs=0.01)
        assert rep.parameters["p_critical_rel_err"] < 0.02
        assert rep.verdict == VERDICT_CONSISTENT

    # criterion 7's cases: p + c reads the critical p to about 2e-9, far
    # inside criterion 7's 2%
    @pytest.mark.parametrize("k", [1.0, 2.0, 1.5])
    def test_critical_p_is_read_off_the_growth_exponent(self, k):
        p_c = 2.0 + 2.0 / k
        rep = divergence_scan(DomainSpec(k), [p_c + 0.5, p_c + 1.0], np.geomspace(1e-2, 1e-10, 9))
        assert rep.parameters["p_critical_rel_err"] < 1e-6
        assert rep.parameters["decided_by"]["ladder"] == f"p = {p_c + 0.5}"

    def test_real_exponent_supported(self):
        d = DomainSpec(1.5)
        deltas = np.geomspace(1e-2, 1e-10, 9)
        rep = divergence_scan(d, [2.5], deltas)
        pc = 2 + 2 / 1.5
        assert rep.parameters["p_critical_empirical"] == pytest.approx(pc, rel=0.02)

    def test_offsets_must_shrink_by_one_ratio(self):
        with pytest.raises(ValueError,
                           match=r"one ratio, got \[0.01, 0.001, 0.0001, 1e-06, 1e-07\]"):
            divergence_scan(DomainSpec(1), [3.0], [1e-2, 1e-3, 1e-4, 1e-6, 1e-7])

    def test_needs_enough_deltas(self):
        with pytest.raises(ValueError):
            divergence_scan(DomainSpec(1), [3.0], [1e-2, 1e-3])

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_p_must_be_finite(self, p):
        with pytest.raises(ValueError, match="must be finite"):
            divergence_scan(DomainSpec(1), [3.0, p], np.geomspace(1e-2, 1e-10, 9))

    # at p = 8 (k = 1) the mass itself, about 2 pi^2 delta^(-4) / 4, is not
    # finite on these cores: classified, such masses once called a growing p
    # saturating
    @pytest.mark.parametrize("deepest", [1e-200, 1e-300])
    def test_masses_that_are_not_finite_are_never_classified(self, deepest):
        deltas = np.geomspace(1e-2, deepest, round(math.log10(1e-2 / deepest)) + 1)
        with pytest.raises(ValueError, match=r"at p = \d\.0 on the core \|z2\| > 1e-\d+ is"):
            divergence_scan(DomainSpec(1), [3.0, 4.0, 8.0], deltas)

    # the integrand is one power r2^(1 + 2/k - p): formed as r2^(2/k) times
    # r2^(1 - p), r2^(-4) overflowed at 1e-100 although the p = 5 mass is
    # about 2 pi^2 1e100
    def test_deep_finite_masses_are_classified(self):
        rep = divergence_scan(DomainSpec(1), [3.0, 5.0], np.geomspace(1e-2, 1e-100, 99))
        rows = {r["p"]: r for r in rep.parameters["grid_rows"]}
        assert rows[3.0]["classification"] == "saturating"
        assert rows[5.0]["classification"] == "growing"
        assert rows[5.0]["fitted_slope"] == pytest.approx(1.0, abs=0.01)


class TestNormRatioProbe:
    def test_l2_is_contraction(self):
        d = DomainSpec(1)
        family = [mono(0, 0, 0, 1), mono(1, 0, 0, 0), mono(1, 1, 0, 1), mono(2, 0, 0, 1)]
        rep = norm_ratio_probe(d, 2.0, family)
        assert rep.verdict == VERDICT_CONSISTENT
        ratios = [s["ratio"] for s in rep.samples if s["status"] == "finite"]
        assert ratios and all(r <= 1 + 1e-12 for r in ratios)

    def test_upper_endpoint_certificate(self):
        # p = 3 is the upper endpoint for k = 2; the projection of conj(z2)
        # is 1/(3 z2) whose cube has log-divergent mass
        d = DomainSpec(2)
        rep = norm_ratio_probe(d, 3.0, [mono(0, 0, 0, 1)])
        assert rep.parameters["certificates"] == 1
        assert rep.verdict == VERDICT_CONSISTENT
        cert = rep.samples[0]
        assert cert["status"] == "certificate"

    def test_just_inside_no_certificate(self):
        d = DomainSpec(2)
        rep = norm_ratio_probe(d, 2.9, [mono(0, 0, 0, 1), mono(1, 0, 0, 0)])
        assert rep.parameters["certificates"] == 0
        assert rep.verdict == VERDICT_CONSISTENT

    def test_zero_projection_rows(self):
        d = DomainSpec(1)
        rep = norm_ratio_probe(d, 2.0, [mono(0, 0, 1, 0)])
        assert rep.samples[0]["status"] == "projects-to-zero"

    @pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
    def test_p_outside_one_to_inf_is_rejected(self, p):
        # at p = inf the radial moments are NaN and bounded monomials read
        # as divergent, which would give false certificates
        with pytest.raises(ValueError, match=r"p must lie in \[1, inf\)"):
            norm_ratio_probe(DomainSpec(2), p, [mono(0, 0, 0, 1), mono(1, 0, 0, 0)])


class TestVerifySchur:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchurConfig(eps=0.0)
        with pytest.raises(ValueError):
            SchurConfig(eps=0.5, ladder_levels=1)

    def test_above_window_grows(self):
        d = DomainSpec(2)
        rep = verify_schur(d, SchurConfig(eps=1.1, ladder_levels=4))
        assert rep.verdict == VERDICT_VIOLATED and rep.expected_violation
        assert rep.parameters["divergence_edge"] == "singular corner v -> 0"
        # past the window the weight is the pure corner weight
        assert rep.parameters["edge_exponent"] == 0.0

    def test_above_corner_threshold_grows(self):
        # eps between (k+2)/(2k) and 1 diverges at the singular corner
        d = DomainSpec(3)
        rep = verify_schur(d, SchurConfig(eps=0.93, ladder_levels=4))
        assert rep.verdict == VERDICT_VIOLATED and rep.expected_violation
        assert rep.parameters["divergence_edge"] == "singular corner v -> 0"

    def test_edge_exponent_rule(self):
        # below the rescale level: delta = eps
        assert _edge_exponent(1, 0.9) == 0.9
        # past the window: the pure corner weight
        assert _edge_exponent(1, 1.6) == 0.0
        # in the window at or above the rescale level: eps scaled by the
        # window top, capped below the rescale level
        assert _edge_exponent(1, 1.2) == pytest.approx(0.8, rel=1e-15)
        assert _edge_exponent(2, 0.997) < _EDGE_RESCALE_LEVEL

    def test_in_window_exponent_at_edge_cut_level_is_consistent(self):
        # k = 1, eps = 0.997 lies in the window [1/2, 3/2) but at the
        # 0.995 rescale level; its edge exponent is rescaled below that
        # level (6 levels is the CLI default)
        rep = verify_schur(DomainSpec(1), SchurConfig(eps=0.997, ladder_levels=6))
        assert rep.parameters["edge_exponent"] < _EDGE_RESCALE_LEVEL
        assert rep.verdict == VERDICT_CONSISTENT and not rep.expected_violation

    # in-window exponents 0.01 below the window top.  With the v axis cut
    # at 1e-16 on the axis ladders, both read "violated" with outer slopes
    # -0.0617 (k = 1) and -0.0702 (k = 2)
    @pytest.mark.parametrize("k,eps", [(1, 1.49), (2, 0.99)])
    def test_in_window_exponent_near_the_window_top_is_consistent(self, k, eps):
        rep = verify_schur(DomainSpec(k), SchurConfig(eps=eps, ladder_levels=6))
        assert rep.verdict == VERDICT_CONSISTENT and not rep.expected_violation

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_window_top_diverges_at_corner(self, k):
        # eps = (k+2)/(2k) exactly is the first exponent past the window;
        # the offset ladder decides it before any boundary ladder runs
        rep = verify_schur(DomainSpec(k), SchurConfig(eps=(k + 2) / (2 * k), ladder_levels=2))
        assert rep.verdict == VERDICT_VIOLATED and rep.expected_violation
        assert rep.parameters["divergence_edge"] == "singular corner v -> 0"

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 8),
           eps=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
    def test_edge_exponent_stays_integrable(self, k, eps):
        # every corner exponent gets edge factors integrable with margin
        assert 0.0 <= _edge_exponent(k, eps) < _EDGE_RESCALE_LEVEL

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_u_factor_matches_algebraic_weight_quadrature(self, k):
        # 1 - u^(2k) = (1-u) (1 + u + ... + u^(2k-1)); QUADPACK's algebraic
        # weight takes the (1-u)^(-delta) end singularity
        for delta in (0.5, 0.75, 0.9, 0.99):
            ref, _ = sp_integrate.quad(
                lambda u: u * np.polyval(np.ones(2 * k), u) ** (-delta), 0.0, 1.0,
                weight="alg", wvar=(0.0, -delta), epsabs=0.0, epsrel=1e-13, limit=200)
            assert _u_factor(k, delta) == pytest.approx(ref, rel=1e-13, abs=0.0)
        with pytest.raises(DivergentIntegralError):
            _u_factor(k, 1.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_u_factor_matches_beta_function(self, k):
        for delta in (-0.5, 0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999):
            ref = float(sp_special.beta(1.0 / k, 1.0 - delta)) / (2 * k)
            assert _u_factor(k, delta) == pytest.approx(ref, rel=1e-14, abs=0.0)

    # _schur_value at eps = 0.75 (edge exponent 0.75), printed with repr().
    # "inner", "outer" and "corner": the 8 points of boundary_ladder(d, s, 8)
    # with the v axis integrated to the corner (v0=None), recorded when
    # the corner rule replaced the cuts at 1e-8 (inner) and 1e-16 (outer,
    # corner); against the offset rule at v0 = 1e-80 the values at levels
    # 4 and 8 moved from -4.4e-5 to -2.7e-9 and -3.2e-10 (k = 2, inner)
    # and from -3.2e-2 to 7.5e-10 (k = 3, inner).  "probe": _PROBE_POINT
    # at the last probe offset, _V0_PROBE_LADDER[-1], recorded with the
    # per-term sum of the separable form, before that sum became a matrix
    # product
    SCHUR_GOLDEN = {
        2: {"inner": [55.49454498725259, 91.64940333629508, 156.34005037378031,
                      267.282460588307, 454.875136467277, 770.6918481130485,
                      1301.8007800573234, 2194.831344656929],
            "outer": [26.176327888454963, 28.121509531317777, 39.69793875910111,
                      61.35079984346121, 98.6782597281678, 161.92992783725413,
                      268.5903890713429, 448.15986719835456],
            "corner": [26.176327888454963, 41.7539785550537, 79.16633528751822,
                       156.25322071595127, 311.47745039549466, 622.4417267477197,
                       1244.6270310336586, 2489.125871386942],
            "probe": 25.29282509915923},
        1: {"inner": [92.54047234428619, 143.6688231612925, 234.71268572552057,
                      390.9112338447861, 655.9026842822915, 1103.4165987233955,
                      1857.5813539898115, 3127.2218486212682],
            "outer": [44.10206337304702, 44.04839175813186, 60.295282966425496,
                      92.34476495454464, 148.50213227834928, 244.33261562138796,
                      406.4816227861743, 679.937361963027],
            "corner": [44.10206337304702, 74.61160732335874, 143.86144467022837,
                       285.1804061135352, 569.1058925539829, 1137.586336729535,
                       2274.8601998157437, 4549.564194100472],
            "probe": 41.394117968562995},
        3: {"inner": [58.02201910069688, 104.47555530893167, 192.3896987915231,
                      347.38236525775125, 610.8626518132063, 1053.2232487349213,
                      1794.4635864202735, 3037.652346260232],
            "outer": [28.391337869046502, 28.297971622627216, 37.258557816884334,
                      54.662889788348274, 84.8356433984069, 135.98704889894285,
                      222.21123614798478, 367.3235935991459],
            "corner": [28.391337869046502, 46.78036565437621, 89.27775879463745,
                       176.4766227022219, 351.9209198417123, 703.3265458939031,
                       1406.3955528567828, 2812.6623497203154],
            "probe": 26.67513221148791},
    }

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_schur_values_match_recorded(self, k):
        d, eps = DomainSpec(k), 0.75
        delta = _edge_exponent(k, eps)
        golden = self.SCHUR_GOLDEN[k]
        for stratum in ("inner", "outer", "corner"):
            got = [_schur_value(d, z, eps, delta, None)
                   for z in boundary_ladder(d, stratum, 8)]
            assert got == pytest.approx(golden[stratum], rel=1e-12, abs=0.0), stratum
        got_probe = _schur_value(d, _PROBE_POINT, eps, delta, _V0_PROBE_LADDER[-1])
        assert got_probe == pytest.approx(golden["probe"], rel=1e-12, abs=0.0)

    # at v0 = 1e-6 the v axis has 170 nodes, not a multiple of the chunk
    # at k = 1-3 (25, 8 and 3 v nodes at the inner point).  At k = 4 the
    # chunk is 2 v nodes, which divides every v axis (a multiple of
    # _U_ORDER nodes), so the off-axis cases take 3-node chunks there.
    # "multirow" puts 3 v nodes in a block at k = 1, 2, and a chunk is cut
    # down to whole blocks, 24 and 6 v nodes; at k = 3, 4 each chunk is one
    # block of 4 v nodes
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["inner", "axis", "multirow"])
    def test_chunked_blocks_equal_each_v_node_alone(self, monkeypatch, k, case):
        d = DomainSpec(k)
        z = Point2(0j, 0.6 + 0j) if case == "axis" else Point2(0.3 + 0.1j, 0.5 - 0.2j)
        if case == "multirow":
            monkeypatch.setattr(analysis, "_SCHUR_BLOCK_ENTRIES", 3 << 16)
        if case != "axis" and k == 4:  # 3 nodes of the 16 x 32 x 32 factor
            monkeypatch.setattr(analysis, "_THETA1_CHUNK_ENTRIES", 3 * 16 * 32 * 32)
        calls = {}
        for name in ("_v_axis", "_polar_w1_factor", "_polar_phases", "kernel_abs_polar"):
            def recorded(*args, real=getattr(analysis, name), name=name, **kwargs):
                out = real(*args, **kwargs)
                calls.setdefault(name, []).append(
                    (args, out.copy() if name == "kernel_abs_polar" else out))
                return out

            monkeypatch.setattr(analysis, name, recorded)
        _schur_value(d, z, 0.75, _edge_exponent(k, 0.75), 1e-6)
        ((_, (v, _)),) = calls["_v_axis"]
        (((*_, psi, u), _),) = calls["_polar_w1_factor"]
        (((_, _, theta1), _),) = calls["_polar_phases"]
        blocks = [block for _, block in calls["kernel_abs_polar"]]
        chunk = max(1, analysis._THETA1_CHUNK_ENTRIES // (k * k * psi.size * theta1.size))
        assert v.size % chunk != 0
        if case == "multirow":
            assert len(blocks[0]) > 1
        assert sum(len(block) for block in blocks) == v.size
        # a chunk holds whole blocks, so every block but the last is full
        assert {len(block) for block in blocks[:-1]} <= {len(blocks[0])}
        got = np.concatenate(blocks)
        x, y = abs(z.z1), abs(z.z2)
        w1_factor = _polar_w1_factor(d, x, y, psi, u)
        phases = _polar_phases(k, psi, theta1)
        for node, row in zip(v, got):
            alone = kernel_abs_polar(w1_factor, _polar_theta1_factor(d, x, y, [node], phases))
            assert np.array_equal(row, alone[0])

    @pytest.mark.parametrize("eps", [0.75, 1.2])
    def test_inner_values_match_the_exact_angular_integral_at_k1(self, eps):
        # at k = 1 both angle integrals of |B_1| are Poisson integrals, so
        # with |tau| = y v and a = x u v the angular integral is exactly
        # 4 |tau| / (||tau|^2 - a^2| (1 - |tau|^2)); summed on the same u
        # and v rules, it leaves only the angular error of the 4-d tensor
        d = DomainSpec(1)
        delta = _edge_exponent(1, eps)
        for z in boundary_ladder(d, "inner", 8):
            x, y = abs(z.z1), abs(z.z2)
            u, wu = _u_rule(1, delta, floor=max((1.0 - x / y) / 16.0, quadrature._FINEST_PANEL))
            v, wv = _v_axis(1, eps, delta, y, None)
            tau, a = y * v[:, None], x * u * v[:, None]
            angular = 4.0 * tau / (np.abs(tau**2 - a**2) * (1.0 - tau**2))
            exact = float(wv @ angular @ wu)
            got = _schur_value(d, z, eps, delta, None)
            assert got == pytest.approx(exact, rel=1e-7, abs=0.0)

    # the corner rule against one with 20 nodes per panel, ratio 2 and a
    # quarter of the floor on (0, 0.5^(1/k)); the two agree to 1.7e-8 at
    # worst (inner, k = 3 and 2), and the cut at 1e-8 left inner values
    # 6.6% low at k = 2, eps 0.95
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("below_top", [0.05, 0.01])
    def test_corner_rule_matches_a_refined_rule(self, monkeypatch, k, below_top):
        d = DomainSpec(k)
        eps = (k + 2) / (2 * k) - below_top
        delta = _edge_exponent(k, eps)
        alpha = k + 1.0 - 2.0 * k * eps

        def refined_v_axis(k, eps, delta, y, v0):
            v, w = _v_axis(k, eps, delta, y, v0)
            upper = v > 0.5
            x, wx = quadrature.graded_rule(
                0.0, 0.5 ** (1.0 / k), 20, toward="lower", ratio=2.0,
                floor=(min(y, 0.5) / 8.0) ** (1.0 / k) / 4.0, edge=alpha)
            lower = x**k
            return (np.concatenate((lower, v[upper])),
                    np.concatenate((wx * k * lower * (1.0 - lower**2) ** (-delta), w[upper])))

        for stratum in ("inner", "outer", "corner"):
            for z in boundary_ladder(d, stratum, 8)[1::6]:
                got = _schur_value(d, z, eps, delta, None)
                with monkeypatch.context() as m:
                    m.setattr(analysis, "_v_axis", refined_v_axis)
                    want = _schur_value(d, z, eps, delta, None)
                assert got == pytest.approx(want, rel=1e-7, abs=0.0), stratum

    # I(z) / W(z) at levels 20 and 40 of each ladder, k = 2, eps 0.75: the
    # outer ratio reads 11.650 and the inner one 9.341 at both; the corner
    # ratio decays like |z2|^(2 eps - 1) and is compared without that
    # factor.  With the z1 = 0 psi scale clamped at 1e-6 and the inner u
    # sliver at 1e-9, the level-40 ratios read 0.119 (outer) and 4.05
    # (inner)
    @pytest.mark.parametrize("stratum", ["outer", "inner", "corner"])
    def test_deep_ladder_ratios_hold(self, stratum):
        d, eps = DomainSpec(2), 0.75
        delta = _edge_exponent(2, eps)
        pts = boundary_ladder(d, stratum, 40)
        ratios = []
        for z in (pts[19], pts[39]):
            y2 = abs(z.z2) ** 2
            ratio = _schur_value(d, z, eps, delta, None) * y2**eps * (aux_h(d, z) / y2) ** delta
            ratios.append(ratio * abs(z.z2) ** (1.0 - 2.0 * eps) if stratum == "corner" else ratio)
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-4, abs=0.0)

    # at eps >= b the corner integral diverges; the offset rule, which the
    # probe ladder uses to witness that, still forms its cut axis
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_the_corner_rule_names_a_divergent_corner_exponent(self, k):
        b = (k + 2) / (2 * k)
        for eps in (b, b + 0.1):
            with pytest.raises(DivergentIntegralError,
                               match=rf"corner exponent eps < b = \(k\+2\)/\(2k\) = {b}.*"
                                     rf"got eps = {eps}"):
                _v_axis(k, eps, 0.0, 0.5, None)
            v, w = _v_axis(k, eps, 0.0, 0.6, 1e-8)
            assert v[0] > 1e-8 and np.all(w > 0.0)

    def test_below_window_ratio_ladder_violation(self):
        # a true positive of the ratio ladders: below the window the
        # integral is finite, and the corner ratio behaves like
        # |z2|^(2 eps - 1), which grows as z2 -> 0 for eps < 1/2; its
        # fitted slope against the gap is 2 eps - 1 = -0.4
        eps = 0.3
        rep = verify_schur(DomainSpec(2), SchurConfig(eps=eps, ladder_levels=6))
        assert rep.verdict == VERDICT_VIOLATED and rep.expected_violation
        assert "divergence_edge" not in rep.parameters
        assert rep.parameters["growing_stratum"] == "corner"
        assert rep.fitted_exponent == pytest.approx(2 * eps - 1, abs=0.01)

    # at the window bottom the outer (k = 1) and inner (k = 3, 4) ladders
    # turn before they converge; the increments after a turn rise for a
    # level or two, which must not read as growth
    @pytest.mark.parametrize("k,eps,levels", [(1, 0.5, 6), (3, 0.5, 8), (4, 0.5, 8)])
    def test_window_bottom_is_consistent(self, k, eps, levels):
        rep = verify_schur(DomainSpec(k), SchurConfig(eps=eps, ladder_levels=levels))
        assert rep.verdict == VERDICT_CONSISTENT and not rep.expected_violation

    # below the window the corner ratio grows like |z2|^(2 eps - 1), here
    # c = -0.02 and -0.1, while the outer and inner ratios converge
    @pytest.mark.parametrize("k,eps", [(2, 0.49), (3, 0.45)])
    def test_just_below_the_window_the_corner_grows(self, k, eps):
        rep = verify_schur(DomainSpec(k), SchurConfig(eps=eps, ladder_levels=10))
        assert rep.verdict == VERDICT_VIOLATED and rep.expected_violation
        assert rep.parameters["growing_stratum"] == "corner"
        assert rep.fitted_exponent == pytest.approx(2 * eps - 1, abs=0.005)
        assert rep.parameters["decided_by"]["ladder"] == "corner"

    def test_four_levels_are_too_few_to_read(self):
        # at 4 levels the outer ladder of k = 1 has not converged (its
        # ratios still rise at eps = 1.2), so no verdict is read
        rep = verify_schur(DomainSpec(1), SchurConfig(eps=1.2, ladder_levels=4))
        assert rep.verdict == VERDICT_INCONCLUSIVE
        assert rep.parameters["decided_by"]["rule"] == "fewer than 5 values"


class TestLadderValuesOnCores:
    """verify_schur evaluates the boundary-ladder values on every usable
    core (analysis._map_on_cores); the core count is patched here."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_values_keep_their_bits(self, monkeypatch, k):
        threads = set()
        value = analysis._schur_value

        def recorded(*args, **kwargs):
            threads.add(threading.get_ident())
            return value(*args, **kwargs)

        monkeypatch.setattr(analysis, "_schur_value", recorded)
        reps = {}
        for cores in (1, 2):
            threads.clear()
            monkeypatch.setattr(analysis, "_usable_cores", lambda cores=cores: cores)
            reps[cores] = verify_schur(DomainSpec(k), SchurConfig(eps=0.75, ladder_levels=6))
            assert len(threads) == cores
        one, two = reps[1], reps[2]
        assert two.samples == one.samples
        assert two.parameters["stratum_slopes"] == one.parameters["stratum_slopes"]
        assert (two.verdict, two.bound_constant) == (one.verdict, one.bound_constant)
        assert one.verdict == VERDICT_CONSISTENT

    # inner levels 2 and 3 of a 6-level ladder raise: level 3 at once,
    # level 2 after the other thread has seen level 3 fail.  The serial
    # loop raises level 2, and so must the pool, with no value started
    # once a failure is seen
    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_failure_raises_the_lowest_index(self, monkeypatch, cores):
        d, levels = DomainSpec(2), 6
        inner = boundary_ladder(d, "inner", levels)
        failing = {inner[1]: 0.2, inner[2]: 0.0}  # point -> delay before raising
        lock, started, seen, late = threading.Lock(), [], [], []

        def fake(d, z, eps, delta, v0):
            if z == _PROBE_POINT:
                return 1.0
            with lock:
                started.append(z)
                if seen:
                    late.append(z)
            if z in failing:
                time.sleep(failing[z])
                with lock:
                    seen.append(z)
                raise NearSingularError(f"level {inner.index(z) + 1}", 0.0, 1e-12)
            time.sleep(0.002)
            return 1.0

        monkeypatch.setattr(analysis, "_schur_value", fake)
        monkeypatch.setattr(analysis, "_usable_cores", lambda: cores)
        before = threading.active_count()
        with pytest.raises(NearSingularError) as raised:
            verify_schur(d, SchurConfig(eps=0.75, ladder_levels=levels))
        assert raised.value.factor == "level 2"
        assert threading.active_count() == before
        assert not late
        assert started[:levels] == boundary_ladder(d, "outer", levels)
        want = inner[:2] if cores == 1 else inner[:3]
        assert sorted(started[levels:], key=inner.index) == want

    def test_one_core_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(analysis, "_usable_cores", lambda: 1)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        rep = verify_schur(DomainSpec(2), SchurConfig(eps=0.75, ladder_levels=3))
        assert len(rep.samples) == len(_V0_PROBE_LADDER) + 9

    def test_the_serial_interrupt_stops_the_workers(self, monkeypatch):
        # a KeyboardInterrupt on the calling thread ends the pool like
        # any other failure: raised unchanged, workers joined
        main = threading.get_ident()
        calls = []

        def fn(i):
            calls.append(i)
            if threading.get_ident() == main and i > 0:
                raise KeyboardInterrupt
            time.sleep(0.01)
            return i

        monkeypatch.setattr(analysis, "_usable_cores", lambda: 2)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            analysis._map_on_cores(fn, list(range(50)))
        assert threading.active_count() == before
        assert len(calls) < 50
