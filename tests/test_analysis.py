"""Tests for range algebra and the verification experiments."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy import special as sp_special

from fathartogs import analysis, quadrature
from fathartogs.geometry import DomainSpec, Point2, boundary_ladder
from fathartogs.analysis import (
    RangeReport,
    SchurConfig,
    VERDICT_CONSISTENT,
    VERDICT_VIOLATED,
    _EDGE_RESCALE_LEVEL,
    _PROBE_POINT,
    _V0_PROBE_LADDER,
    _V0_WORK_AXIS,
    _V0_WORK_FULL,
    _edge_exponent,
    _schur_value,
    _u_factor,
    _u_rule,
    _v_axis,
    critical_range,
    divergence_scan,
    fit_loglog_slope,
    norm_ratio_probe,
    schur_range,
    verify_calculus1,
    verify_disc_log,
    verify_schur,
)
from fathartogs.kernel import (
    MultiIndex,
    _polar_phases,
    _polar_theta1_factor,
    _polar_w1_factor,
    kernel_abs_polar,
)
from fathartogs.projection import MonomialInput
from fathartogs.quadrature import DivergentIntegralError, QuadratureSpec

QUAD = QuadratureSpec(radial_nodes=10, angular_nodes=24)


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


class TestFits:
    def test_fit_loglog_slope(self):
        x = np.geomspace(1e-1, 1e-6, 8)
        y = 3.0 * x**-0.7
        assert fit_loglog_slope(1 / x, y) == pytest.approx(0.7, rel=1e-10)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0], [2.0])


class TestVerifyCalculus1:
    def test_plateau_mid_parameters(self):
        rep = verify_calculus1(0.5, 1.0, levels=10, quad=QUAD)
        assert rep.verdict == VERDICT_CONSISTENT
        assert rep.fitted_exponent == pytest.approx(-0.5, abs=0.02)
        z0 = rep.samples[0]
        assert z0["abs_z"] == 0.0
        assert z0["value"] == pytest.approx(math.pi**2, rel=1e-7)

    def test_parameter_rejection(self):
        with pytest.raises(DivergentIntegralError):
            verify_calculus1(1.0, 0.0, 6, QUAD)
        with pytest.raises(DivergentIntegralError):
            verify_calculus1(0.5, 2.0, 6, QUAD)
        with pytest.raises(ValueError):
            verify_calculus1(0.5, 0.0, 3, QUAD)


class TestVerifyDiscLog:
    def test_log_law(self):
        rep = verify_disc_log(levels=10, quad=QUAD)
        assert rep.verdict == VERDICT_CONSISTENT
        assert rep.parameters["log_law_slope_over_pi"] == pytest.approx(1.0, abs=0.1)
        assert rep.fitted_exponent == pytest.approx(-0.5, abs=0.05)
        assert rep.samples[0]["value"] == pytest.approx(math.pi, rel=1e-8)

    def test_deep_ladder_stays_finite(self):
        # 1 - 2 a r cos(th) + (ar)^2 cancelled on the ladder a = 1 - 2^-j:
        # 9e-5 relative at j = 24, and inf from j = 28 on
        rep = verify_disc_log(levels=30, quad=QuadratureSpec(12, 32))
        values = [s[key] for s in rep.samples for key in ("value", "weighted_value") if key in s]
        assert len(values) == 61 and all(math.isfinite(x) for x in values)
        assert rep.verdict == VERDICT_CONSISTENT
        assert rep.parameters["log_law_slope_over_pi"] == pytest.approx(1.0, abs=1e-3)


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

    def test_real_exponent_supported(self):
        d = DomainSpec(1.5)
        deltas = np.geomspace(1e-2, 1e-10, 9)
        rep = divergence_scan(d, [2.5], deltas)
        pc = 2 + 2 / 1.5
        assert rep.parameters["p_critical_empirical"] == pytest.approx(pc, rel=0.02)

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
    # "inner": the 8 points of boundary_ladder(d, "inner", 8) at
    # v0 = _V0_WORK_FULL, recorded with the kernel modulus in its Horner
    # form (the numerator p t^2 + q t + s^k p over the denominator on the
    # full grid).  "outer" and "corner": the 8 points of those ladders
    # (z1 = 0) at v0 = _V0_WORK_AXIS, recorded when the axis case summed
    # its (v, psi) grid as a matrix product outside tensor_sum.  "probe":
    # _PROBE_POINT at the last probe offset, _V0_PROBE_LADDER[-1].  k = 3
    # was recorded later, with the per-term sum of the separable form on
    # the (u, v, theta1, psi) grid, before that sum became a matrix product
    SCHUR_GOLDEN = {
        2: {"inner": [55.492557805950554, 91.64573385147487, 156.33341789159346,
                      267.2707726139817, 454.85491950240066, 770.6572906043441,
                      1301.7421291167761, 2194.7322025681406],
            "outer": [26.176327783187542, 28.121509461139492, 39.69793869894828,
                      61.350799787318564, 98.67825967383615, 161.92992778378482,
                      268.59038901829456, 448.159867145514],
            "corner": [26.176327783187542, 41.753978344519005, 79.1663348664493,
                       156.2532198738152, 311.47744871122654, 622.4417233791925,
                       1244.627024296621, 2489.125857912893],
            "probe": 25.29282509915923},
        1: {"inner": [92.54047234427487, 143.6688231612732, 234.712685725488,
                      390.911233844731, 655.9026842821994, 1103.4165987232398,
                      1857.5813539895437, 3127.221848620805],
            "outer": [44.10206337305138, 44.048391758134755, 60.29528296642799,
                      92.34476495454697, 148.50213227835152, 244.33261562139015,
                      406.48162278617673, 679.9373619630294],
            "corner": [44.10206337305138, 74.6116073233669, 143.8614446702415,
                       285.18040611355354, 569.105892554006, 1137.5863367295624,
                       2274.8601998157737, 4549.564194100507],
            "probe": 41.394117968562995},
        3: {"inner": [56.50578535862159, 101.47690128375768, 186.55962604945393,
                      336.55101452355143, 591.5405563510677, 1019.6664278025494,
                      1737.0766194930993, 2940.318918749989],
            "outer": [28.354835499982187, 28.27363670991795, 37.23769932034406,
                      54.64342185942448, 84.81680346868144, 135.96850800519562,
                      222.1928412252314, 367.3052707957328],
            "corner": [28.354835499982187, 46.70736091624911, 89.13174931839411,
                       176.18460374978824, 351.33688193703523, 702.1584700851072,
                       1404.0594012406366, 2807.990046491535],
            "probe": 26.67513221148791},
    }

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_schur_values_match_recorded(self, k):
        d, eps = DomainSpec(k), 0.75
        delta = _edge_exponent(k, eps)
        golden = self.SCHUR_GOLDEN[k]
        for stratum, v0 in (("inner", _V0_WORK_FULL), ("outer", _V0_WORK_AXIS),
                            ("corner", _V0_WORK_AXIS)):
            got = [_schur_value(d, z, eps, delta, v0)
                   for z in boundary_ladder(d, stratum, 8)]
            assert got == pytest.approx(golden[stratum], rel=1e-12, abs=0.0), stratum
        got_probe = _schur_value(d, _PROBE_POINT, eps, delta, _V0_PROBE_LADDER[-1])
        assert got_probe == pytest.approx(golden["probe"], rel=1e-12, abs=0.0)

    # at v0 = 1e-6 the v axis has 170 nodes, not a multiple of the chunk
    # at any k (51, 16, 7 and 4 v nodes at the inner point); "multirow"
    # puts 3-4 v nodes in a block, so chunks end inside blocks at k = 2, 3
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["inner", "axis", "multirow"])
    def test_chunked_blocks_equal_each_v_node_alone(self, monkeypatch, k, case):
        d = DomainSpec(k)
        z = Point2(0j, 0.6 + 0j) if case == "axis" else Point2(0.3 + 0.1j, 0.5 - 0.2j)
        if case == "multirow":
            monkeypatch.setattr(quadrature, "_TENSOR_BLOCK_ENTRIES", 3 << 16)
        sums, blocks = [], []

        def recording_sum(axes, f):
            sums.append(axes)

            def recorded(v, *rest):
                block = f(v, *rest)
                blocks.append((v.ravel().copy(), block.copy()))
                return block

            return quadrature.tensor_sum(axes, recorded)

        monkeypatch.setattr(analysis, "tensor_sum", recording_sum)
        _schur_value(d, z, 0.75, _edge_exponent(k, 0.75), 1e-6)
        (((v, _), (psi, _), (u, _), (theta1, _)),) = sums
        chunk = max(1, analysis._TENSOR_BLOCK_ENTRIES // (k * k * psi.size * theta1.size))
        assert v.size % chunk != 0
        if case == "multirow":
            assert len(blocks[0][0]) > 1
        assert np.array_equal(np.concatenate([nodes for nodes, _ in blocks]), v)
        got = np.concatenate([block for _, block in blocks])
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
            u, wu = _u_rule(1, delta, floor=max((1.0 - x / y) / 16.0, 1e-9))
            v, wv = _v_axis(1, eps, delta, y, _V0_WORK_FULL)
            tau, a = y * v[:, None], x * u * v[:, None]
            angular = 4.0 * tau / (np.abs(tau**2 - a**2) * (1.0 - tau**2))
            exact = float(wv @ angular @ wu)
            got = _schur_value(d, z, eps, delta, _V0_WORK_FULL)
            assert got == pytest.approx(exact, rel=1e-7, abs=0.0)

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
