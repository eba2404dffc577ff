"""Tests for the exact and numerical Bergman projection paths."""

import math
import warnings

import numpy as np
import pytest

from fathartogs import kernel
from fathartogs.geometry import (
    DomainSpec,
    NonIntegerExponentError,
    Point2,
    sample_uniform,
    volume,
)
from fathartogs.kernel import (
    MultiIndex,
    NearSingularError,
    basis_indices_by_weight,
    kernel_closed_st,
)
from fathartogs.projection import (
    MonomialInput,
    NonIntegrableInputError,
    ProjectionAccuracyWarning,
    basis_norm_sq,
    project_monomial,
    project_numeric,
)
from fathartogs.quadrature import QuadratureSpec, integrate, radial_moment

SPEC = QuadratureSpec(radial_nodes=6, angular_nodes=24, boundary_offset=1e-6)


def mono(a1, a2, b1, b2):
    return MonomialInput(MultiIndex(a1, a2), MultiIndex(b1, b2))


class TestBasisNorms:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_candidate_closed_form(self, k):
        # ||z^alpha||^2 = pi^2 k / ((a1+1)(a1+1+k(a2+1))) on the index set
        d = DomainSpec(k)
        for alpha in basis_indices_by_weight(k, 8):
            want = math.pi**2 * k / ((alpha.a1 + 1) * (alpha.a1 + 1 + k * (alpha.a2 + 1)))
            assert basis_norm_sq(d, alpha) == pytest.approx(want, rel=1e-13)

    def test_monte_carlo_cross_check(self):
        d = DomainSpec(2)
        alpha = MultiIndex(1, -1)
        z1, z2 = sample_uniform(d, 500_000, seed=17)
        g = np.abs(z1) ** 2 / np.abs(z2) ** 2
        est = float(np.mean(g)) * volume(d)
        se = float(np.std(g)) / math.sqrt(g.size) * volume(d)
        assert abs(basis_norm_sq(d, alpha) - est) < 4 * se


class TestProjectMonomial:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_antiholomorphic_z2(self, k):
        d = DomainSpec(k)
        res = project_monomial(d, mono(0, 0, 0, 1))
        assert res is not None
        assert (res.index.a1, res.index.a2) == (0, -1)
        assert res.coeff == pytest.approx(1.0 / (k + 1), rel=1e-13)

    def test_antiholomorphic_z1_is_zero(self):
        assert project_monomial(DomainSpec(1), mono(0, 0, 1, 0)) is None

    @pytest.mark.parametrize("k", [1, 2])
    def test_reproduces_basis_monomials(self, k):
        d = DomainSpec(k)
        for alpha in basis_indices_by_weight(k, 5):
            res = project_monomial(d, MonomialInput(alpha, MultiIndex(0, 0)))
            assert res is not None and res.index == alpha
            assert res.coeff == pytest.approx(1.0, rel=1e-12)

    def test_idempotent(self):
        d = DomainSpec(2)
        first = project_monomial(d, mono(1, 1, 0, 1))
        again = project_monomial(d, MonomialInput(first.index, MultiIndex(0, 0)))
        assert again.index == first.index and again.coeff == pytest.approx(1.0)

    def test_mixed_monomial_coefficient(self):
        # B(w^a conj(w)^b) = M(gamma+a+b)/||z^gamma||^2 with gamma = a-b
        d = DomainSpec(2)
        res = project_monomial(d, mono(2, 1, 1, 0))
        want = radial_moment(d, 1 + 3, 1 + 1) / basis_norm_sq(d, MultiIndex(1, 1))
        assert res.index == MultiIndex(1, 1)
        assert res.coeff == pytest.approx(want, rel=1e-13)

    def test_rejects_non_integrable(self):
        with pytest.raises(NonIntegrableInputError):
            project_monomial(DomainSpec(1), mono(0, -4, 0, 0))

    def test_rejects_non_integer_exponent(self):
        with pytest.raises(NonIntegerExponentError):
            project_monomial(DomainSpec(1.5), mono(0, 0, 0, 1))


class TestProjectNumeric:
    def test_zero_integrand(self):
        val = project_numeric(
            DomainSpec(1), lambda w1, w2: np.zeros(()), Point2(0.2, 0.5), SPEC
        )
        assert val == 0

    @pytest.mark.parametrize("k", [1, 2])
    def test_reproducing_small_monomials(self, k):
        d = DomainSpec(k)
        z = Point2(0.25, 0.55) if k == 1 else Point2(0.4, 0.45)
        for alpha in [MultiIndex(1, 0), MultiIndex(0, 1), MultiIndex(0, -1), MultiIndex(2, 1)]:
            f = lambda w1, w2, a=alpha: w1**a.a1 * w2**a.a2
            got = project_numeric(d, f, z, SPEC)
            want = z.z1**alpha.a1 * z.z2**alpha.a2
            assert abs(got - want) / abs(want) < 1e-4

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_antiholomorphic_z2(self, k):
        d = DomainSpec(k)
        z = Point2(0.1, 0.5)
        got = project_numeric(d, lambda w1, w2: np.conj(w2), z, SPEC)
        want = 1.0 / ((k + 1) * z.z2)
        assert abs(got - want) / abs(want) < 1e-4

    def test_matches_monomial_path_on_mixed_inputs(self):
        d = DomainSpec(2)
        z = Point2(0.3 + 0.1j, 0.45 - 0.05j)
        for m in [mono(1, 1, 0, 1), mono(2, 0, 1, 0), mono(1, 0, 1, 1), mono(0, 2, 0, 1)]:
            got = project_numeric(d, m.integrand(), z, SPEC)
            exact = project_monomial(d, m)
            want = 0j if exact is None else exact.evaluate(z.z1, z.z2)
            assert abs(got - want) < 1e-4 * max(abs(want), 0.05)

    def test_linear_in_integrand(self):
        d = DomainSpec(1)
        z = Point2(0.2, 0.5)
        f = lambda w1, w2: w1
        g = lambda w1, w2: np.conj(w2)
        combo = project_numeric(d, lambda w1, w2: 3 * f(w1, w2) - 2j * g(w1, w2), z, SPEC)
        parts = 3 * project_numeric(d, f, z, SPEC) - 2j * project_numeric(d, g, z, SPEC)
        assert combo == pytest.approx(parts, rel=1e-12)

    def test_conjugate_kernel_consistency(self):
        # reversing the kernel arguments and conjugating gives the same
        # projection, end to end through the quadrature
        d = DomainSpec(2)
        z = Point2(0.3, 0.5)
        f = lambda w1, w2: np.conj(w2) * w1

        def conj_reversed(w1, w2):
            s = w1 * np.conj(z.z1)
            t = w2 * np.conj(z.z2)
            return np.conj(kernel_closed_st(d, s, t)) * f(w1, w2)

        direct = project_numeric(d, f, z, SPEC)
        swapped = integrate(d, conj_reversed, SPEC)
        assert abs(direct - swapped) < 1e-10 * max(1.0, abs(direct))

    def test_warns_near_boundary(self):
        d = DomainSpec(1)
        spec = QuadratureSpec(radial_nodes=4, angular_nodes=4, boundary_offset=1e-2)
        with pytest.warns(ProjectionAccuracyWarning):
            project_numeric(d, lambda w1, w2: w1, Point2(0.0, 0.985), spec)

    def test_rejects_exterior_point(self):
        with pytest.raises(ValueError):
            project_numeric(DomainSpec(2), lambda w1, w2: w1, Point2(0.9, 0.5), SPEC)

    def test_rejects_non_integer_exponent(self):
        with pytest.raises(NonIntegerExponentError):
            project_numeric(DomainSpec(1.5), lambda w1, w2: w1, Point2(0.1, 0.5), SPEC)

    def test_near_singular_kernel_raises_its_own_error(self):
        # z1 / z2 is 2e-7 below 1, and the nodes reach 1e-9 from the
        # boundary: some node has |t - s| below the kernel's floor
        z = Point2(0.4999999, 0.5)
        with pytest.raises(NearSingularError) as got:
            project_numeric(DomainSpec(1), lambda w1, w2: w1, z,
                            QuadratureSpec(boundary_offset=1e-9))
        assert got.value.factor == "t-s^k"


# mixed modes: (3,1):(1,2), conj(z2), z2^-1 and w1 w2
MIXED = [mono(3, 1, 1, 2), mono(0, 0, 0, 1), mono(0, -1, 0, 0), mono(1, 1, 0, 0)]


class TestProjectNumericMonomial:
    """``project_numeric`` of a ``MonomialInput`` sums the quadrature of its
    callable ``integrand()`` from 1-d angular DFTs; the two agree to
    rounding, aliasing included."""

    Z = Point2(0.2 + 0.1j, 0.4 - 0.1j)

    # angle counts that k does not divide change the set of kept DFT indices
    @pytest.mark.parametrize("k, n", [(1, 24), (2, 24), (2, 25), (3, 20), (3, 24), (3, 32)])
    def test_matches_the_callable_path(self, k, n):
        d = DomainSpec(k)
        spec = QuadratureSpec(radial_nodes=6, angular_nodes=n, boundary_offset=1e-6)
        for m in MIXED:
            want = project_numeric(d, m.integrand(), self.Z, spec)
            got = project_numeric(d, m, self.Z, spec)
            assert abs(got - want) <= 1e-13 * max(abs(want), 1e-3), (m, got, want)
            assert type(got) is complex and (got.imag == 0.0) == (want.imag == 0.0)

    @pytest.mark.parametrize("k, n", [(1, 24), (2, 25), (3, 20), (3, 32)])
    def test_a_zero_projection_is_rounding_on_both_paths(self, k, n):
        # the exact projection of conj(w1) is 0: both sums are rounding
        d = DomainSpec(k)
        spec = QuadratureSpec(radial_nodes=6, angular_nodes=n, boundary_offset=1e-6)
        m = mono(0, 0, 1, 0)
        assert project_monomial(d, m) is None
        want = project_numeric(d, m.integrand(), self.Z, spec)
        got = project_numeric(d, m, self.Z, spec)
        assert abs(got - want) <= 1e-15

    def test_warns_near_boundary(self):
        spec = QuadratureSpec(radial_nodes=4, angular_nodes=4, boundary_offset=1e-2)
        with pytest.warns(ProjectionAccuracyWarning):
            project_numeric(DomainSpec(1), mono(1, 0, 0, 0), Point2(0.0, 0.985), spec)

    def test_rejects_exterior_point(self):
        with pytest.raises(ValueError, match="not interior"):
            project_numeric(DomainSpec(2), mono(1, 0, 0, 0), Point2(0.9, 0.5), SPEC)

    def test_rejects_non_integer_exponent(self):
        with pytest.raises(NonIntegerExponentError):
            project_numeric(DomainSpec(1.5), mono(1, 0, 0, 0), Point2(0.1, 0.5), SPEC)

    def test_near_singular_gap_reports_the_grid_minimum(self):
        # the callable path stops at the first u block that fails the
        # screen; this path screens the whole u axis at once, so its
        # minimum is the grid's and no larger
        z = Point2(0.4999999, 0.5)
        spec = QuadratureSpec(boundary_offset=1e-9)
        m = mono(1, 0, 0, 0)
        with pytest.raises(NearSingularError) as got:
            project_numeric(DomainSpec(1), m, z, spec)
        with pytest.raises(NearSingularError) as old:
            project_numeric(DomainSpec(1), m.integrand(), z, spec)
        assert got.value.factor == old.value.factor == "t-s^k"
        assert got.value.min_abs <= old.value.min_abs < kernel.DEFAULT_SINGULAR_FLOOR

    def test_near_singular_one_minus_t_is_screened_first(self, monkeypatch):
        # |1 - t| >= 1 - |z2| v stays far above the floor on the domain
        # core, so the floor is raised above it: the (v, theta2) factor is
        # screened before the gap on both paths
        monkeypatch.setattr(kernel, "DEFAULT_SINGULAR_FLOOR", 0.2)
        z = Point2(0.0, 0.9)
        spec = QuadratureSpec(radial_nodes=4, angular_nodes=8, boundary_offset=1e-2)
        m = mono(0, 0, 0, 1)
        for call in (lambda: project_numeric(DomainSpec(2), m, z, spec),
                     lambda: project_numeric(DomainSpec(2), m.integrand(), z, spec)):
            with pytest.raises(NearSingularError) as got:
                call()
            assert got.value.factor == "1-t"
