"""Tests for the kernel: coefficient polynomials, closed form, series, bound."""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy

from fathartogs.geometry import DomainSpec, Point2, _box_to_z, sample_uniform
from fathartogs.kernel import (
    MultiIndex,
    NearSingularError,
    SeriesDivergenceError,
    SeriesSpec,
    _SERIES_BLOCK_ELEMENTS,
    _closed_rho_factor,
    _closed_t_factor,
    _numerator,
    _polar_phases,
    _polar_theta1_factor,
    _polar_w1_factor,
    basis_indices_by_weight,
    kernel_bound,
    kernel_bound_st,
    kernel_closed,
    kernel_closed_st,
    kernel_abs_polar,
    kernel_series,
    kernel_series_st,
    p_coefficients,
    poly_p,
    poly_q,
    q_base_coefficients,
    q_shift_coefficients,
)
from fathartogs.quadrature import QuadratureSpec, _core_axes, _TENSOR_BLOCK_ENTRIES, angle_rule


def interior_invariants(k, n, seed):
    """Invariants (s, t) with |t| in [0.05, 0.8] and |s|^k / |t| in [0, 0.8]."""
    rng = np.random.default_rng(seed)
    t_abs = rng.uniform(0.05, 0.8, n)
    ratio = rng.uniform(0.0, 0.8, n)
    t = t_abs * np.exp(2j * np.pi * rng.random(n))
    s = (ratio * t_abs) ** (1.0 / k) * np.exp(2j * np.pi * rng.random(n))
    return s, t


def random_pairs(k, n, seed):
    d = DomainSpec(k)
    z1, z2 = sample_uniform(d, n, seed)
    w1, w2 = sample_uniform(d, n, seed + 1)
    return d, (z1, z2), (w1, w2)


class TestPolynomials:
    def test_p_empty_for_k1(self):
        assert poly_p(1, 0.7 + 0.2j) == 0

    def test_p_examples(self):
        assert poly_p(2, 123.0 + 4j) == 1
        s = 0.3 + 0.1j
        assert poly_p(3, s) == pytest.approx(2 + 2 * s)

    def test_q_examples(self):
        assert poly_q(1, 0.9j) == 1
        s = 0.2 - 0.4j
        assert poly_q(2, s) == pytest.approx(1 + 4 * s + s**2)
        assert poly_q(2, 0.0) == 1

    @pytest.mark.parametrize("k", range(1, 7))
    def test_against_symbolic_sums(self, k):
        s = sympy.symbols("s")
        p_sym = sympy.expand(sum(n * (k - n) * s ** (n - 1) for n in range(1, k)))
        q_sym = sympy.expand(
            sum((n**2 + (k - n) ** 2 * s**k) * s ** (n - 1) for n in range(1, k + 1))
        )
        p_poly = sympy.Poly(p_sym, s) if p_sym != 0 else None
        got_p = list(p_coefficients(k))
        want_p = p_poly.all_coeffs()[::-1] if p_poly else []
        assert got_p == [int(c) for c in want_p]
        q_poly = sympy.Poly(q_sym, s)
        want_q = [int(c) for c in q_poly.all_coeffs()[::-1]]
        base = list(q_base_coefficients(k))
        shift = list(q_shift_coefficients(k))
        got_q = [0] * (len(shift) + k)
        for i, c in enumerate(base):
            got_q[i] += c
        for i, c in enumerate(shift):
            got_q[i + k] += c
        while got_q and got_q[-1] == 0:
            got_q.pop()
        assert got_q == want_q

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            poly_p(0, 1.0)
        with pytest.raises(ValueError):
            poly_q(0, 1.0)


class TestNumerator:
    """The Horner form (p t + q) t + s^k p, and t alone at k = 1, against
    the expanded numerator, within a bound set from the float64 epsilon."""

    @staticmethod
    def expanded(k, s, t):
        p, q, sk = poly_p(k, s), poly_q(k, s), s**k
        value = p * t**2 + q * t + sk * p
        scale = np.abs(p) * np.abs(t) ** 2 + np.abs(q) * np.abs(t) + np.abs(sk) * np.abs(p)
        return value, 8.0 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_expanded_form(self, k):
        s, t = interior_invariants(k, 2000, 40 + k)
        want, bound = self.expanded(k, s, t)
        got = _numerator(k, s, t, s**k)
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_broadcasts_3d_s_against_2d_t(self, k):
        rng = np.random.default_rng(50 + k)
        # |s|^k <= 0.3 < 0.4 <= |t|: every broadcast pair is interior
        s = (0.3 * rng.random((4, 5, 1))) ** (1.0 / k) * np.exp(2j * np.pi * rng.random((4, 5, 1)))
        t = rng.uniform(0.4, 0.8, (5, 6)) * np.exp(2j * np.pi * rng.random((5, 6)))
        s_b, t_b = np.broadcast_arrays(s, t)
        want, bound = self.expanded(k, s_b, t_b)
        got = np.broadcast_to(_numerator(k, s, t, s**k), want.shape)
        pointwise = _numerator(k, s_b.ravel(), t_b.ravel(), s_b.ravel() ** k)
        assert np.all(np.abs(got.ravel() - pointwise) <= bound.ravel())
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_separable_form_expands_to_the_numerator(self, k):
        # the sum of k separable terms that kernel_abs_polar evaluates
        s, t = sympy.symbols("s t")
        separable = sum(s ** (n - 1) * (n * t + (k - n) * s**k) * (n + (k - n) * t)
                        for n in range(1, k + 1))
        p = sum(int(c) * s**i for i, c in enumerate(p_coefficients(k)))
        q = (sum(int(c) * s**i for i, c in enumerate(q_base_coefficients(k)))
             + s**k * sum(int(c) * s**i for i, c in enumerate(q_shift_coefficients(k))))
        assert sympy.expand(separable - (p * t**2 + q * t + s**k * p)) == 0


class TestKernelClosed:
    def test_axis_value_k1(self):
        d = DomainSpec(1)
        z = Point2(0, 0.5)
        assert kernel_closed(d, z, z) == pytest.approx(64 / (9 * math.pi**2), rel=1e-14)

    def test_axis_value_k2(self):
        # series oracle pins 40/(9 pi^2): numerator p2(0) t^2 + q2(0) t at
        # s=0, t=1/4 is 5/16, over 2 pi^2 (3/4)^2 (1/4)^2
        d = DomainSpec(2)
        z = Point2(0, 0.5)
        want = 40 / (9 * math.pi**2)
        assert kernel_closed(d, z, z) == pytest.approx(want, rel=1e-14)
        got = kernel_series(d, z, z, SeriesSpec(120, 1e-10))
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_hermitian_symmetry(self):
        d, (z1, z2), (w1, w2) = random_pairs(2, 500, 0)
        a = kernel_closed_st(d, z1 * np.conj(w1), z2 * np.conj(w2))
        b = kernel_closed_st(d, w1 * np.conj(z1), w2 * np.conj(z2))
        assert np.max(np.abs(a - np.conj(b)) / np.abs(a)) < 1e-13

    def test_rotation_invariance(self):
        d = DomainSpec(3)
        z, w = Point2(0.3, 0.6), Point2(0.2 + 0.1j, 0.5 - 0.2j)
        base = kernel_closed(d, z, w)
        th, ph = 1.234, -0.521
        zr = Point2(z.z1 * np.exp(1j * th), z.z2 * np.exp(1j * ph))
        wr = Point2(w.z1 * np.exp(1j * th), w.z2 * np.exp(1j * ph))
        assert kernel_closed(d, zr, wr) == pytest.approx(base, rel=1e-13)

    def test_k1_specialization(self):
        d, (z1, z2), (w1, w2) = random_pairs(1, 2000, 4)
        s = z1 * np.conj(w1)
        t = z2 * np.conj(w2)
        ref = t / (math.pi**2 * (1 - t) ** 2 * (t - s) ** 2)
        got = kernel_closed_st(d, s, t)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13

    def test_diagonal_positive(self):
        d, (z1, z2), _ = random_pairs(2, 2000, 8)
        vals = kernel_closed_st(d, z1 * np.conj(z1), z2 * np.conj(z2))
        assert np.all(vals.real > 0)
        assert np.max(np.abs(vals.imag) / vals.real) < 1e-12

    def test_near_singular_floor(self):
        d = DomainSpec(1)
        with pytest.raises(NearSingularError) as exc:
            kernel_closed_st(d, 0j, 1.0 - 1e-13 + 0j)
        assert "1-t" in str(exc.value)
        with pytest.raises(NearSingularError) as exc:
            kernel_closed_st(d, 0.5 + 0j, 0.5 + 1e-13 + 0j)
        assert "t-s^k" in str(exc.value)

    def test_rejects_non_integer_exponent(self):
        from fathartogs.geometry import NonIntegerExponentError

        with pytest.raises(NonIntegerExponentError):
            kernel_closed(DomainSpec(1.5), Point2(0, 0.5), Point2(0, 0.5))


def closed_oracle(k, s, t):
    """The closed form as one expression, in the operations and order of
    the pair form of kernel_closed_st."""
    s = np.asarray(s, dtype=complex)
    t = np.asarray(t, dtype=complex)
    p, q, sk = poly_p(k, s), poly_q(k, s), s**k
    num = t if k == 1 else (p * t + q) * t + sk * p
    return num * (1.0 / ((k * math.pi**2) * (1.0 - t) ** 2)) / (t - s**k) ** 2


def kernel_check_grid(k, n_rad):
    """The (s, t) grid of the ``kernel-check`` command at ``--grid n_rad``."""
    t_abs = np.linspace(0.05, 0.8, n_rad)
    ratio = np.linspace(0.0, 0.8, n_rad)
    th, _ = angle_rule(8)
    T = t_abs[:, None, None, None] * np.exp(1j * th[None, None, None, :])
    s_abs = (ratio[None, :, None, None] * t_abs[:, None, None, None]) ** (1.0 / k)
    return s_abs * np.exp(1j * th[None, None, :, None]), T


def interior_pairs(k, shape_s, shape_t, seed):
    """Random invariants s and t of the given shapes; |s|^k <= 0.3 < 0.4
    <= |t|, so every broadcast pair is interior."""
    rng = np.random.default_rng(seed)
    s = (0.3 * rng.random(shape_s)) ** (1.0 / k) * np.exp(2j * np.pi * rng.random(shape_s))
    t = rng.uniform(0.4, 0.8, shape_t) * np.exp(2j * np.pi * rng.random(shape_t))
    return s, t


class TestKernelClosedPairForm:
    """The pair form's screens, its rejection of a workspace and its
    pinned values."""

    def test_near_singular_names_the_factor(self):
        d = DomainSpec(2)
        s, t = interior_pairs(2, (4, 1), (1, 3), 90)
        t[0, 1] = s[2, 0] ** 2 + 1e-13
        with pytest.raises(NearSingularError) as exc:
            kernel_closed_st(d, s, t)
        assert exc.value.factor == "t-s^k"
        assert exc.value.min_abs == np.min(np.abs(t - s**2))

    def test_a_zero_part_alone_is_not_near_singular(self):
        # on real invariants every t - s^k has imaginary part 0, below the
        # floor, while its modulus is not
        d = DomainSpec(2)
        s, t = np.linspace(0.1, 0.5, 4)[:, None], np.linspace(0.6, 0.8, 3)[None, :]
        assert np.array_equal(kernel_closed_st(d, s, t), closed_oracle(2, s, t))

    def test_a_workspace_is_rejected(self):
        # the pair form is (d, s, t) only
        with pytest.raises(TypeError, match="work"):
            kernel_closed_st(DomainSpec(1), np.full((4, 1), 0.1j), np.full((1, 3), 0.5j),
                             work=np.empty((2, 4, 3), dtype=complex))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pinned_values(self, k):
        # recorded from the pair form as it was when it took a workspace:
        # 256 interior pairs per k, one 0-d pair (k = 2), and the k = 3
        # kernel-check grid at --grid 6, which holds the kernel zero
        # s = 0, t = -1/2, where the value is the rounding of an exact 0
        pins = np.load(Path(__file__).parent / "data" / "closed_pins.npz")
        d = DomainSpec(k)
        s, t = pins[f"s{k}"], pins[f"t{k}"]
        assert np.array_equal(kernel_closed_st(d, s, t), pins[f"closed{k}"])
        assert np.array_equal(kernel_bound_st(d, s, t), pins[f"bound{k}"])
        if k == 2:
            s, t = pins["s0d"][()], pins["t0d"][()]
            got = kernel_closed_st(d, s, t)
            assert got.shape == () and got == pins["closed0d"]
            assert kernel_bound_st(d, s, t) == pins["bound0d"]
        if k == 3:
            got = kernel_closed_st(d, *kernel_check_grid(3, 6))
            assert np.min(np.abs(got)) < 1e-16
            assert np.array_equal(got, pins["check3"])


def core_blocks(d, z, spec):
    """Blocks of u rows of the domain core's tensor grid: per block, the
    pair invariants (s, t) on the full block and the zero-angle invariants
    (s0, t0) from which the factor tables are formed."""
    (u, _), (v, _), (theta, _), _ = _core_axes(d, spec)
    rows = max(1, _TENSOR_BLOCK_ENTRIES // (v.size * theta.size**2))
    for lo in range(0, u.size, rows):
        w1, w2 = _box_to_z(d, u[lo:lo + rows, None, None, None], v[None, :, None, None],
                           theta[None, None, :, None], theta[None, None, None, :])
        yield (z.z1 * np.conj(w1), z.z2 * np.conj(w2),
               z.z1 * np.conj(w1[:, :, 0, 0]), z.z2 * np.conj(w2[0, :, 0, 0]))


def factored_block(d, s0, t0, n):
    """The kernel on a (u, v, theta1, theta2) block, assembled from the
    factor tables as B = sum_i e^(-i i theta1) T_i[u, m] s0^i G_i[v, j2]
    with m = (j2 - k j1) mod n, the form the projection contracts."""
    k = d.k_int()
    rho_factor = _closed_rho_factor(d, s0, t0, n)  # (k, u, n)
    t_factor = _closed_t_factor(d, t0, n)  # (k, v, n)
    theta = angle_rule(n)[0]
    j = np.arange(n)
    m = (j - k * j[:, None]) % n  # (theta1, theta2)
    block = np.zeros(s0.shape + (n, n), dtype=complex)
    for i in range(k):
        f1 = rho_factor[i][:, m] * np.exp(-1j * i * theta)[:, None]  # (u, theta1, theta2)
        g = s0[:, :, None] ** i * t_factor[i]  # (u, v, theta2)
        block += f1[:, None] * g[..., None, :]
    return block


class TestKernelClosedGridForm:
    """The kernel assembled from its factor tables, the form through which
    the projection evaluates it on the domain core's grid, against the
    pair form; and the screens of those tables.  At criterion 4's spec
    with |z1|^k / |z2| well below 1 the projection is checked against the
    pair form under ``integrate``, in ``tests/test_projection.py``: there
    the k = 3 terms cancel about 1e4-fold at one node, where the assembled
    and pair values differ by 1.06e-13 relative to |B| (9.1e-14 and
    1.8e-14 from a 40-digit value)."""

    CRITERION_4 = QuadratureSpec(radial_nodes=6, angular_nodes=24, boundary_offset=1e-6)
    # eight angles: tables formed per block of 15, 15 and 6 of the 36 u nodes
    FEW_ANGLES = QuadratureSpec(radial_nodes=6, angular_nodes=8, boundary_offset=1e-6)

    @staticmethod
    def worst_error(d, z, spec, scale_by_bound):
        worst = 0.0
        for s, t, s0, t0 in core_blocks(d, z, spec):
            pair = kernel_closed_st(d, s, t)
            grid = factored_block(d, s0, t0, spec.angular_nodes)
            assert grid.shape == pair.shape
            scale = np.abs(pair)
            if scale_by_bound:
                scale = np.maximum(scale, kernel_bound_st(d, s, t))
            worst = max(worst, float(np.max(np.abs(grid - pair) / scale)))
        return worst

    # measured: at most 1.8e-15, 5.8e-15 and 1.3e-14 at k = 1, 2, 3
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_the_pair_form_on_blocks_of_several_u_nodes(self, k):
        d = DomainSpec(k)
        z = Point2(0.2 + 0.1j, 0.4 - 0.1j)
        assert next(core_blocks(d, z, self.FEW_ANGLES))[2].shape[0] > 1
        assert self.worst_error(d, z, self.FEW_ANGLES, False) < 1e-13

    # |z1|^k / |z2| = 0.999: |1 - rho e^(i theta_m)| reaches about 1e-3.  At
    # k >= 2 the kernel also has zeros where its k terms cancel, so the
    # error is taken against the larger of |B| and the dominating bound.
    # Measured: at most 5.4e-15, 7.2e-15 and 1.8e-14 at k = 1, 2, 3
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_the_pair_form_near_t_equal_s_to_the_k(self, k):
        z = Point2(0.3 * np.exp(0.4j), 0.3**k / 0.999 * np.exp(-0.7j))
        assert self.worst_error(DomainSpec(k), z, self.CRITERION_4, True) < 1e-13

    def test_screens_name_the_factor(self):
        d = DomainSpec(2)
        # 1 - t vanishes at theta2 = 0 when t0 is 1
        with pytest.raises(NearSingularError) as exc:
            _closed_t_factor(d, np.array([0.5, 1.0 - 1e-13]) + 0j, 6)
        assert exc.value.factor == "1-t"
        # s0^2 = t0 on u row 1: t - s^2 vanishes wherever theta2 = 2 theta1
        t0 = np.array([0.5, 0.7]) + 0j
        s0 = np.array([[0.3, 0.3], [0.5**0.5, 0.7**0.5]]) + 0j
        with pytest.raises(NearSingularError) as exc:
            _closed_rho_factor(d, s0, t0, 6)
        assert exc.value.factor == "t-s^k"
        assert exc.value.min_abs < 1e-15


class TestKernelClosedWorkspace:
    """The pair form takes no workspace: at any broadcast shape, and at
    0-d, it is bit-equal to the one-expression form."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_without_workspace_and_at_0d(self, k):
        d = DomainSpec(k)
        for seed, shape_s, shape_t in ((60 + k, (5, 3, 4, 1), (3, 1, 6)),
                                       (80 + k, (7, 1), (1, 5))):
            s, t = interior_pairs(k, shape_s, shape_t, seed)
            assert np.array_equal(kernel_closed_st(d, s, t), closed_oracle(k, s, t))
        got = kernel_closed_st(d, s[3, 0], t[0, 2])
        assert got.shape == () and got == closed_oracle(k, s[3, 0], t[0, 2])


class TestBasisIndexSet:
    def test_neg_one_always_member(self):
        for k in (1, 2, 5):
            assert MultiIndex(0, -1).in_basis(k)

    def test_neg_two_needs_large_a1(self):
        assert not MultiIndex(0, -2).in_basis(1)
        assert MultiIndex(1, -2).in_basis(1)
        assert not MultiIndex(1, -2).in_basis(2)
        assert MultiIndex(2, -2).in_basis(2)

    def test_negative_a1_excluded(self):
        assert not MultiIndex(-1, 0).in_basis(1)

    def test_weight_enumeration(self):
        idxs = basis_indices_by_weight(2, 4)
        assert all(i.in_basis(2) and i.weight(2) <= 4 for i in idxs)
        assert len(set(idxs)) == len(idxs)
        assert MultiIndex(0, -1) in idxs and MultiIndex(4, -1) in idxs
        assert MultiIndex(0, 1) in idxs


class TestKernelSeries:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_closed_form_at_point(self, k):
        d = DomainSpec(k)
        z = Point2(0.3 + 0.2j, 0.6 - 0.1j)
        w = Point2(0.25 - 0.3j, 0.5 + 0.4j)
        ref = kernel_closed(d, z, w)
        got = kernel_series(d, z, w, SeriesSpec(300, 1e-9))
        assert got.value == pytest.approx(ref, rel=1e-12)

    def test_axis_example(self):
        d = DomainSpec(1)
        z = Point2(0, 0.5)
        got = kernel_series(d, z, z, SeriesSpec(60, 1e-6))
        assert abs(got.value - 64 / (9 * math.pi**2)) / abs(got.value) < 1e-6

    def test_divergence_signal_on_tiny_truncation(self):
        d = DomainSpec(1)
        z = Point2(0.77, 0.96)  # slow decay near the boundary
        with pytest.raises(SeriesDivergenceError):
            kernel_series(d, z, z, SeriesSpec(6, 1e-12))

    def test_grid_interface_broadcasts(self):
        d = DomainSpec(2)
        s = np.array([0.0, 0.1 + 0.1j])
        t = np.array([0.25 + 0j, 0.5 + 0.1j])
        vals, shell, deg = kernel_series_st(d, s, t, SeriesSpec(200, 1e-9))
        ref = kernel_closed_st(d, s, t)
        assert np.allclose(vals, ref, rtol=1e-10)
        assert shell.shape == vals.shape and deg == 200

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SeriesSpec(-1)
        with pytest.raises(ValueError):
            SeriesSpec(10, 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_term_by_term_sum(self, k):
        # reference: every index of weight <= M summed on its own, the
        # final shell being the terms of weight exactly M in absolute value
        d, M = DomainSpec(k), 40
        s, t = interior_invariants(k, 6, 20 + k)
        vals, shell, _ = kernel_series_st(d, s, t, SeriesSpec(M))
        for i in range(s.size):
            ref, ref_shell = 0j, 0.0
            for idx in basis_indices_by_weight(k, M):
                n = idx.a2 + 1
                term = ((idx.a1 + 1) * (idx.a1 + 1 + k * n) / (k * math.pi**2)
                        * complex(s[i]) ** idx.a1 * complex(t[i]) ** idx.a2)
                ref += term
                if idx.weight(k) == M:
                    ref_shell += abs(term)
            assert abs(vals[i] - ref) <= 1e-13 * abs(ref)
            assert abs(shell[i] - ref_shell) <= 1e-13 * ref_shell

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_blocks_match_pointwise(self, k):
        # k = 1 has the widest row arrays (M + 1 rows), k = 3 the narrowest
        d, spec = DomainSpec(k), SeriesSpec(40)
        block = _SERIES_BLOCK_ELEMENTS // (spec.max_degree + 1)
        n = 2 * block + 7
        assert n % block != 0
        s, t = interior_invariants(k, n, 31)
        vals, shell, _ = kernel_series_st(d, s, t, spec)
        for i in range(n):
            v, sh, _ = kernel_series_st(d, s[i], t[i], spec)
            assert v == vals[i] and sh == shell[i]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pinned_values_at_criterion_degrees(self, k):
        # the arithmetic and its order are pinned bit for bit, since the
        # cancellation at a kernel zero rests on them; two full blocks and a
        # partial one per k, so the sliced last block is covered too
        pins = np.load(Path(__file__).parent / "data" / "series_pins.npz")
        M = 250 + 150 * k
        s, t = pins[f"s{k}"], pins[f"t{k}"]
        block = _SERIES_BLOCK_ELEMENTS // (M + 1)
        assert 2 * block < s.size < 3 * block
        vals, shell, _ = kernel_series_st(DomainSpec(k), s, t, SeriesSpec(M))
        np.testing.assert_array_equal(vals, pins[f"values{k}"])
        np.testing.assert_array_equal(shell, pins[f"shell{k}"])

    def test_workspace_leaks_nothing_between_calls(self):
        # a wider call (k = 3, M = 700) and a scalar call in between must
        # leave a repeated k = 1 call bit for bit as it was
        d1, spec1 = DomainSpec(1), SeriesSpec(400)
        s, t = interior_invariants(1, 2 * (_SERIES_BLOCK_ELEMENTS // 401) + 5, 71)
        first = kernel_series_st(d1, s, t, spec1)
        kernel_series_st(DomainSpec(3), *interior_invariants(3, 60, 72), SeriesSpec(700))
        kernel_series(DomainSpec(2), Point2(0.3 + 0.2j, 0.6 - 0.1j),
                      Point2(0.25 - 0.3j, 0.5 + 0.4j), SeriesSpec(300, 1e-9))
        again = kernel_series_st(d1, s, t, spec1)
        np.testing.assert_array_equal(again[0], first[0])
        np.testing.assert_array_equal(again[1], first[1])

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor-fault counts are read on Linux only")
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_repeat_call_makes_few_page_faults(self, k):
        # freshly allocated block temporaries let the allocator trim the heap
        # after every block and fault it in again for the next: 12000-16000
        # minor faults per call; one reused workspace makes a few hundred
        resource = pytest.importorskip("resource")
        d, spec = DomainSpec(k), SeriesSpec(250 + 150 * k)
        s, t = interior_invariants(k, 1024, 80 + k)
        kernel_series_st(d, s, t, spec)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        kernel_series_st(d, s, t, spec)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 2000

    def test_keeps_broadcast_and_scalar_shapes(self):
        d, spec = DomainSpec(2), SeriesSpec(20)
        s, t = interior_invariants(2, 32 * 32 * 8, 41)
        S, T = s.reshape(32, 32, 8, 1), t[: 32 * 8].reshape(32, 1, 1, 8)
        vals, shell, _ = kernel_series_st(d, S, T, spec)
        assert vals.shape == shell.shape == (32, 32, 8, 8)
        S_b, T_b = np.broadcast_arrays(S, T)
        flat, _, _ = kernel_series_st(d, S_b.ravel(), T_b.ravel(), spec)
        assert np.array_equal(vals.ravel(), flat)
        vals, shell, _ = kernel_series_st(d, 0.1 + 0.1j, 0.5, spec)
        assert vals.shape == shell.shape == ()

    def test_zero_of_the_kernel(self):
        # k = 3, s = 0: the numerator 2t^2 + t vanishes at t = -1/2, where
        # the rows are of order 1; the sum must cancel to the value's scale
        vals, _, _ = kernel_series_st(DomainSpec(3), 0j, -0.5 + 0j, SeriesSpec(700))
        assert abs(vals) < 1e-30

    def test_near_singular_t(self):
        d = DomainSpec(1)
        with pytest.raises(NearSingularError) as exc:
            kernel_series_st(d, np.array([0.1, 0.2]), np.array([0.3, 0.0]), SeriesSpec(40))
        assert exc.value.factor == "t" and exc.value.min_abs == 0.0
        with pytest.raises(NearSingularError):
            kernel_series_st(d, 0.0, 1e-13 + 0j, SeriesSpec(40))


class TestKernelBound:
    def test_axis_value(self):
        d = DomainSpec(1)
        z = Point2(0, 0.5)
        assert kernel_bound(d, z, z) == pytest.approx(64 / 9)

    def test_positive_and_dominates_with_constant(self):
        for k in (1, 2, 3):
            d, (z1, z2), (w1, w2) = random_pairs(k, 10_000, 21)
            s = z1 * np.conj(w1)
            t = z2 * np.conj(w2)
            bound = kernel_bound_st(d, s, t)
            assert np.all(bound > 0)
            ratio = np.abs(kernel_closed_st(d, s, t)) / bound
            # |numerator| <= (2 p_k(1) + q_k(1)) |t| since |s| < 1, |s|^k < |t|
            p1 = float(np.real(poly_p(k, 1.0)))
            q1 = float(np.real(poly_q(k, 1.0)))
            c_algebraic = (2 * p1 + q1) / (k * math.pi**2)
            empirical = float(np.max(ratio))
            print(f"k={k}: empirical |B|/bound max {empirical:.6f} "
                  f"(algebraic cap {c_algebraic:.6f})")
            assert np.all(np.isfinite(ratio))
            assert empirical <= c_algebraic * (1 + 1e-12)

    def test_polar_form_matches_closed_modulus(self):
        rng = np.random.default_rng(5)
        # x = 0 is the axis case of the Schur verifier, where only the n = 1
        # term of the numerator is nonzero
        for k, x in itertools.product((1, 2, 3), (0.0, 0.45)):
            d = DomainSpec(k)
            y = 0.7
            r1 = rng.random(200) * 0.9
            r2 = rng.random(200) * 0.9 + 0.05
            th1 = rng.random(200) * 2 * math.pi
            psi = rng.random(200) * 2 * math.pi
            s = x * r1 * np.exp(-1j * th1)
            t = y * r2 * np.exp(-1j * (psi + k * th1))
            ref = np.abs(kernel_closed_st(d, s, t))
            # pointwise evaluation: each point is a grid of one node per axis,
            # with |w1| = r1 as u = r1 / r2^(1/k)
            got = np.array([
                kernel_abs_polar(_polar_w1_factor(d, x, y, [ps], [r / v ** (1.0 / k)]),
                                 _polar_theta1_factor(d, x, y, [v], _polar_phases(k, [ps], [th])))
                for r, v, th, ps in zip(r1, r2, th1, psi)])
            assert got.shape == (200, 1, 1, 1, 1)
            assert np.max(np.abs(got.ravel() - ref) / ref) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_polar_form_on_a_4d_grid(self, k):
        # the Schur inner-stratum grid (v, psi, u, theta1): |w2| = v and
        # |w1| = u v^(1/k)
        rng = np.random.default_rng(60 + k)
        d = DomainSpec(k)
        y = 0.7
        u = rng.random(9) * 0.98
        v = rng.random(7) * 0.9 + 0.05
        th1 = 2 * math.pi * rng.random(16)
        psi = 2 * math.pi * rng.random(12)
        # at x = 0 and k >= 3 the grid holds a zero of the kernel:
        # N(0, t) = t (1 + (k-1) t) vanishes at t = -1/(k-1)
        if k > 1:
            v[0] = min(1.0 / (y * (k - 1)), 0.95)
        th1[0], psi[0] = 0.0, math.pi
        for x in (0.0, 0.45, 0.69 ** (1.0 / k)):
            got = kernel_abs_polar(_polar_w1_factor(d, x, y, psi, u),
                                   _polar_theta1_factor(d, x, y, v, _polar_phases(k, psi, th1)))
            assert got.shape == (7, 12, 9, 16)
            vg, psig = v[:, None, None, None], psi[None, :, None, None]
            r1 = u[None, None, :, None] * vg ** (1.0 / k)
            s = x * r1 * np.exp(-1j * th1)
            t = y * vg * np.exp(-1j * (psig + k * th1))
            ref = np.abs(kernel_closed_st(d, s, t))
            # where N(s, t) nearly cancels, both forms are accurate only to
            # rounding of the moduli of its separable terms
            terms = sum(np.abs(s) ** (n - 1) * np.abs(n * t + (k - n) * s**k)
                        * np.abs(n + (k - n) * t) for n in range(1, k + 1))
            scale = terms / (k * math.pi**2 * np.abs(1 - t) ** 2 * np.abs(t - s**k) ** 2)
            tol = np.maximum(1e-12 * ref, 64 * np.finfo(float).eps * scale)
            assert np.all(np.abs(got - ref) <= tol)

    @pytest.mark.parametrize("a", [0.05, 0.1])
    def test_polar_form_at_a_kernel_zero_off_the_axis(self, a):
        # k = 3, theta1 = 0: s = a is real and N(a, t) = p t^2 + q t + a^3 p
        # with p = 2 (1 + a) and q = 1 + 4a + 9a^2 + 4a^3 + a^4, so N has a
        # zero at t = -0.58217 (a = 0.05) and t = -0.67766 (a = 0.1), both
        # inside the domain on psi = pi
        k, x, y = 3, 0.45, 0.7
        d = DomainSpec(k)
        p = 2.0 * (1.0 + a)
        q = 1.0 + 4.0 * a + 9.0 * a**2 + 4.0 * a**3 + a**4
        t0 = min(np.roots([p, q, a**k * p]).real)
        v = -t0 / y
        u = a / (x * v ** (1.0 / k))
        assert 0.0 < u < 1.0 and 0.0 < v < 1.0

        def polar(psi):
            psi = np.atleast_1d(psi)
            return kernel_abs_polar(
                _polar_w1_factor(d, x, y, psi, [u]),
                _polar_theta1_factor(d, x, y, [v], _polar_phases(k, psi, [0.0])))[0, :, 0, 0]

        # at a = 0.05 the squared modulus rounds to about -2e-21 at the zero
        # and is clamped to 0 before its square root
        at_zero = polar(math.pi)
        assert np.isfinite(at_zero).all() and (at_zero >= 0.0).all()
        near = polar(math.pi + np.linspace(-1e-7, 1e-7, 41))
        assert np.isfinite(near).all() and (near >= 0.0).all()
        # the square is accurate to c k^2 eps scale^2 with scale the sum of
        # the term moduli, so the modulus to the square root of that; c = 1
        # bounds the rounding of the k^2-term product, and near these zeros
        # c = 5e-3 was the largest seen
        c = 1.0
        offsets = 10.0 ** -np.arange(4, 9)
        psi = math.pi + np.concatenate((offsets, -offsets))
        got = polar(psi)
        s = a + 0j
        t = y * v * np.exp(-1j * psi)
        ref = np.abs(kernel_closed_st(d, s, t))
        terms = sum(np.abs(s) ** (n - 1) * np.abs(n * t + (k - n) * s**k)
                    * np.abs(n + (k - n) * t) for n in range(1, k + 1))
        scale = terms / (k * math.pi**2 * np.abs(1 - t) ** 2 * np.abs(t - s**k) ** 2)
        q_err = c * k**2 * np.finfo(float).eps * scale**2
        assert np.all(np.abs(got - ref) <= np.sqrt(q_err) + 1e-12 * ref)
