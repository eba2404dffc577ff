"""Tests for moments, core quadrature, and the disc engine."""

import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special as sp_special

from fathartogs import analysis, quadrature
from fathartogs.geometry import DomainSpec, Point2, boundary_ladder
from fathartogs.projection import project_numeric
from fathartogs.quadrature import (
    DivergentIntegralError,
    _gauss_jacobi,
    _legendre01,
    QuadratureSpec,
    angle_rule,
    disc_kernel_moment,
    gauss_rule,
    graded_breaks,
    graded_rule,
    integrate,
    panel_rule,
    radial_moment,
    tensor_sum,
)


class TestQuadratureSpec:
    def test_defaults_valid(self):
        QuadratureSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radial_nodes": 1},
            {"angular_nodes": 1},
            {"boundary_offset": 0.0},
            {"boundary_offset": 0.7},
            {"boundary_offset": 0.5},
            {"boundary_offset": math.nan},
            # the core's u rule cannot grade [0.75, 1 - offset] from 0.25 on
            {"boundary_offset": 0.25},
            {"boundary_offset": 0.3},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestRadialMoment:
    def test_zero_moment_is_volume(self):
        from fathartogs.geometry import volume

        for k in (1.0, 2.0, 3.5):
            d = DomainSpec(k)
            assert radial_moment(d, 0, 0) == pytest.approx(volume(d), rel=1e-15)

    def test_inverse_square_values(self):
        assert radial_moment(DomainSpec(1), 0, -2) == pytest.approx(math.pi**2)
        assert radial_moment(DomainSpec(2), 0, -2) == pytest.approx(2 * math.pi**2)

    @pytest.mark.parametrize(
        "k,m1,m2",
        [(1, 0.0, 2.0), (1, 2.0, -1.0), (2, 1.5, -2.3), (3, -1.2, 0.7), (2.5, 0.0, -2.5)],
    )
    def test_against_numerical_quadrature(self, k, m1, m2):
        d = DomainSpec(k)
        val, err = sp_integrate.dblquad(
            lambda r1, r2: 4 * math.pi**2 * r1 ** (m1 + 1) * r2 ** (m2 + 1),
            0.0,
            1.0,
            0.0,
            lambda r2: r2 ** (1.0 / k),
        )
        assert radial_moment(d, m1, m2) == pytest.approx(val, rel=1e-8)

    def test_divergence_errors_name_inequality(self):
        with pytest.raises(DivergentIntegralError, match="m1"):
            radial_moment(DomainSpec(1), -2.0, 0.0)
        with pytest.raises(DivergentIntegralError, match="m2"):
            radial_moment(DomainSpec(2), 0.0, -3.0)

    def test_monotone_decreasing(self):
        d = DomainSpec(2)
        for m1 in np.linspace(-1.0, 3.0, 7):
            vals = [radial_moment(d, m1, m2) for m2 in np.linspace(-1.0, 3.0, 7)]
            assert all(b < a for a, b in zip(vals, vals[1:]))
        for m2 in np.linspace(-1.0, 3.0, 7):
            vals = [radial_moment(d, m1, m2) for m1 in np.linspace(-1.0, 3.0, 7)]
            assert all(b < a for a, b in zip(vals, vals[1:]))


class TestTensorIntegrate:
    def test_constant_recovers_volume_as_offset_shrinks(self):
        from fathartogs.geometry import volume

        d = DomainSpec(2)
        errs = []
        for delta in (1e-2, 1e-4, 1e-6):
            spec = QuadratureSpec(radial_nodes=8, angular_nodes=8, boundary_offset=delta)
            res = integrate(d, lambda z1, z2: np.ones(()), spec)
            errs.append(abs(res - volume(d)))
        # the core deficit is linear in the offset (about 5 delta relative)
        assert errs[2] < 1e-2 * errs[0] and errs[2] < 5e-5

    def test_singular_monomial_example(self):
        d = DomainSpec(1)
        spec = QuadratureSpec(radial_nodes=8, angular_nodes=8, boundary_offset=1e-6)
        res = integrate(d, lambda z1, z2: np.abs(z1) ** 2 / np.abs(z2), spec)
        assert res == pytest.approx(radial_moment(d, 2, -1), rel=1e-4)

    def test_monomial_exactness_when_nodes_saturate(self):
        spec = QuadratureSpec(radial_nodes=14, angular_nodes=8, boundary_offset=1e-10)
        for k, m1, m2 in [(1, 2.0, -1.0), (2, 1.0, 0.5), (2, 0.0, -1.0), (3, 2.5, 1.0)]:
            d = DomainSpec(k)
            res = integrate(
                d, lambda z1, z2, m1=m1, m2=m2: np.abs(z1) ** m1 * np.abs(z2) ** m2, spec
            )
            assert abs(res - radial_moment(d, m1, m2)) < 1e-8 * radial_moment(d, m1, m2)

    def test_linearity(self):
        d = DomainSpec(2)
        spec = QuadratureSpec(radial_nodes=6, angular_nodes=8, boundary_offset=1e-5)
        f = lambda z1, z2: np.abs(z1) ** 2
        g = lambda z1, z2: np.abs(z2) ** 2
        combo = integrate(d, lambda z1, z2: 2 * f(z1, z2) - 3 * g(z1, z2), spec)
        parts = 2 * integrate(d, f, spec) - 3 * integrate(d, g, spec)
        assert combo == pytest.approx(parts, rel=1e-12)

    def test_real_unless_the_imaginary_part_is_more_than_rounding(self):
        d = DomainSpec(2)
        spec = QuadratureSpec(radial_nodes=8, angular_nodes=8, boundary_offset=1e-6)
        # the imaginary part of z2 * conj(z2) is rounding
        assert type(integrate(d, lambda z1, z2: z2 * np.conj(z2), spec)) is float
        value = integrate(d, lambda z1, z2: (1 + 2j) * np.abs(z2) ** 2, spec)
        assert type(value) is complex
        assert value.imag == pytest.approx(2 * value.real, rel=1e-12)

    def test_agrees_with_radial_moment_on_random_monomials(self):
        rng = np.random.default_rng(12)
        d = DomainSpec(2)
        spec = QuadratureSpec(radial_nodes=10, angular_nodes=8, boundary_offset=1e-6)
        for _ in range(20):
            m1 = rng.uniform(0.0, 3.0)
            m2 = rng.uniform(-1.0, 3.0)
            f = lambda z1, z2, m1=m1, m2=m2: np.abs(z1) ** m1 * np.abs(z2) ** m2
            res = integrate(d, f, spec)
            exact = radial_moment(d, m1, m2)
            # the worst of these draws is 1.2e-5 relative
            assert abs(res - exact) < 1e-4 * exact

    def test_project_numeric_calls_integrate_once_without_keywords(self, monkeypatch):
        from fathartogs import projection

        seen = []
        real = projection.integrate

        def recording(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(projection, "integrate", recording)
        d = DomainSpec(1)
        spec = QuadratureSpec(radial_nodes=6, angular_nodes=6, boundary_offset=1e-4)
        z = Point2(0.1 + 0j, 0.5 + 0j)
        value = project_numeric(d, lambda w1, w2: np.conj(w2), z, spec)
        assert seen == [{}]
        monkeypatch.setattr(projection, "integrate", real)
        assert project_numeric(d, lambda w1, w2: np.conj(w2), z, spec) == value


class TestTensorSum:
    AXES = (gauss_rule(0.0, 1.0, 7), gauss_rule(0.5, 2.0, 5), angle_rule(6))

    @staticmethod
    def f(x, y, t):
        return np.exp(1j * t) * np.cos(x * y) + x / y

    def test_blocks_agree_with_one_block(self, monkeypatch):
        sizes = [x.size for x, _ in self.AXES]
        rest = math.prod(sizes[1:])
        calls = []

        def counted(*nodes):
            calls.append(nodes[0].size)
            return self.f(*nodes)

        monkeypatch.setattr(quadrature, "_TENSOR_BLOCK_ENTRIES", 10**9)
        whole = tensor_sum(self.AXES, self.f)
        monkeypatch.setattr(quadrature, "_TENSOR_BLOCK_ENTRIES", 2 * rest)
        blocked = tensor_sum(self.AXES, counted)
        assert calls == [2] * (sizes[0] // 2) + [1] * (sizes[0] % 2)
        assert abs(blocked - whole) <= 1e-15 * abs(whole)

    def test_one_block_is_the_plain_weighted_sum(self, monkeypatch):
        (x, wx), (y, wy), (t, wt) = self.AXES
        grid = self.f(x[:, None, None], y[None, :, None], t[None, None, :])
        # the contraction written out: each (x, y) row summed against the
        # weights past axis 1 (here wt alone), then against wy and wx
        sums = np.einsum("ijk,k->ij", grid, wt.astype(complex))
        monkeypatch.setattr(quadrature, "_TENSOR_BLOCK_ENTRIES", 10**9)
        got = tensor_sum(self.AXES, self.f)
        assert got == 0.0 + np.einsum("i,i->", wx, np.einsum("ij,j->i", sums, wy))
        # and it is the plain weighted sum up to rounding
        terms = grid * np.multiply.outer(np.outer(wx, wy), wt)
        assert abs(got - np.sum(terms)) <= 4 * np.finfo(float).eps * np.sum(np.abs(terms))

    @pytest.mark.parametrize("entries", [10**9, 6], ids=["one_block", "node_blocks"])
    def test_integrands_of_some_axes_broadcast(self, entries, monkeypatch):
        monkeypatch.setattr(quadrature, "_TENSOR_BLOCK_ENTRIES", entries)
        (x, wx), (y, wy), (t, wt) = self.AXES
        sx, sy, st = wx.sum(), wy.sum(), wt.sum()
        sx1, sy1 = wx @ x, wy @ y
        cases = [
            (lambda x, y, t: x, sx1 * sy * st),
            (lambda x, y, t: 3, 3 * sx * sy * st),  # 0-d and integer
            (lambda x, y, t: x * y, sx1 * sy1 * st),
            (lambda x, y, t: x + 1j * y, (sx1 * sy + 1j * sx * sy1) * st),
        ]
        for f, want in cases:
            got = tensor_sum(self.AXES, f)
            assert abs(got - want) <= 1e-14 * abs(want)
            assert isinstance(got, complex) == isinstance(want, complex)

    def test_integrand_errors_reach_the_caller_unchanged(self, monkeypatch):
        x = self.AXES[0][0]
        rest = self.AXES[1][0].size * self.AXES[2][0].size
        monkeypatch.setattr(quadrature, "_TENSOR_BLOCK_ENTRIES", 2 * rest)
        err = FloatingPointError("boom")

        def bad(xx, y, t):
            if np.any(xx == x[4]):
                raise err
            return self.f(xx, y, t)

        with pytest.raises(FloatingPointError) as got:
            tensor_sum(self.AXES, bad)
        assert got.value is err and got.value.__context__ is None

    def test_sums_do_not_depend_on_the_blas_thread_count(self):
        # a BLAS contraction over the flattened block (vals @ rest) moved
        # the last bits of this projection value between 1 and 2 threads;
        # reports must be byte-deterministic.  The inner-stratum Schur
        # values sum the kernel's k terms as a real BLAS product of inner
        # dimension 2k.  The monomial projection path contracts its DFT
        # tables in np.einsum's own loops
        code = (
            "from fathartogs import analysis\n"
            "from fathartogs.geometry import DomainSpec, Point2, boundary_ladder\n"
            "from fathartogs.kernel import MultiIndex\n"
            "from fathartogs.projection import MonomialInput, project_numeric\n"
            "from fathartogs.quadrature import QuadratureSpec\n"
            "for k in (2, 3):\n"
            "    d = DomainSpec(k)\n"
            "    z = boundary_ladder(d, 'inner', 8)[-1]\n"
            "    delta = analysis._edge_exponent(k, 0.75)\n"
            "    print(repr(analysis._schur_value(d, z, 0.75, delta, analysis._V0_WORK_FULL)))\n"
            "d = DomainSpec(2)\n"
            "spec = QuadratureSpec(radial_nodes=6, angular_nodes=24, boundary_offset=1e-6)\n"
            "z = Point2(0.2 + 0.1j, 0.4 - 0.1j)\n"
            "print(repr(project_numeric(d, lambda w1, w2: w1 * w2 ** 2, z, spec)))\n"
            "m = MonomialInput(MultiIndex(1, 2), MultiIndex(0, 0))\n"
            "print(repr(project_numeric(d, m, z, spec)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (src, os.environ.get("PYTHONPATH")) if p))
            outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True, timeout=120).stdout)
        assert outs[0] == outs[1]


def _traced_peak_mib(call) -> float:
    """Peak of the Python and numpy allocations made by one warm call."""
    call()  # rule caches and lazy imports belong to the first call only
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestTensorBlockMemory:
    """Both 4-d integrals hold one block of their grid at a time; blocks
    of 3-4 M entries peaked at 86-117 MiB in these calls."""

    LIMIT_MIB = 16.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_projection_at_criterion_4_spec(self, k):
        d = DomainSpec(k)
        spec = QuadratureSpec(radial_nodes=6, angular_nodes=24, boundary_offset=1e-6)
        z = Point2(0.2 + 0.1j, 0.4 - 0.1j)
        peak = _traced_peak_mib(lambda: project_numeric(d, lambda w1, w2: w1 * w2, z, spec))
        assert peak < self.LIMIT_MIB

    # one kernel workspace serves every block, and the integrand multiplies
    # into it: 2.10 MiB at both k, against 2.63 and 3.06 MiB when each
    # block allocated its own kernel temporaries
    @pytest.mark.parametrize("k", [1, 2])
    def test_projection_reuses_one_kernel_workspace(self, k):
        d = DomainSpec(k)
        spec = QuadratureSpec(radial_nodes=6, angular_nodes=24, boundary_offset=1e-6)
        z = Point2(0.2 + 0.1j, 0.4 - 0.1j)
        peak = _traced_peak_mib(lambda: project_numeric(d, lambda w1, w2: w1 * w2, z, spec))
        assert peak < 2.5

    # the theta1-side factor is formed in place once per chunk of v nodes,
    # and every block is written into one buffer: 2.82, 2.59 and 2.36 MiB
    # at k = 2, 3 and 4, against 2.89, 2.86 and 2.96 MiB when each block
    # formed its factor and product anew.  Chunks of a fixed 4 v nodes,
    # 1.75x the entry budget at k = 4, read 3.13 MiB there.  With the
    # factor formed by concatenation, chunks read 3.56 and 3.24 MiB at
    # k = 2 and 3, and fixed 4-node chunks 3.24 and 4.48 MiB at k = 3, 4
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_schur_inner_stratum_reuses_one_block_buffer(self, k):
        d = DomainSpec(k)
        z = boundary_ladder(d, "inner", 8)[-1]
        delta = analysis._edge_exponent(k, 0.75)
        peak = _traced_peak_mib(lambda: analysis._schur_value(d, z, 0.75, delta, 1e-8))
        assert peak < 3.0

    # with block temporaries freed and allocated again, ten warm calls took
    # 5.6k-77k minor page faults, by where the heap happened to stand; with
    # one workspace, a few hundred in either layout
    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="counts glibc's page faults")
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("live_objects", [0, 4])
    def test_projection_page_faults_do_not_follow_the_heap_layout(self, k, live_objects):
        code = (
            "import resource\n"
            "from fathartogs.geometry import DomainSpec, Point2\n"
            "from fathartogs.projection import project_numeric\n"
            "from fathartogs.quadrature import QuadratureSpec\n"
            f"d = DomainSpec({k})\n"
            "spec = QuadratureSpec(radial_nodes=6, angular_nodes=24, boundary_offset=1e-6)\n"
            "z = Point2(0.2 + 0.1j, 0.4 - 0.1j)\n"
            "f = lambda w1, w2: w1 * w2\n"
            "project_numeric(d, f, z, spec)\n"
            f"live = [bytearray(1 << 16) for _ in range({live_objects})]\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(10):\n"
            "    project_numeric(d, f, z, spec)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert int(out) < 5000

    # the kernel's k terms live on 3-d sub-grids and one matrix product
    # sums them, so a block holds its complex product and modulus, not k
    # full-grid terms
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_schur_inner_stratum(self, k):
        d = DomainSpec(k)
        z = boundary_ladder(d, "inner", 8)[-1]
        delta = analysis._edge_exponent(k, 0.75)
        peak = _traced_peak_mib(lambda: analysis._schur_value(
            d, z, 0.75, delta, analysis._V0_WORK_FULL))
        assert peak < self.LIMIT_MIB


class TestDiscIntegral:
    def test_center_values(self):
        spec = QuadratureSpec(radial_nodes=12, angular_nodes=24)
        assert disc_kernel_moment(0.0, 0.5, 0.0, spec) == pytest.approx(2 * math.pi, rel=1e-9)
        assert disc_kernel_moment(0.0, 0.5, 1.0, spec) == pytest.approx(math.pi**2, rel=1e-9)

    def test_center_value_against_1d_quadrature(self):
        # I(0) = 2 pi int_0^1 r^(1-beta) (1-r^2)^(-eps) dr for any eps, beta
        spec = QuadratureSpec(radial_nodes=12, angular_nodes=24)
        for eps, beta in [(0.3, 0.0), (0.7, 1.5)]:
            ref, _ = sp_integrate.quad(
                lambda r: 2 * math.pi * r ** (1 - beta) * (1 - r * r) ** (-eps), 0, 1
            )
            assert disc_kernel_moment(0.0, eps, beta, spec) == pytest.approx(ref, rel=1e-8)

    def test_growth_matches_eps_power(self):
        spec = QuadratureSpec(radial_nodes=12, angular_nodes=32)
        eps = 0.5
        deltas, vals = [], []
        for j in range(4, 11):
            a = 1.0 - 2.0**-j
            deltas.append(1 - a * a)
            vals.append(disc_kernel_moment(a, eps, 0.0, spec))
        slope = np.polyfit(np.log(deltas[2:]), np.log(vals[2:]), 1)[0]
        assert abs(-slope - eps) < 0.1 * eps

    def test_parameter_rejection(self):
        spec = QuadratureSpec()
        with pytest.raises(DivergentIntegralError):
            disc_kernel_moment(0.0, -0.1, 0.0, spec)
        with pytest.raises(DivergentIntegralError):
            disc_kernel_moment(0.0, 1.0, 0.0, spec)
        with pytest.raises(DivergentIntegralError):
            disc_kernel_moment(0.0, 0.5, 2.0, spec)
        with pytest.raises(ValueError):
            disc_kernel_moment(1.0, 0.5, 0.0, spec)

    @pytest.mark.parametrize("nodes, least", [((5, 24), "6 radial"), ((6, 23), "24 angular")])
    def test_node_counts_below_the_minimum_are_rejected(self, nodes, least):
        spec = QuadratureSpec(radial_nodes=nodes[0], angular_nodes=nodes[1])
        with pytest.raises(ValueError, match=least):
            disc_kernel_moment(0.5, 0.5, 0.0, spec)

    def test_poisson_identity_weight_free(self):
        # int_D |1 - a conj(w)|^-2 dV = (pi/a^2) log(1/(1-a^2))
        spec = QuadratureSpec(radial_nodes=12, angular_nodes=32)
        for a in (0.3, 0.9, 0.99):
            exact = math.pi / a**2 * math.log(1.0 / (1.0 - a * a))
            assert disc_kernel_moment(a, 0.0, 0.0, spec) == pytest.approx(exact, rel=2e-6)


class TestGradedBreaks:
    def test_endpoints_and_monotone(self):
        br = graded_breaks(0.0, 1.0, toward="upper", floor=1e-6, ratio=4.0)
        assert br[0] == 0.0 and br[-1] == 1.0
        assert np.all(np.diff(br) > 0)
        widths = np.diff(br)
        assert widths[-1] <= 1e-6 * 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            graded_breaks(1.0, 0.0, toward="upper", floor=1e-3)
        with pytest.raises(ValueError):
            graded_breaks(0.0, 1.0, toward="middle", floor=1e-3)


class TestGradedRule:
    @pytest.mark.parametrize("delta", [0.5, 0.9, 0.99])
    def test_edge_weight_folded_in(self, delta):
        # int_0^1 (1-x)^(-delta) dx = 1/(1-delta), from the weights alone
        x, w = graded_rule(0.0, 1.0, 16, toward="upper", floor=1e-3, edge=-delta)
        assert np.all(np.diff(x) > 0) and 0.0 < x[0] and x[-1] < 1.0
        assert np.sum(w) == pytest.approx(1.0 / (1.0 - delta), rel=1e-12)

    @pytest.mark.parametrize("toward", ["lower", "upper"])
    def test_without_edge_is_the_panel_rule(self, toward):
        x, w = graded_rule(0.1, 2.0, 6, toward=toward, floor=1e-4, ratio=8.0)
        xp, wp = panel_rule(graded_breaks(0.1, 2.0, toward=toward, floor=1e-4, ratio=8.0), 6)
        assert np.array_equal(x, xp) and np.array_equal(w, wp)


class TestGaussRules:
    @pytest.mark.parametrize("e", [-0.99, -0.9, -0.5, -0.05, 0.0, 0.3, 0.9])
    @pytest.mark.parametrize("end", ["upper", "lower"])
    def test_jacobi_exact_moments(self, e, end):
        # int (1-x)^a (1+x)^b ((1+x)/2)^m dx = 2^(a+b+1) B(a+1, b+m+1),
        # exact for m < 2n
        a, b = (e, 0.0) if end == "upper" else (0.0, e)
        for n in range(1, 41):
            x, w = _gauss_jacobi(n, a, b)
            m = np.arange(2 * n)
            exact = 2.0 ** (a + b + 1.0) * sp_special.beta(a + 1.0, b + m + 1.0)
            got = ((1.0 + x[None, :]) / 2.0) ** m[:, None] @ w
            assert np.max(np.abs(got / exact - 1.0)) < 1e-11, n

    @pytest.mark.parametrize("a, b", [(-0.9, 0.0), (0.0, -0.5), (0.75, 0.0), (0.0, 0.0)])
    def test_jacobi_agrees_with_scipy(self, a, b):
        # scipy's own weights drift by up to 3.6e-10 relative at n = 40
        # (exact-moment check), hence the looser weight bound
        for n in range(1, 41):
            x, w = _gauss_jacobi(n, a, b)
            xs, ws = sp_special.roots_jacobi(n, a, b)
            assert np.allclose(x, xs, rtol=0.0, atol=1e-13), n
            assert np.allclose(w, ws, rtol=1e-9, atol=0.0), n

    def test_legendre_exact_to_degree_2n_minus_1(self):
        # int_0^1 x^m dx = 1/(m+1)
        for n in range(1, 41):
            x, w = _legendre01(n)
            m = np.arange(2 * n)
            got = x[None, :] ** m[:, None] @ w
            assert np.max(np.abs(got * (m + 1) - 1.0)) < 1e-12, n

    @pytest.mark.parametrize("rule", [lambda: _legendre01(4),
                                      lambda: _gauss_jacobi(4, 0.5, 0.0)],
                             ids=["legendre", "jacobi"])
    def test_cached_rules_are_read_only(self, rule):
        # every caller shares the cached arrays
        for arr in rule():
            with pytest.raises(ValueError):
                arr[0] = 0.0
