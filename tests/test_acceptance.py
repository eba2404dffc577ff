"""Acceptance suite: every headline capability at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (run with ``pytest -s`` to
see them all).  The criteria:

 1. closed-form vs series kernel agreement on a compact grid, k = 1..3;
 2. exact k = 1 specialization of the kernel;
 3. Hermitian symmetry and diagonal positivity of the kernel;
 4. reproducing property of the numerical projection
    (``project_numeric`` of a ``MonomialInput``), basis weight <= 6;
 5. projection of conj(z2) equals z2^(-1)/(k+1) on both paths
    (``project_monomial`` and ``project_numeric``);
 6. exact sharp-range algebra and its Schur-window factorization;
 7. divergence scan: empirical critical exponent and growth exponents;
 8. Schur verification sweep: bounded inside the stated exponent
    window, growing beyond it;
 9. disc-level estimates: weighted plateaus and the -log(delta) law;
10. closed-form volume and radial moments against >= 10^7-sample
    Monte Carlo.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fathartogs.analysis import (
    SchurConfig,
    VERDICT_CONSISTENT,
    VERDICT_VIOLATED,
    critical_range,
    divergence_scan,
    schur_range,
    verify_calculus1,
    verify_disc_log,
    verify_schur,
)
from fathartogs.geometry import DomainSpec, Point2, sample_uniform, volume
from fathartogs.kernel import (
    SeriesSpec,
    basis_indices_by_weight,
    kernel_closed_st,
    kernel_series_st,
)
from fathartogs.projection import MonomialInput, project_monomial, project_numeric
from fathartogs.kernel import MultiIndex
from fathartogs.quadrature import QuadratureSpec, angle_rule, radial_moment


def check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ----------------------------------------------------------------------
# 1. kernel two-path agreement

@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_1_kernel_two_paths(k):
    t0 = time.perf_counter()
    d = DomainSpec(k)
    t_abs = np.linspace(0.05, 0.8, 16)
    ratio = np.linspace(0.0, 0.8, 16)
    th, _ = angle_rule(8)
    T = t_abs[:, None, None, None] * np.exp(1j * th[None, None, None, :])
    s_abs = (ratio[None, :, None, None] * t_abs[:, None, None, None]) ** (1.0 / k)
    S = s_abs * np.exp(1j * th[None, None, :, None])
    closed = kernel_closed_st(d, S, T)
    series, _, _ = kernel_series_st(d, S, T, SeriesSpec(max_degree=250 + 150 * k))
    max_rel = float(np.max(np.abs(closed - series) / np.abs(closed)))
    elapsed = time.perf_counter() - t0
    check(
        f"criterion 1 (k={k})",
        max_rel < 1e-6 and elapsed < 60.0,
        f"16x16x8x8 grid, max rel err {max_rel:.2e} (tol 1e-6), {elapsed:.1f}s (< 60s)",
    )


# ----------------------------------------------------------------------
# 2. k = 1 specialization

def test_criterion_2_k1_specialization():
    d = DomainSpec(1)
    z1, z2 = sample_uniform(d, 10_000, seed=101)
    w1, w2 = sample_uniform(d, 10_000, seed=102)
    s = z1 * np.conj(w1)
    t = z2 * np.conj(w2)
    ref = t / (math.pi**2 * (1 - t) ** 2 * (t - s) ** 2)
    got = kernel_closed_st(d, s, t)
    max_rel = float(np.max(np.abs(got - ref) / np.abs(ref)))
    check(
        "criterion 2",
        max_rel < 1e-12,
        f"10^4 random pairs, closed form vs t/(pi^2 (1-t)^2 (t-s)^2): {max_rel:.2e}",
    )


# ----------------------------------------------------------------------
# 3. Hermitian symmetry and diagonal positivity

@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_3_symmetry_positivity(k):
    d = DomainSpec(k)
    z1, z2 = sample_uniform(d, 10_000, seed=11 * k)
    w1, w2 = sample_uniform(d, 10_000, seed=11 * k + 1)
    fwd = kernel_closed_st(d, z1 * np.conj(w1), z2 * np.conj(w2))
    bwd = kernel_closed_st(d, w1 * np.conj(z1), w2 * np.conj(z2))
    herm = float(np.max(np.abs(fwd - np.conj(bwd)) / np.abs(fwd)))
    # on the diagonal the invariants are exactly |z1|^2 and |z2|^2
    diag = kernel_closed_st(d, np.abs(z1) ** 2 + 0j, np.abs(z2) ** 2 + 0j)
    pos = bool(np.all(diag.real > 0))
    imag_rel = float(np.max(np.abs(diag.imag) / diag.real))
    check(
        f"criterion 3 (k={k})",
        herm < 1e-12 and pos and imag_rel < 1e-12,
        f"hermitian dev {herm:.1e}, diagonal real>0 ({pos}), imag/real {imag_rel:.1e}",
    )


# ----------------------------------------------------------------------
# 4. reproducing property

def _interior_test_points(d, n, seed):
    z1s, z2s = sample_uniform(d, 10_000, seed)
    pts = []
    for a, b in zip(z1s, z2s):
        if 0.25 <= abs(b) <= 0.55 and abs(a) ** d.k <= 0.5 * abs(b) and abs(a) >= 0.05:
            pts.append(Point2(complex(a), complex(b)))
        if len(pts) == n:
            break
    assert len(pts) == n
    return pts


@pytest.mark.parametrize("k", [1, 2])
def test_criterion_4_reproducing(k):
    t0 = time.perf_counter()
    d = DomainSpec(k)
    spec = QuadratureSpec(radial_nodes=6, angular_nodes=24, boundary_offset=1e-6)
    pts = _interior_test_points(d, 10, seed=2024 + k)
    worst = 0.0
    worst_at = None
    for alpha in basis_indices_by_weight(k, 6):
        m = MonomialInput(alpha, MultiIndex(0, 0))
        for z in pts:
            got = project_numeric(d, m, z, spec)
            want = z.z1**alpha.a1 * z.z2**alpha.a2
            rel = abs(got - want) / abs(want)
            if rel > worst:
                worst, worst_at = rel, alpha
    elapsed = time.perf_counter() - t0
    check(
        f"criterion 4 (k={k})",
        worst < 1e-4,
        f"all weight<=6 basis monomials at 10 interior points: worst rel "
        f"{worst:.2e} at {worst_at} (tol 1e-4), {elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# 5. projection of conj(z2), both paths

@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_5_zbar2(k):
    d = DomainSpec(k)
    m = MonomialInput(MultiIndex(0, 0), MultiIndex(0, 1))
    res = project_monomial(d, m)
    exact_ok = (
        res is not None
        and (res.index.a1, res.index.a2) == (0, -1)
        and abs(res.coeff - 1.0 / (k + 1)) < 1e-12
    )
    spec = QuadratureSpec(radial_nodes=6, angular_nodes=24, boundary_offset=1e-6)
    worst = 0.0
    for z in (Point2(0.1, 0.45), Point2(0.3, 0.6)):
        got = project_numeric(d, m, z, spec)
        want = 1.0 / ((k + 1) * z.z2)
        worst = max(worst, abs(got - want) / abs(want))
    check(
        f"criterion 5 (k={k})",
        exact_ok and worst < 1e-4,
        f"exact coeff 1/(k+1)={1/(k+1):.6f} ok={exact_ok}; numeric path rel {worst:.2e}",
    )


# ----------------------------------------------------------------------
# 6. sharp-range algebra

def test_criterion_6_range_algebra():
    ok = True
    for k in range(1, 21):
        crit = critical_range(DomainSpec(k))
        window = schur_range(Fraction(1, 2), Fraction(k + 2, 2 * k))
        ok = ok and crit.p_low == window.p_low and crit.p_high == window.p_high
        ok = ok and crit.conjugacy_defect() == 0
    k1 = critical_range(DomainSpec(1))
    ok = ok and k1.p_low == Fraction(4, 3) and k1.p_high == Fraction(4)
    check(
        "criterion 6",
        ok,
        "critical range == Schur window (exact rationals, k=1..20), "
        "endpoints conjugate, k=1 gives (4/3, 4)",
    )


# ----------------------------------------------------------------------
# 7. divergence scan

@pytest.mark.parametrize("k", [1.0, 2.0, 1.5])
def test_criterion_7_divergence_scan(k):
    t0 = time.perf_counter()
    d = DomainSpec(k)
    p_c = 2.0 + 2.0 / k
    deltas = np.geomspace(1e-2, 1e-10, 9)
    rep = divergence_scan(d, [p_c + 0.5, p_c + 1.0], deltas)
    rel_crit = rep.parameters["p_critical_rel_err"]
    slope_errs = [r["exponent_rel_err"] for r in rep.parameters["grid_rows"]]
    elapsed = time.perf_counter() - t0
    check(
        f"criterion 7 (k={k})",
        rel_crit < 0.02 and all(e < 0.05 for e in slope_errs) and elapsed < 300.0,
        f"empirical critical {rep.parameters['p_critical_empirical']:.4f} vs "
        f"{p_c:.4f} ({rel_crit:.2%}, tol 2%); growth exponents off by "
        f"{max(slope_errs):.2%} (tol 5%); {elapsed:.1f}s (< 5 min)",
    )


# ----------------------------------------------------------------------
# 8. Schur verification sweep

def _schur_sweep(k):
    b = (k + 2) / (2 * k)
    eps_values = [0.5, (0.5 + b) / 2, b - 0.05, b + 0.1]
    expected = ["bounded", "bounded", "bounded", "growing"]
    return list(zip(eps_values, expected))


@pytest.mark.parametrize(
    "k,eps,expected",
    [(k, e, x) for k in (1, 2) for e, x in _schur_sweep(k)],
)
def test_criterion_8_schur_sweep(k, eps, expected):
    d = DomainSpec(k)
    rep = verify_schur(d, SchurConfig(eps=eps, ladder_levels=10))
    got = "bounded" if rep.verdict == VERDICT_CONSISTENT else (
        "growing" if rep.verdict == VERDICT_VIOLATED else "inconclusive"
    )
    check(
        f"criterion 8 (k={k}, eps={eps:.3f})",
        got == expected,
        f"verdict {got} (want {expected}); window [1/2, {(k + 2) / (2 * k):.3f})",
    )


# ----------------------------------------------------------------------
# 9. disc-level estimates

@pytest.mark.parametrize("eps,beta", [(0.3, 0.0), (0.5, 1.0), (0.9, 1.9)])
def test_criterion_9_weighted_plateaus(eps, beta):
    rep = verify_calculus1(eps, beta, levels=14,
                           quad=QuadratureSpec(radial_nodes=12, angular_nodes=32))
    prods = [s["product"] for s in rep.samples if s["abs_z"] > 0]
    diffs = [abs(b / a - 1) for a, b in zip(prods[-3:], prods[-2:])]
    check(
        f"criterion 9 plateau (eps={eps}, beta={beta})",
        rep.verdict == VERDICT_CONSISTENT,
        f"plateau {prods[-1]:.4f}, last diffs {[f'{x:.2%}' for x in diffs]} (tol 2%)",
    )


def test_criterion_9_disc_log_law():
    rep = verify_disc_log(levels=12,
                          quad=QuadratureSpec(radial_nodes=12, angular_nodes=32))
    slope_rel = abs(rep.parameters["log_law_slope_over_pi"] - 1.0)
    wexp_rel = abs(rep.fitted_exponent / -0.5 - 1.0)
    check(
        "criterion 9 log law",
        rep.verdict == VERDICT_CONSISTENT and slope_rel < 0.10 and wexp_rel < 0.10,
        f"slope/pi off by {slope_rel:.2%}, weighted exponent off by {wexp_rel:.2%} "
        "(tol 10%)",
    )


# ----------------------------------------------------------------------
# 10. Monte Carlo oracles for the closed forms

def _admissible_moments(k, rng, count):
    out = []
    while len(out) < count:
        m1 = rng.uniform(-0.8, 3.0)
        m2 = rng.uniform(-2.5, 3.0)
        # finite-variance guard: the squared integrand must be integrable
        # with margin, else the 3-sigma band is meaningless
        if 2 * m2 + 2 + (2 * m1 + 2) / k > 0.4:
            out.append((m1, m2))
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_criterion_10_monte_carlo_oracles(k):
    n = 10_000_000
    d = DomainSpec(k)
    rng = np.random.default_rng(5150 + k)
    r1 = np.sqrt(rng.random(n))
    r2 = np.sqrt(rng.random(n))
    accept = r1**k < r2
    p_hat = float(np.mean(accept))
    vol_est = math.pi**2 * p_hat
    vol_sigma = math.pi**2 * math.sqrt(p_hat * (1 - p_hat) / n)
    vol_z = abs(vol_est - volume(d)) / vol_sigma
    ok = vol_z < 3.0
    details = [f"volume z={vol_z:.2f}"]
    for m1, m2 in _admissible_moments(k, rng, 5):
        g = np.where(accept, r1**m1 * r2**m2, 0.0)
        est = math.pi**2 * float(np.mean(g))
        sigma = math.pi**2 * float(np.std(g)) / math.sqrt(n)
        z_score = abs(est - radial_moment(d, m1, m2)) / sigma
        details.append(f"M({m1:.2f},{m2:.2f}) z={z_score:.2f}")
        ok = ok and z_score < 3.0
    check(f"criterion 10 (k={k})", ok, "; ".join(details) + " (all < 3 sigma, 10^7 samples)")
