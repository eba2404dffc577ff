"""Verification experiments for the L^p mapping behavior of the projection.

The experiments mirror the structure of the underlying results:

* exact critical-range algebra: the projection is L^p bounded exactly
  for p in ((2k+2)/(k+2), (2k+2)/k), an interval that the Schur-test
  algebra reproduces from the exponent window [1/2, (k+2)/(2k));
* a numerical Schur verifier that integrates |B_k| against a weight
  with one exponent at the singular corner and one at the boundary
  edges, and classifies the result as bounded or growing along boundary
  ladders and quadrature-offset ladders;
* disc-level checks of the weighted Poisson-type integral and of the
  -log(delta) blow-up of the unweighted kernel mass;
* a divergence scan that measures the L^p norm of 1/z2 on shrinking
  cores, fits its growth exponent, and bisects the empirical critical
  p -- this is the sharpness half, and it is valid for real exponents;
* a norm-ratio probe over monomial families, whose exact projection
  norms either stay bounded (inside the range) or present a divergent
  integral as an unboundedness certificate (outside).

"Bounded" is operationalized as ladder saturation; growth-vs-saturation
is classified by the fitted log-log slope over the finest ladder levels,
which separates near-critical exponents far more reliably than raw
level-to-level differences.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

from .geometry import DomainSpec, Point2, aux_h, boundary_ladder
from .kernel import _polar_phases, _polar_theta1_factor, _polar_w1_factor, kernel_abs_polar
from .projection import MonomialInput, project_monomial
from .quadrature import (
    _FINEST_PANEL,
    _TENSOR_BLOCK_ENTRIES,
    DivergentIntegralError,
    _aligned_angle_rule,
    _join,
    angle_rule,
    disc_kernel_moment,
    graded_rule,
    radial_moment,
    tensor_sum,
)

__all__ = [
    "RangeReport",
    "SchurConfig",
    "VerificationReport",
    "VERDICT_CONSISTENT",
    "VERDICT_VIOLATED",
    "VERDICT_INCONCLUSIVE",
    "critical_range",
    "schur_range",
    "verify_schur",
    "verify_calculus1",
    "verify_disc_log",
    "divergence_scan",
    "norm_ratio_probe",
]

VERDICT_CONSISTENT = "consistent"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"

# fitted slope of ratios against the boundary gap below which a ladder of
# Schur ratios counts as growing rather than converging
_RATIO_GROWTH_SLOPE = 0.05


def _growth_threshold(deltas: Sequence[float]) -> float:
    """Growth threshold for a log-log offset-ladder slope.

    A log-divergent quantity has slope 1/ln(1/delta) on the ladder, the
    shallowest growth the experiments must still flag; saturating
    quantities fall below that at a rate set by their distance from the
    critical exponent.  70% of the endpoint slope splits the two with
    balanced margins at any ladder depth.  The endpoint is the four
    smallest offsets, the window :func:`fit_loglog_slope` fits by default.
    """
    window = np.asarray(sorted(deltas)[:4], dtype=float)
    return 0.7 / float(np.mean(np.log(1.0 / window)))


# ----------------------------------------------------------------------
# range algebra

@dataclass(frozen=True)
class RangeReport:
    """An open interval (p_low, p_high) of exponents with its provenance.

    Endpoints are exact ``Fraction`` values whenever the inputs were
    rational; they are always Hoelder-conjugate.
    """

    p_low: Fraction | float
    p_high: Fraction | float
    source: str

    def __post_init__(self) -> None:
        if not 1.0 < float(self.p_low) <= 2.0 <= float(self.p_high):
            raise ValueError(f"degenerate range ({self.p_low}, {self.p_high})")

    @property
    def p_low_float(self) -> float:
        return float(self.p_low)

    @property
    def p_high_float(self) -> float:
        return float(self.p_high)

    def conjugacy_defect(self):
        """1/p_low + 1/p_high - 1; exactly zero for rational endpoints."""
        if isinstance(self.p_low, Rational) and isinstance(self.p_high, Rational):
            return Fraction(1) / self.p_low + Fraction(1) / self.p_high - 1
        return 1.0 / self.p_low + 1.0 / self.p_high - 1.0

    def contains(self, p: float) -> bool:
        return float(self.p_low) < p < float(self.p_high)


def critical_range(d: DomainSpec) -> RangeReport:
    """The sharp interval ((2k+2)/(k+2), (2k+2)/k) of L^p boundedness.

    The paper proves this interval for integer k, where the endpoints are
    exact rationals (source ``theorem_formula``).  For real k the same
    formula is only extrapolated (source ``extrapolated_formula``).
    """
    if d.integer_exponent:
        k, source = Fraction(int(d.exponent)), "theorem_formula"
    else:
        k, source = d.exponent, "extrapolated_formula"
    return RangeReport((2 * k + 2) / (k + 2), (2 * k + 2) / k, source)


def schur_range(a, b) -> RangeReport:
    """The interval ((a+b)/b, (a+b)/a) delivered by the Schur test with
    auxiliary exponents in [a, b)."""
    if not 0 < a < b:
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    if isinstance(a, Rational) and isinstance(b, Rational):
        a, b = Fraction(a), Fraction(b)
    return RangeReport((a + b) / b, (a + b) / a, "schur_algebra")


# ----------------------------------------------------------------------
# reports and fits

@dataclass
class VerificationReport:
    """Structured outcome of a verification experiment: every CLI report body."""

    experiment: str
    parameters: dict
    samples: list[dict] = field(default_factory=list)
    fitted_exponent: Optional[float] = None
    bound_constant: Optional[float] = None
    verdict: str = VERDICT_INCONCLUSIVE
    expected_violation: bool = False


def fit_loglog_slope(x: Sequence[float], y: Sequence[float], tail: int = 4) -> float:
    """Least-squares slope of log y against log x over the last ``tail``
    points, discarding coarser (pre-asymptotic) levels."""
    lx = np.log(np.asarray(x, dtype=float)[-tail:])
    ly = np.log(np.asarray(y, dtype=float)[-tail:])
    if lx.size < 2:
        raise ValueError("need at least two ladder levels for a fit")
    return float(np.polyfit(lx, ly, 1)[0])


def _saturates(values: Sequence[float], tol: float) -> bool:
    """Last-three-levels saturation test: consecutive relative changes
    below ``tol``."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return False
    tailv = v[-3:]
    rel = np.abs(np.diff(tailv)) / np.abs(tailv[:-1])
    return bool(np.all(rel < tol))


# ----------------------------------------------------------------------
# Schur-test integrals
#
# All integrals are evaluated in box coordinates (u, v, theta1, psi):
# u = |w1|/v^(1/k), v = |w2|, theta1 the relative angle of w1 and psi the
# phase of t relative to s^k.  The Schur weight
#
#   W(w) = |w2|^(-2 eps) * [(1-u^(2k)) (1-v^2)]^(-delta)
#
# carries a corner exponent eps and an edge exponent delta; for
# delta = eps it is h(w)^-eps.  It is exactly separable there:
#
#   W(w) dV = (1-u^(2k))^-delta u du * (1-v^2)^-delta v^(1+2/k-2eps) dv
#             * dtheta1 dpsi
#
# and |B_k(z, w)| is evaluated through the rotation-reduced kernel on the
# grid (v, psi, u, theta1), summed in blocks along v.  The kernel is a sum
# of k separable terms, each a |w1|-side factor times a theta1-side one;
# the |w1|-side factor is a power of v times a function G' of (psi, u)
# alone.  The square of the modulus is a sum over the k^2 products of a
# pair of terms; their |w1|-side factors are formed once per Schur value,
# and their theta1-side factors once per chunk of v nodes, after the
# constants of the (psi, theta1) grid are formed once per value.  Each v
# block is then one kernel_abs_polar call: the square as one real matrix
# product, written into a buffer reused by every block, and its square
# root in place.  For z1 = 0 the kernel loses its u and theta1 dependence, so
# the u and theta1 axes shrink to one node each and only the
# inner-boundary ladder sums the full 4-d tensor.
#
# The boundary-ladder values are independent of each other, and
# verify_schur evaluates them on every usable core (_map_on_cores): one
# value per thread, each the same serial sum, so every value keeps its
# bits.  The numpy kernels release the GIL, so two values in flight run
# side by side; each holds its own block buffer and theta1-side chunk,
# which is why a chunk takes half the block budget.
#
# Offsets: only the probe ladder cuts the v axis, at its offsets v0: the
# v -> 0 edge decides the Schur exponent window, and past the window the
# probe's growth in v0 witnesses the divergence there.  The boundary-ladder
# values are integrated to the corner v = 0 (v0=None).  In x = v^(1/k)
# their integrand is x^(k+1-2k eps) times the modulus of a function
# analytic in x, integrable exactly for eps < b = (k+2)/(2k), and a
# Gauss-Jacobi sliver at x = 0 carries that power; a cut at v0 would drop
# about v0^(2(b - eps)) of the value.  The u -> 1 and v -> 1 edges are
# integrable uniformly over delta < 1 and are integrated to the boundary
# with Gauss-Jacobi end rules; the edge exponent rule keeps delta below 1
# for every corner exponent.  The u, psi and v -> 1 gradings stop at
# _FINEST_PANEL.

_U_ORDER = 10
_PSI_ORDER = 8
_N_THETA1 = 32
# real entries of one chunk of the theta1-side factor: half the block
# budget, as verify_schur keeps one Schur value in flight per core
_THETA1_CHUNK_ENTRIES = _TENSOR_BLOCK_ENTRIES // 2


def _u_rule(k: int, delta: float, *, floor: float):
    """Nodes/weights on (0, 1) with u (1 - u^(2k))^(-delta) folded in; the
    rim is a Jacobi sliver of width ``floor``."""
    u, w = graded_rule(0.0, 1.0, _U_ORDER, toward="upper", floor=floor, edge=-delta)
    # (1-u^(2k))/(1-u) is the degree 2k-1 geometric polynomial, smooth on [0,1]
    return u, w * u * polyval(u, np.ones(2 * k)) ** (-delta)


def _u_factor(k: int, delta: float) -> float:
    """int_0^1 u (1 - u^(2k))^(-delta) du, exactly B(1/k, 1-delta) / (2k)
    (substitute x = u^(2k))."""
    if delta >= 1.0:
        raise DivergentIntegralError(
            "inner-boundary edge integral diverges: need edge exponent "
            f"delta < 1 for (1-u^(2k))^(-delta) to be integrable, got delta = {delta}"
        )
    a, b = 1.0 / k, 1.0 - delta
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)) / (2 * k)


def _v_axis(k: int, eps: float, delta: float, y: float, v0: Optional[float]):
    """Radial nodes/weights on (v0, 1), or on (0, 1) for ``v0=None``, with
    v^(1+2/k-2eps) (1-v^2)^(-delta) folded in (Jacobi rim rule).

    Without a cut the lower part (0, 0.5) is integrated in x = v^(1/k),
    where the integrand is x^alpha, alpha = k + 1 - 2k eps, times a smooth
    function: a Jacobi sliver at x = 0, then panels graded toward it down
    to (min(|z2|, 0.5)/8)^(1/k), which resolve the corner ladder's peak
    at v ~ |z2|."""
    if delta >= 1.0:
        raise DivergentIntegralError(
            "outer-boundary edge integral diverges: need edge exponent "
            f"delta < 1 for (1-v^2)^(-delta) to be integrable, got delta = {delta}"
        )
    power = 1.0 + 2.0 / k - 2.0 * eps
    f_v = max(min((1.0 - y) / 8.0, 1e-3), _FINEST_PANEL)
    vhi, whi = graded_rule(0.5, 1.0, _U_ORDER, toward="upper", floor=f_v, edge=-delta)
    if v0 is not None:
        vlo, wlo = graded_rule(v0, 0.5, _U_ORDER, toward="lower", floor=3.0 * v0)
        v, w = _join((vlo, wlo * (1.0 - vlo) ** (-delta)), (vhi, whi))
        return v, w * v**power * (1.0 + v) ** (-delta)
    alpha = k + 1.0 - 2.0 * k * eps
    if alpha <= -1.0:
        raise DivergentIntegralError(
            "singular-corner integral diverges: need corner exponent "
            f"eps < b = (k+2)/(2k) = {(k + 2) / (2 * k)} for |w2|^(2/k - 2 eps) "
            f"to be integrable, got eps = {eps}"
        )
    x, wx = graded_rule(0.0, 0.5 ** (1.0 / k), _U_ORDER, toward="lower",
                        floor=(min(y, 0.5) / 8.0) ** (1.0 / k), edge=alpha)
    vlo = x**k
    return _join((vlo, wx * k * vlo * (1.0 - vlo * vlo) ** (-delta)),
                 (vhi, whi * vhi**power * (1.0 + vhi) ** (-delta)))


def _schur_value(d: DomainSpec, z: Point2, eps: float, delta: float,
                 v0: Optional[float]) -> float:
    """I(z) as one tensor sum over (v, psi, u, theta1), with the v axis cut
    at ``v0`` or, for ``v0=None``, integrated to the corner v = 0
    (:func:`_v_axis`).  The sum runs in blocks along v,
    each block one :func:`kernel_abs_polar` call written into one buffer,
    which ``tensor_sum`` sums before the next block.  The |w1|-side factor
    and the constants of the (psi, theta1) grid are formed once here, and
    the theta1-side factor once per chunk of v nodes of at most
    ``_THETA1_CHUNK_ENTRIES`` real entries (at least one block).  For
    z1 = 0 the kernel modulus depends on neither u nor theta1, so each of
    those axes is one node carrying its exact integral: the u factor and
    2 pi."""
    k = d.k_int()
    x, y = abs(z.z1), abs(z.z2)
    if x == 0.0:
        scale = 1.0 - y
        u_axis = (np.zeros(1), np.array([_u_factor(k, delta)]))
        theta1_axis = (np.zeros(1), np.array([2.0 * math.pi]))
    else:
        scale = 1.0 - x**k / y
        u_axis = _u_rule(k, delta, floor=max(scale / 16.0, _FINEST_PANEL))
        theta1_axis = angle_rule(_N_THETA1)
    # psi on [0, pi], weights doubled for the even symmetry of the
    # theta1-averaged integrand
    psi, wpsi = _aligned_angle_rule(scale, _PSI_ORDER)
    v_axis = _v_axis(k, eps, delta, y, v0)
    axes = (v_axis, (psi, 2.0 * wpsi), u_axis, theta1_axis)
    g = _polar_w1_factor(d, x, y, psi, u_axis[0])
    phases = _polar_phases(k, psi, theta1_axis[0])
    chunk = max(1, _THETA1_CHUNK_ENTRIES // (k * k * psi.size * theta1_axis[0].size))
    # the next v node, the rows of the chunk's factor not used yet, and the
    # block buffer
    start, held, work = 0, None, None

    def block(v, *_):
        nonlocal start, held, work
        rows = v.size
        if held is None or len(held) < rows:
            held = None  # free the spent chunk before forming the next
            held = _polar_theta1_factor(d, x, y, v_axis[0][start:start + max(chunk, rows)],
                                        phases)
        factor, held = held[:rows], held[rows:]
        start += rows
        if work is None:  # the first block is the largest
            work = np.empty((rows,) + g.shape[:2] + theta1_axis[0].shape)
        return kernel_abs_polar(g, factor, out=work[:rows])

    return float(tensor_sum(axes, block))


# ----------------------------------------------------------------------
# Schur verifier

@dataclass(frozen=True)
class SchurConfig:
    """Configuration of the Schur-test verification experiment.

    ``eps`` is the corner exponent tested; the edge exponent of the
    weight follows from it (see :func:`_edge_exponent`).  The report
    compares it with the window [1/2, (k+2)/(2k)), which reproduces the
    critical range.
    """

    eps: float
    ladder_levels: int = 6

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 2.0:
            raise ValueError(f"eps must lie in (0, 2), got {self.eps}")
        if self.ladder_levels < 2:
            raise ValueError("ladder_levels must be >= 2")


# the edge exponent stays below this level; in-window corner exponents at
# or above it get a rescaled edge exponent instead of delta = eps
_EDGE_RESCALE_LEVEL = 0.995
_EDGE_EXPONENT_CAP = 0.99


def _edge_exponent(k: int, eps: float) -> float:
    """Edge exponent delta of the Schur weight at corner exponent ``eps``.

    The window [1/2, b), b = (k+2)/(2k), constrains the corner factor
    |w2|^(-2 eps) only; the edge factors [(1-u^(2k)) (1-v^2)]^(-delta)
    need delta < 1.  Three cases:

    * eps below the rescale level 0.995 and below b: delta = eps (the
      weight h^-eps);
    * eps in the window at or above that level (k = 1: [0.995, 3/2);
      k = 2: [0.995, 1)): delta = min(eps / b, 0.99);
    * eps >= b: delta = 0, the pure corner weight, whose integral
      diverges at the singular corner alone.

    For k = 1 the map (z1, z2) -> (z1/z2, z2) takes Omega_1 onto D x D*,
    where the weighted estimate splits into two disc lemmas: edge exponent
    delta with beta = 0 on the z1/z2 disc and with beta = 2 eps - 1 in
    [0, 2) on the z2 disc, so any delta in (0, 1) serves there.
    """
    b = (k + 2) / (2 * k)
    if eps >= b:
        return 0.0
    if eps >= _EDGE_RESCALE_LEVEL:
        return min(eps / b, _EDGE_EXPONENT_CAP)
    return eps


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(n_items: int) -> int:
    """Threads :func:`_map_on_cores` runs ``n_items`` values on: one per
    usable core, at most one per item and at least one."""
    return max(1, min(_usable_cores(), n_items))


def _map_on_cores(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]`` on the calling thread plus one worker
    thread per further usable core, at most one thread per item.

    Every thread takes the next index from one shared iterator, so values
    start in list order.  Once a value raises (``KeyboardInterrupt`` on
    the calling thread included), no further value starts; the values in
    flight finish, the workers are joined, and the exception of the
    lowest index, the one the serial loop would raise, is re-raised
    unchanged.  With one usable core or one item no thread is started and
    every value runs on the calling thread.
    """
    results = [None] * len(items)
    errors: dict[int, BaseException] = {}
    order = iter(range(len(items)))
    lock = threading.Lock()
    stop = threading.Event()

    def run():
        while True:
            with lock:
                i = None if stop.is_set() else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                errors[i] = exc
                stop.set()
                return

    threads = [threading.Thread(target=run) for _ in range(_workers(len(items)) - 1)]
    for t in threads:
        t.start()
    try:
        run()
    finally:
        stop.set()  # an interrupt between two values stops the workers too
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results


_PROBE_POINT = Point2(0j, 0.6 + 0j)
_V0_PROBE_LADDER = tuple(10.0 ** -np.arange(2, 13))


def verify_schur(d: DomainSpec, cfg: SchurConfig) -> VerificationReport:
    """Test whether |B_k| maps the weight W to a bounded multiple of itself.

    W(w) = |w2|^(-2 eps) [(1-u^(2k)) (1-v^2)]^(-delta), u = |w1|/|w2|^(1/k),
    v = |w2|, with corner exponent eps and edge exponent
    delta = _edge_exponent(k, eps) < 1, recorded as the report's
    ``edge_exponent``; for delta = eps, W = h^(-eps).

    Protocol: first classify the quadrature-offset ladder of the full
    integral at a fixed probe point (growth there means the integral
    itself diverges at the singular corner, which is the expected failure
    mode for eps at or above (k+2)/(2k), where delta = 0).  If the
    integral saturates, the ratio I(z) / W(z) is computed along the three
    boundary ladders and the verdict is "consistent" exactly when every
    ladder of ratios saturates.

    The probe ladder runs serially.  The 3 x ``ladder_levels`` boundary
    values are independent, and :func:`_map_on_cores` evaluates them on
    every usable core; each is the same :func:`_schur_value` call as in a
    serial loop, so samples, slopes and verdict do not depend on the core
    count.
    """
    k = d.k_int()
    eps = cfg.eps
    delta = _edge_exponent(k, eps)
    b = (k + 2) / (2 * k)
    in_stated_range = 0.5 <= eps < b
    params = {
        "k": k,
        "eps": eps,
        "edge_exponent": delta,
        "a": 0.5,
        "b": b,
        "in_stated_range": in_stated_range,
        "ladder_levels": cfg.ladder_levels,
    }
    report = VerificationReport(
        experiment="schur",
        parameters=params,
        expected_violation=not in_stated_range,
    )

    # a ladder point that rounds onto the boundary fails the run before any value
    ladders = {s: boundary_ladder(d, s, cfg.ladder_levels) for s in ("outer", "inner", "corner")}
    values = [_schur_value(d, _PROBE_POINT, eps, delta, v0=v0) for v0 in _V0_PROBE_LADDER]
    cls, slope = _classify_deltas(values, _V0_PROBE_LADDER)
    report.samples = [
        {"kind": "offset_ladder", "v0": v0, "value": val,
         "provenance": "quadrature"}
        for v0, val in zip(_V0_PROBE_LADDER, values)
    ]
    if cls == "growing":
        report.fitted_exponent = slope
        report.parameters["divergence_edge"] = "singular corner v -> 0"
        report.verdict = VERDICT_VIOLATED
        return report

    # The integral is finite: measure ratios along the boundary ladders.
    # Boundedness shows up as ratios that flatten or decay as the gap
    # shrinks; a violation is persistent growth, i.e. a fitted slope of
    # log(ratio) against log(gap) below -_RATIO_GROWTH_SLOPE.  (On the
    # corner ladder the ratio decays like |z2|^(2 eps - 1), so raw
    # level-to-level differences are the wrong test for boundedness.)
    values = iter(_map_on_cores(
        lambda z: _schur_value(d, z, eps, delta, v0=None),
        [z for pts in ladders.values() for z in pts]))
    worst = 0.0
    slopes: dict[str, float] = {}
    for stratum, pts in ladders.items():
        gaps, ratios = [], []
        for j, z in enumerate(pts, start=1):
            val = next(values)
            h = aux_h(d, z)
            # W(z)^-1 = |z2|^(2 eps) E(z)^delta with E(z) = h / |z2|^2
            y2 = abs(z.z2) ** 2
            ratio = val * y2**eps * (h / y2) ** delta
            gaps.append(2.0**-j)
            ratios.append(ratio)
            report.samples.append(
                {"kind": "ladder", "stratum": stratum, "level": j,
                 "z1": z.z1.real, "z2": z.z2.real, "h": h,
                 "value": val, "ratio": ratio,
                 "provenance": "quadrature"}
            )
            worst = max(worst, ratio)
        slopes[stratum] = fit_loglog_slope(gaps, ratios)
    report.parameters["stratum_slopes"] = slopes
    report.bound_constant = worst
    growing = {s: m for s, m in slopes.items() if m < -_RATIO_GROWTH_SLOPE}
    if growing:
        stratum, rslope = min(growing.items(), key=lambda kv: kv[1])
        report.verdict = VERDICT_VIOLATED
        report.fitted_exponent = rslope
        report.parameters["growing_stratum"] = stratum
        return report
    report.verdict = VERDICT_CONSISTENT
    return report


# ----------------------------------------------------------------------
# disc-level verifications

_CALCULUS1_TOLERANCE = 0.02  # relative steps of the last three plateau levels
_DISC_LOG_TOLERANCE = 0.10  # relative error of both fits, against pi and -1/2
# the deepest level j of a disc ladder |z| = 1 - 2^-j: past it |z| rounds to 1
DISC_MAX_LEVELS = 53


def _disc_ladder_report(experiment: str, levels: int, params: dict) -> VerificationReport:
    """The report of a disc ladder of ``levels`` levels before its samples."""
    if not 4 <= levels <= DISC_MAX_LEVELS:
        raise ValueError(f"levels must be at least 4 and at most {DISC_MAX_LEVELS}, got {levels}")
    return VerificationReport(experiment, {**params, "levels": levels})


def verify_calculus1(eps: float, beta: float, levels: int, *, radial_nodes: int,
                     angular_nodes: int) -> VerificationReport:
    """Plateau check for the weighted disc integral I_(eps,beta).

    Computes I(z) (1 - |z|^2)^eps along |z| = 1 - 2^-j; the claim is a
    one-sided bound, so the experiment verifies that the product
    saturates to a finite plateau.
    """
    if not 0.0 < eps < 1.0:
        raise DivergentIntegralError(f"need 0 < eps < 1, got {eps}")
    if not 0.0 <= beta < 2.0:
        raise DivergentIntegralError(f"need 0 <= beta < 2, got {beta}")
    report = _disc_ladder_report("calculus1", levels, {"eps": eps, "beta": beta,
                                                       "tolerance": _CALCULUS1_TOLERANCE})
    i0 = disc_kernel_moment(0.0, eps, beta, radial_nodes, angular_nodes)
    report.samples.append({"abs_z": 0.0, "value": i0, "product": i0,
                           "provenance": "quadrature"})
    deltas, products, values = [], [], []
    for j in range(1, levels + 1):
        a = 1.0 - 2.0**-j
        val = disc_kernel_moment(a, eps, beta, radial_nodes, angular_nodes)
        prod = val * (1.0 - a * a) ** eps
        deltas.append(1.0 - a * a)
        values.append(val)
        products.append(prod)
        report.samples.append({"abs_z": a, "value": val, "product": prod,
                               "provenance": "quadrature"})
    report.fitted_exponent = fit_loglog_slope(deltas, values)
    report.bound_constant = products[-1]
    report.verdict = (VERDICT_CONSISTENT if _saturates(products, _CALCULUS1_TOLERANCE)
                      else VERDICT_INCONCLUSIVE)
    return report


def verify_disc_log(levels: int, *, radial_nodes: int, angular_nodes: int) -> VerificationReport:
    """Check the -log(delta) law of the unweighted kernel mass on the disc.

    The integral of |1 - z conj(w)|^-2 grows like pi * (-log delta(z));
    the slope against -log delta is fitted and, with the calculus-1 weight
    (1 - |w|^2)^(-1/2) inserted, the growth switches to the delta^(-1/2)
    power law.  Both fits must land within 10% (``_DISC_LOG_TOLERANCE``).
    """
    report = _disc_ladder_report("disc_log", levels, {"tolerance": _DISC_LOG_TOLERANCE})
    v0 = disc_kernel_moment(0.0, 0.0, 0.0, radial_nodes, angular_nodes)
    report.samples.append({"abs_z": 0.0, "value": v0, "kind": "plain",
                           "provenance": "quadrature"})
    deltas, plain, weighted = [], [], []
    for j in range(1, levels + 1):
        a = 1.0 - 2.0**-j
        val = disc_kernel_moment(a, 0.0, 0.0, radial_nodes, angular_nodes)
        wval = disc_kernel_moment(a, 0.5, 0.0, radial_nodes, angular_nodes)
        delta = 1.0 - a
        deltas.append(delta)
        plain.append(val)
        weighted.append(wval)
        report.samples.append({"abs_z": a, "value": val, "weighted_value": wval,
                               "ratio_to_log": val / (-math.log(delta)),
                               "kind": "ladder",
                               "provenance": "quadrature"})
    # linear slope of the plain mass against -log delta tends to pi
    logx = -np.log(np.asarray(deltas[-6:]))
    slope = float(np.polyfit(logx, np.asarray(plain[-6:]), 1)[0])
    wexp = fit_loglog_slope(deltas, weighted, tail=5)
    report.parameters["log_law_slope"] = slope
    report.parameters["log_law_slope_over_pi"] = slope / math.pi
    report.fitted_exponent = wexp
    slope_ok = abs(slope / math.pi - 1.0) < _DISC_LOG_TOLERANCE
    weight_ok = abs(wexp / -0.5 - 1.0) < _DISC_LOG_TOLERANCE
    report.verdict = VERDICT_CONSISTENT if (slope_ok and weight_ok) else VERDICT_INCONCLUSIVE
    return report


# ----------------------------------------------------------------------
# divergence scan (sharpness half; valid for real exponents)

_DIVERGENCE_TOLERANCE = 0.02  # relative error of the bisected critical p


def _z2_power_masses(d: DomainSpec, deltas: Sequence[float]):
    """A function of p giving, for each delta, the integral of |z2|^(-p)
    over the domain cut at |z2| > delta, by radial quadrature in r2
    (angles are exact by symmetry); the rules do not depend on p and are
    built once.  The integrand, with the inner integral of r1 dr1 over
    [0, r2^(1/k)] done, is the single power r2^(1 + 2/k - p) / 2, and each
    weighted term is formed as one exponential, so that it overflows only
    where the term itself does, not where the power alone would.  A mass
    that is not finite raises ``ValueError`` naming p and the offset."""
    logs = []
    for delta in deltas:
        r2, w2 = graded_rule(delta, 1.0, 8, toward="lower", floor=3.0 * delta)
        logs.append((np.log(w2 / 2.0), np.log(r2)))

    def masses(p: float) -> list[float]:
        power = 1.0 + 2.0 / d.k - p
        with np.errstate(over="ignore"):
            out = [4.0 * math.pi**2 * float(np.sum(np.exp(log_w + power * log_r)))
                   for log_w, log_r in logs]
        bad = [(delta, mass) for delta, mass in zip(deltas, out) if not math.isfinite(mass)]
        if bad:
            raise ValueError(f"the mass of |z2|^(-p) at p = {p} on the core "
                             f"|z2| > {bad[0][0]} is {bad[0][1]}, not finite; use "
                             "shallower offsets")
        return out

    return masses


def _classify_deltas(values: Sequence[float], deltas: Sequence[float]) -> tuple[str, float]:
    slope = fit_loglog_slope([1.0 / dd for dd in deltas], values)
    return ("growing" if slope > _growth_threshold(deltas) else "saturating"), slope


def divergence_scan(d: DomainSpec, p_grid: Sequence[float],
                    delta_grid: Sequence[float]) -> VerificationReport:
    """Measure where the projection of conj(z2) leaves L^p.

    The projected function is a constant times 1/z2, so its p-th power
    mass on the core |z2| > delta behaves like the 1-d integral of
    r^(1 - p + 2/k): it saturates for p < 2 + 2/k and grows like
    delta^(2 - p + 2/k) beyond (with a log at the endpoint).  The scan
    classifies each p of the grid, fits growth exponents, bisects the
    empirical critical p, and compares it against (2k+2)/k.  Real
    (non-integer) exponents are fully supported.
    """
    deltas = sorted(float(x) for x in delta_grid)[::-1]
    if len(deltas) < 4:
        raise ValueError("need at least 4 deltas for growth classification")
    if not all(math.isfinite(p) for p in p_grid):
        raise ValueError(f"exponents p must be finite, got {list(p_grid)}")
    p_crit = 2.0 + 2.0 / d.k
    report = VerificationReport(
        experiment="divergence_scan",
        parameters={"k": d.k, "p_critical_formula": p_crit,
                    "delta_min": deltas[-1], "delta_max": deltas[0],
                    "tolerance": _DIVERGENCE_TOLERANCE},
    )

    masses = _z2_power_masses(d, deltas)
    fit_ok = True
    for p in p_grid:
        vals = masses(p)
        cls, slope = _classify_deltas(vals, deltas)
        predicted = 2.0 - p + 2.0 / d.k
        row = {"p": p, "classification": cls, "fitted_slope": slope,
               "provenance": "quadrature"}
        if cls == "saturating":
            exact = radial_moment(d, 0.0, -p)
            row["limit"] = vals[-1]
            row["exact_limit"] = exact
            row["limit_rel_err"] = abs(vals[-1] - exact) / exact
        else:
            row["predicted_exponent"] = predicted
            if abs(predicted) > 0.05:  # power growth; the endpoint is log-type
                row["exponent_rel_err"] = abs(slope - (-predicted)) / abs(predicted)
                fit_ok = fit_ok and row["exponent_rel_err"] < 0.05
            else:
                row["growth_type"] = "logarithmic"
        for dd, val in zip(deltas, vals):
            report.samples.append({"p": p, "delta": dd, "value": val,
                                   "provenance": "quadrature"})
        report.parameters.setdefault("grid_rows", []).append(row)

    lo, hi = 2.0, p_crit + 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        cls, _ = _classify_deltas(masses(mid), deltas)
        if cls == "growing":
            hi = mid
        else:
            lo = mid
    empirical = 0.5 * (lo + hi)
    report.parameters["p_critical_empirical"] = empirical
    rel = abs(empirical - p_crit) / p_crit
    report.parameters["p_critical_rel_err"] = rel
    report.verdict = (VERDICT_CONSISTENT if rel < _DIVERGENCE_TOLERANCE and fit_ok
                      else VERDICT_INCONCLUSIVE)
    return report


# ----------------------------------------------------------------------
# operator norm probes on monomial families

def norm_ratio_probe(d: DomainSpec, p: float,
                     family: Sequence[MonomialInput]) -> VerificationReport:
    """Finite-sample lower bounds on the L^p operator norm over a family.

    Norms of monomials are exact through the radial moments.  Family
    members whose projection has divergent L^p mass are reported as
    unboundedness certificates rather than numbers; inside the critical
    range the verdict is consistent when no certificate fires, outside
    it is consistent when at least one does.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    rng = critical_range(d)
    inside = rng.contains(p)
    report = VerificationReport(
        experiment="norm_ratio_probe",
        parameters={"k": d.k, "p": p, "p_inside_range": inside,
                    "p_low": rng.p_low_float, "p_high": rng.p_high_float},
    )
    certificates = 0
    worst = 0.0
    for m in family:
        m1, m2 = m.modulus_exponents()
        row = {"hol": (m.hol.a1, m.hol.a2), "antihol": (m.antihol.a1, m.antihol.a2),
               "provenance": "exact-formula"}
        try:
            input_mass = radial_moment(d, p * m1, p * m2)
        except DivergentIntegralError as exc:
            row["status"] = "input-not-in-Lp"
            row["detail"] = str(exc)
            report.samples.append(row)
            continue
        proj = project_monomial(d, m)
        if proj is None:
            row["status"] = "projects-to-zero"
            row["ratio"] = 0.0
            report.samples.append(row)
            continue
        row["gamma"] = (proj.index.a1, proj.index.a2)
        row["coeff"] = proj.coeff
        try:
            proj_mass = radial_moment(d, p * proj.index.a1, p * proj.index.a2)
        except DivergentIntegralError as exc:
            row["status"] = "certificate"
            row["detail"] = f"projection norm diverges: {exc}"
            certificates += 1
            report.samples.append(row)
            continue
        ratio = abs(proj.coeff) * proj_mass ** (1.0 / p) / input_mass ** (1.0 / p)
        row["status"] = "finite"
        row["ratio"] = ratio
        worst = max(worst, ratio)
        report.samples.append(row)
    report.bound_constant = worst
    report.parameters["certificates"] = certificates
    if inside:
        report.verdict = VERDICT_CONSISTENT if certificates == 0 else VERDICT_VIOLATED
    else:
        report.expected_violation = True
        report.verdict = VERDICT_CONSISTENT if certificates > 0 else VERDICT_INCONCLUSIVE
    return report
