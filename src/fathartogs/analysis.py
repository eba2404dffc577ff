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
* a divergence scan that reads the critical p off the growth of the L^p
  mass of 1/z2 on shrinking cores (the sharpness half; real exponents);
* a norm-ratio probe over monomial families, whose exact projection
  norms either stay bounded (inside the range) or present a divergent
  integral as an unboundedness certificate (outside).

Every ladder -- boundary, offset or disc -- is read as growing, bounded
or undecided by one rule on its last five values, :func:`_ladder_trend`.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

from .geometry import DomainSpec, Point2, aux_h, boundary_ladder
from .kernel import _polar_phases, _polar_theta1_factor, _polar_w1_factor, kernel_abs_polar
from .projection import MonomialInput, project_monomial
from .quadrature import (
    _FINEST_PANEL,
    DivergentIntegralError,
    _aligned_angle_rule,
    _join,
    angle_rule,
    disc_kernel_moment,
    graded_rule,
    radial_moment,
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
# reports and the ladder rule

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


# Increments at or below _NOISE_FLOOR of the last value change sign or
# vanish from rounding and quadrature error.  Log growth reads |c| up to
# 2.1e-8 (disc-log at 53 levels), the weakest power growth c = -0.0206
# (Schur corner, k = 2, eps 0.49) and the nearest bounded ladder +0.02.
_NOISE_FLOOR = 1e-9
_C_GROW = 1e-6
# the fewest values a ladder is read from: four increments, three ratios
LADDER_MIN_VALUES = 5


class _Trend(NamedTuple):
    kind: str  # "growing", "bounded" or "inconclusive"
    q: Optional[float]  # the last increment ratio above the noise floor
    c: Optional[float]  # -log(q) / log(ratio); None where no q is readable
    limit: float
    rule: str  # the rule that fired

    def decided_by(self, ladder: str) -> dict:
        return {"ladder": ladder, "q": self.q, "c": self.c, "rule": self.rule}


def _ladder_trend(values: Sequence[float], ratio: float) -> _Trend:
    """Read a ladder whose rungs shrink by ``ratio`` as growing, bounded
    or, below ``LADDER_MIN_VALUES`` values, inconclusive.

    With increments d_j, q_j = d_j / d_(j-1) and c_j = -log(q_j) / log(ratio),
    values C - D ratio^(-c j) read that c, log growth c = 0 and power
    growth c < 0.  Growth is the last four increments above the noise
    floor with each c <= ``_C_GROW``.  q and c come from the last pair of
    increments above the floor with one sign; where it ends the ladder and
    0 < q < 1 the limit is Aitken's v_n + d_n q / (1 - q).
    """
    v = np.asarray(values, dtype=float)
    d, floor = np.diff(v), _NOISE_FLOOR * abs(v[-1])
    pairs = [j for j in range(1, d.size)
             if min(abs(d[j]), abs(d[j - 1])) > floor and (d[j] > 0.0) == (d[j - 1] > 0.0)]
    q = c = None
    limit = float(v[-1])
    if pairs:
        j = pairs[-1]
        q = float(d[j] / d[j - 1])
        c = -math.log(q) / math.log(ratio)
        if j == d.size - 1 and q < 1.0:
            limit += float(d[j]) * q / (1.0 - q)
    n = LADDER_MIN_VALUES - 1
    last = d[-n:]
    if v.size < LADDER_MIN_VALUES:
        kind, rule = VERDICT_INCONCLUSIVE, f"fewer than {LADDER_MIN_VALUES} values"
    elif not np.all(last > floor):
        kind, rule = "bounded", f"an increment of the last {n} at or below the noise floor"
    elif np.all(-np.log(last[1:] / last[:-1]) / math.log(ratio) <= _C_GROW):
        kind, rule = "growing", f"the last {n} increments above the noise floor, c <= {_C_GROW:g}"
    else:
        kind, rule = "bounded", f"an increment ratio of the last {n} with c > {_C_GROW:g}"
    return _Trend(kind, q, c, limit, rule)


def _decide(report: VerificationReport, trends: dict[str, _Trend]) -> str:
    """Set the verdict from the deciding ladder of ``trends``, named in
    ``decided_by``: one growing, else undecided, else nearest to growth."""
    order = {"growing": 0, VERDICT_INCONCLUSIVE: 1, "bounded": 2}
    name = min(trends, key=lambda s: (order[trends[s].kind],
                                      math.inf if trends[s].c is None else trends[s].c))
    report.verdict = {"growing": VERDICT_VIOLATED,
                      "bounded": VERDICT_CONSISTENT}.get(trends[name].kind, VERDICT_INCONCLUSIVE)
    report.parameters["decided_by"] = trends[name].decided_by(name)
    return name


def _rung_ratio(offsets: Sequence[float]) -> float:
    """The one ratio by which ``LADDER_MIN_VALUES`` or more ``offsets``,
    largest first, shrink, or a ``ValueError``: the ladder rule needs both."""
    if len(offsets) < LADDER_MIN_VALUES:
        raise ValueError(f"need at least {LADDER_MIN_VALUES} deltas, got {len(offsets)}")
    ratios = [a / b for a, b in zip(offsets, offsets[1:])]
    if not (ratios[0] > 1.0 and all(math.isclose(r, ratios[0]) for r in ratios)):
        raise ValueError(f"offsets must shrink by one ratio, got {[float(x) for x in offsets]}")
    return ratios[0]


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
# entries of one Schur block of v nodes x psi x u x theta1.  On the
# benchmark, 2^15 to 2^17 entries took the same time, 2^18 took 8% more,
# and peak memory grew from 2^17 on.  A block is never smaller than one
# v node: the inner-stratum block, one v node of psi x u x theta1
# entries, is 32 x 50 x 32 to 72 x 90 x 32 on 10-level inner ladders at
# k = 2-4, and 64 x 80 x 32 = 163840, 2.5x this budget, at the deepest
# level of schur_sweep.  Its kernel_abs_polar call is one real product of
# the block's size, written into a buffer reused by every block, whose
# square root is the block; sub-blocking it along psi made schur_sweep
# slower, since kernel_abs_polar is then called more often per Schur
# value.  The theta1-side factor, k^2 x psi x theta1 real entries per v
# node, is formed for a chunk of v nodes of at most half this many
# entries, since verify_schur keeps one Schur value in flight per usable
# core: 4, 2 and 1 nodes at k = 2, 3 and 4 on the deepest level of an
# 8-level inner ladder.  A serial pass ran as fast with these chunks as
# with chunks of the full budget (8, 4 and 2 nodes), and with 2 workers
# the traced peak of one verify_schur at k = 2 fell from 5.6 to 4.4 MiB
_SCHUR_BLOCK_ENTRIES = 1 << 16
# real entries of one chunk of the theta1-side factor: half the block
# budget, as verify_schur keeps one Schur value in flight per core
_THETA1_CHUNK_ENTRIES = _SCHUR_BLOCK_ENTRIES // 2


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
    """I(z) as one sum over the tensor grid (v, psi, u, theta1), with the v
    axis cut at ``v0`` or, for ``v0=None``, integrated to the corner v = 0
    (:func:`_v_axis`).  The |w1|-side factor and the (psi, theta1)
    constants are formed once here, and the theta1-side factor once per
    chunk of v nodes of at most ``_THETA1_CHUNK_ENTRIES`` real entries,
    cut to whole blocks of at most ``_SCHUR_BLOCK_ENTRIES`` entries (one v
    node at least).  Each block is one :func:`kernel_abs_polar` call into
    one buffer, summed in ``np.einsum``'s loops (not BLAS, whose sums
    change with the thread count) against the (u, theta1), psi and v
    weights in turn before the next.  For z1 = 0 the kernel modulus
    depends on neither u nor theta1, so each of those axes is one node
    carrying its exact integral: the u factor and 2 pi."""
    k = d.k_int()
    x, y = abs(z.z1), abs(z.z2)
    if x == 0.0:
        scale = 1.0 - y
        u, wu = np.zeros(1), np.array([_u_factor(k, delta)])
        theta1, wtheta1 = np.zeros(1), np.array([2.0 * math.pi])
    else:
        scale = 1.0 - x**k / y
        u, wu = _u_rule(k, delta, floor=max(scale / 16.0, _FINEST_PANEL))
        theta1, wtheta1 = angle_rule(_N_THETA1)
    # psi on [0, pi], weights doubled for the even symmetry of the
    # theta1-averaged integrand
    psi, wpsi = _aligned_angle_rule(scale, _PSI_ORDER)
    wpsi = 2.0 * wpsi
    v, wv = _v_axis(k, eps, delta, y, v0)
    g = _polar_w1_factor(d, x, y, psi, u)
    phases = _polar_phases(k, psi, theta1)
    rows = max(1, _SCHUR_BLOCK_ENTRIES // (psi.size * u.size * theta1.size))
    chunk = rows * max(1, _THETA1_CHUNK_ENTRIES // (k * k * psi.size * theta1.size) // rows)
    w_rest = np.multiply.outer(wu, wtheta1).ravel()
    work = np.empty((min(rows, v.size), psi.size, u.size, theta1.size))
    total = 0.0
    for c0 in range(0, v.size, chunk):
        factor = _polar_theta1_factor(d, x, y, v[c0:c0 + chunk], phases)
        for lo in range(0, len(factor), rows):
            n = min(rows, len(factor) - lo)
            block = kernel_abs_polar(g, factor[lo:lo + n], out=work[:n])
            sums = np.einsum("ijk,k->ij", block.reshape(n, psi.size, -1), w_rest)
            total += np.einsum("i,i->", wv[c0 + lo:c0 + lo + n],
                               np.einsum("ij,j->i", sums, wpsi))
        del factor  # free the spent chunk before forming the next
    return float(total)


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

    Protocol: first read the quadrature-offset ladder of the full
    integral at a fixed probe point (growth there means the integral
    itself diverges at the singular corner, which is the expected failure
    mode for eps at or above (k+2)/(2k), where delta = 0).  If it is
    bounded, the ratio I(z) / W(z) is computed along the three boundary
    ladders, and the verdict follows the ladder that ``decided_by`` names.

    The probe ladder runs serially.  The 3 x ``ladder_levels`` boundary
    values are independent, and :func:`_map_on_cores` evaluates them on
    every usable core; each is the same :func:`_schur_value` call as in a
    serial loop, so samples, exponents and verdict do not depend on the core
    count.
    """
    k = d.k_int()
    eps = cfg.eps
    delta = _edge_exponent(k, eps)
    b = (k + 2) / (2 * k)
    in_stated_range = 0.5 <= eps < b
    report = VerificationReport(
        experiment="schur",
        parameters={"k": k, "eps": eps, "edge_exponent": delta, "a": 0.5, "b": b,
                    "in_stated_range": in_stated_range, "ladder_levels": cfg.ladder_levels},
        expected_violation=not in_stated_range,
    )

    # a ladder point that rounds onto the boundary fails the run before any value
    ladders = {s: boundary_ladder(d, s, cfg.ladder_levels) for s in ("outer", "inner", "corner")}
    values = [_schur_value(d, _PROBE_POINT, eps, delta, v0=v0) for v0 in _V0_PROBE_LADDER]
    trend = _ladder_trend(values, 10.0)
    report.samples = [
        {"kind": "offset_ladder", "v0": v0, "value": val,
         "provenance": "quadrature"}
        for v0, val in zip(_V0_PROBE_LADDER, values)
    ]
    if trend.kind == "growing":
        _decide(report, {"probe": trend})
        report.fitted_exponent = -trend.c  # the growth exponent in 1/v0
        report.parameters["divergence_edge"] = "singular corner v -> 0"
        return report

    # The integral is finite: the ratios along the boundary ladders must stay
    # bounded (on the corner ladder they decay like |z2|^(2 eps - 1)).
    values = iter(_map_on_cores(
        lambda z: _schur_value(d, z, eps, delta, v0=None),
        [z for pts in ladders.values() for z in pts]))
    for stratum, pts in ladders.items():
        for j, z in enumerate(pts, start=1):
            val = next(values)
            h = aux_h(d, z)
            # W(z)^-1 = |z2|^(2 eps) E(z)^delta with E(z) = h / |z2|^2
            y2 = abs(z.z2) ** 2
            ratio = val * y2**eps * (h / y2) ** delta
            report.samples.append(
                {"kind": "ladder", "stratum": stratum, "level": j,
                 "z1": z.z1.real, "z2": z.z2.real, "h": h,
                 "value": val, "ratio": ratio,
                 "provenance": "quadrature"}
            )
    trends = {s: _ladder_trend([r["ratio"] for r in report.samples if r.get("stratum") == s], 2.0)
              for s in ladders}
    # c of each stratum: its ratios behave like gap^c, negative for growth
    report.parameters["stratum_slopes"] = {s: t.c for s, t in trends.items()}
    report.bound_constant = max(r["ratio"] for r in report.samples if "ratio" in r)
    stratum = _decide(report, trends)
    if report.verdict == VERDICT_VIOLATED:
        report.fitted_exponent = trends[stratum].c
        report.parameters["growing_stratum"] = stratum
    return report


# ----------------------------------------------------------------------
# disc-level verifications

_DISC_LOG_TOLERANCE = 0.10  # relative error of both laws, against pi and -1/2
# the deepest level j of a disc ladder |z| = 1 - 2^-j: past it |z| rounds to 1
DISC_MAX_LEVELS = 53


def _disc_ladder_report(experiment: str, levels: int, params: dict) -> VerificationReport:
    """The report of a disc ladder of ``levels`` levels before its samples."""
    if not LADDER_MIN_VALUES <= levels <= DISC_MAX_LEVELS:
        raise ValueError(f"levels must be at least {LADDER_MIN_VALUES} and at most "
                         f"{DISC_MAX_LEVELS}, got {levels}")
    return VerificationReport(experiment, {**params, "levels": levels})


def verify_calculus1(eps: float, beta: float, levels: int, *, radial_nodes: int,
                     angular_nodes: int) -> VerificationReport:
    """Plateau check for the weighted disc integral I_(eps,beta).

    Computes I(z) (1 - |z|^2)^eps along |z| = 1 - 2^-j; the claim is a
    one-sided bound, so the product ladder must be bounded, and its limit
    is the ``bound_constant``.
    """
    if not 0.0 < eps < 1.0:
        raise DivergentIntegralError(f"need 0 < eps < 1, got {eps}")
    if not 0.0 <= beta < 2.0:
        raise DivergentIntegralError(f"need 0 <= beta < 2, got {beta}")
    report = _disc_ladder_report("calculus1", levels, {"eps": eps, "beta": beta})
    i0 = disc_kernel_moment(0.0, eps, beta, radial_nodes, angular_nodes)
    report.samples.append({"abs_z": 0.0, "value": i0, "product": i0,
                           "provenance": "quadrature"})
    for j in range(1, levels + 1):
        a = 1.0 - 2.0**-j
        val = disc_kernel_moment(a, eps, beta, radial_nodes, angular_nodes)
        report.samples.append({"abs_z": a, "value": val, "product": val * (1.0 - a * a) ** eps,
                               "provenance": "quadrature"})
    values, products = zip(*((s["value"], s["product"]) for s in report.samples[1:]))
    trend = _ladder_trend(products, 2.0)
    _decide(report, {"product": trend})
    report.fitted_exponent = _ladder_trend(values, 2.0).c
    report.bound_constant = trend.limit
    report.parameters["last_product"] = products[-1]
    return report


def verify_disc_log(levels: int, *, radial_nodes: int, angular_nodes: int) -> VerificationReport:
    """Check the -log(delta) law of the unweighted kernel mass on the disc.

    The integral of |1 - z conj(w)|^-2 grows like pi * (-log delta(z)), by
    pi ln 2 per level delta = 2^-j; with the calculus-1 weight
    (1 - |w|^2)^(-1/2) inserted, the growth switches to the delta^(-1/2)
    power law, c = -1/2.  Both must land within 10% (``_DISC_LOG_TOLERANCE``).
    """
    report = _disc_ladder_report("disc_log", levels, {"tolerance": _DISC_LOG_TOLERANCE})
    v0 = disc_kernel_moment(0.0, 0.0, 0.0, radial_nodes, angular_nodes)
    report.samples.append({"abs_z": 0.0, "value": v0, "kind": "plain",
                           "provenance": "quadrature"})
    for j in range(1, levels + 1):
        a = 1.0 - 2.0**-j
        val = disc_kernel_moment(a, 0.0, 0.0, radial_nodes, angular_nodes)
        wval = disc_kernel_moment(a, 0.5, 0.0, radial_nodes, angular_nodes)
        report.samples.append({"abs_z": a, "value": val, "weighted_value": wval,
                               "ratio_to_log": val / (-math.log(1.0 - a)),
                               "kind": "ladder",
                               "provenance": "quadrature"})
    slope = (report.samples[-1]["value"] - report.samples[-2]["value"]) / math.log(2.0)
    trend = _ladder_trend([s["weighted_value"] for s in report.samples[1:]], 2.0)
    report.parameters["log_law_slope"] = slope
    report.parameters["log_law_slope_over_pi"] = slope / math.pi
    report.parameters["decided_by"] = trend.decided_by("weighted")
    report.fitted_exponent = trend.c
    ok = (trend.kind == "growing" and abs(slope / math.pi - 1.0) < _DISC_LOG_TOLERANCE
          and abs(trend.c / -0.5 - 1.0) < _DISC_LOG_TOLERANCE)
    report.verdict = VERDICT_CONSISTENT if ok else VERDICT_INCONCLUSIVE
    return report


# ----------------------------------------------------------------------
# divergence scan (sharpness half; valid for real exponents)

_DIVERGENCE_TOLERANCE = 0.02  # relative error of the measured critical p


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


def divergence_scan(d: DomainSpec, p_grid: Sequence[float],
                    delta_grid: Sequence[float]) -> VerificationReport:
    """Measure where the projection of conj(z2) leaves L^p.

    The projected function is a constant times 1/z2, so its p-th power
    mass on the core |z2| > delta behaves like the 1-d integral of
    r^(1 - p + 2/k): it saturates for p < 2 + 2/k and grows like
    delta^(2 - p + 2/k) beyond (with a log at the endpoint).  On offsets
    that shrink by one ratio, :func:`_ladder_trend` reads each p's masses
    with c = 2 + 2/k - p (``fitted_slope`` -c), and p + c of the row with
    the smallest |c| is compared against (2k+2)/k.  Real (non-integer)
    exponents are fully supported.
    """
    deltas = sorted(float(x) for x in delta_grid)[::-1]
    ratio = _rung_ratio(deltas)
    if not all(math.isfinite(p) for p in p_grid):
        raise ValueError(f"exponents p must be finite, got {list(p_grid)}")
    p_crit = 2.0 + 2.0 / d.k
    report = VerificationReport(
        experiment="divergence_scan",
        parameters={"k": d.k, "p_critical_formula": p_crit,
                    "delta_min": deltas[-1], "delta_max": deltas[0],
                    "tolerance": _DIVERGENCE_TOLERANCE, "p_critical_empirical": None,
                    "p_critical_rel_err": None, "decided_by": None},
    )

    masses = _z2_power_masses(d, deltas)
    rows_ok, trends = True, []
    for p in p_grid:
        vals = masses(p)
        trend = _ladder_trend(vals, ratio)
        cls = "saturating" if trend.kind == "bounded" else trend.kind
        row = {"p": p, "classification": cls,
               "fitted_slope": None if trend.c is None else -trend.c,
               "provenance": "quadrature"}
        rows_ok = rows_ok and cls != VERDICT_INCONCLUSIVE
        if cls == "saturating":
            exact = radial_moment(d, 0.0, -p)
            row.update(limit=trend.limit, exact_limit=exact,
                       limit_rel_err=abs(trend.limit - exact) / exact)
        elif cls == "growing":
            predicted = row["predicted_exponent"] = 2.0 - p + 2.0 / d.k
            if abs(predicted) > 0.05:  # power growth; the endpoint is log-type
                row["exponent_rel_err"] = abs(trend.c - predicted) / abs(predicted)
                rows_ok = rows_ok and row["exponent_rel_err"] < 0.05
            else:
                row["growth_type"] = "logarithmic"
        trends.append((p, trend))
        for dd, val in zip(deltas, vals):
            report.samples.append({"p": p, "delta": dd, "value": val,
                                   "provenance": "quadrature"})
        report.parameters.setdefault("grid_rows", []).append(row)

    readable = [(p, trend) for p, trend in trends if trend.c is not None]
    if readable:
        p, trend = min(readable, key=lambda row: abs(row[1].c))
        rel = abs(p + trend.c - p_crit) / p_crit
        report.parameters.update(p_critical_empirical=p + trend.c, p_critical_rel_err=rel,
                                 decided_by=trend.decided_by(f"p = {p}"))
        if rel < _DIVERGENCE_TOLERANCE and rows_ok:
            report.verdict = VERDICT_CONSISTENT
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
