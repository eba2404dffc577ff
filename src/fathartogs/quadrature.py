"""Integration engine over the fat Hartogs triangles and the unit disc.

Two integration paths back every verification experiment:

* exact radial moments of |z1|^m1 |z2|^m2 from the closed form
  4 pi^2 / [(m1+2)(m2+2+(m1+2)/k)];
* tensor-product quadrature in box coordinates (u, v, theta1, theta2),
  u = |z1| / v^(1/k), v = |z2|, where the domain is the box
  (0,1) x (0,1) x [0,2pi)^2 and the Jacobian is u v^(1+2/k) -- panels
  are geometrically graded toward the delta-offset boundary so that
  algebraic endpoint behavior costs log(1/delta) panels, not accuracy.

A separate engine integrates kernel-weighted densities over the unit
disc, with Gauss-Jacobi end rules absorbing the r^(-beta) singularity at
the origin (in the variable u = r^2) and the (1-r^2)^(-eps) blow-up at
the rim (in the rim distance s = 1 - r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import DomainSpec, _box_to_z

__all__ = [
    "QuadratureSpec",
    "DivergentIntegralError",
    "radial_moment",
    "integrate",
    "disc_kernel_moment",
    "graded_rule",
    "angle_rule",
]


class DivergentIntegralError(ValueError):
    """A requested integral diverges; the message names the violated inequality."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and boundary offset of the domain-core quadrature.

    ``radial_nodes`` is the Gauss order used on each automatically graded
    radial panel (panel counts scale like log(1/boundary_offset));
    ``angular_nodes`` is the number of periodic trapezoid nodes per angle.
    """

    radial_nodes: int = 10
    angular_nodes: int = 24
    boundary_offset: float = 1e-6

    def __post_init__(self) -> None:
        if self.radial_nodes < 2 or self.angular_nodes < 2:
            raise ValueError("node counts must be >= 2")
        # the core's u rule has a fixed Gauss panel on [0, 0.75] below its
        # graded panels on [0.75, 1 - boundary_offset]
        if not 0.0 < self.boundary_offset < 0.25:
            raise ValueError(f"boundary_offset must lie in (0, 0.25), got {self.boundary_offset}")


# ----------------------------------------------------------------------
# one-dimensional rules

def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays made read-only: cached rules are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=128)
def _legendre01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(n)
    return _frozen((x + 1.0) / 2.0, w / 2.0)


@lru_cache(maxsize=128)
def _gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [-1, 1] for the weight (1-x)^a (1+x)^b, a, b > -1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the monic recurrence p_(j+1) = (x - alpha_j) p_j - beta_j p_(j-1),
    polished by two Newton steps on that recurrence.  The weights are
    proportional to 1 / ((1-x^2) p_n'(x)^2) and are scaled to sum to the
    weight's mass 2^(a+b+1) B(a+1, b+1).
    """
    j = np.arange(n, dtype=float)
    s = 2.0 * j + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = (b * b - a * a) / (s * (s + 2.0))
        beta = 4.0 * j * (j + a) * (j + b) * (j + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    # j = 0 and j = 1 have removable 0/0 forms when a + b is 0 or -1;
    # beta_0 multiplies p_(-1) = 0
    alpha[0], beta[0] = (b - a) / (a + b + 2.0), 0.0
    if n > 1:
        beta[1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    x = np.linalg.eigvalsh(np.diag(alpha) + np.diag(np.sqrt(beta[1:]), -1))

    def recurrence(x):
        p_prev, p = np.zeros_like(x), np.ones_like(x)
        dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
        for i in range(n):
            p_prev, p, dp_prev, dp = (p, (x - alpha[i]) * p - beta[i] * p_prev,
                                      dp, p + (x - alpha[i]) * dp - beta[i] * dp_prev)
        return p, dp

    for _ in range(2):
        p, dp = recurrence(x)
        x = x - p / dp
    _, dp = recurrence(x)
    w = 1.0 / ((1.0 - x * x) * dp * dp)
    mass = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                    + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    return _frozen(x, w * (mass / w.sum()))


def gauss_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _legendre01(n)
    return a + (b - a) * x, (b - a) * w


def _join(*rules: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One rule from rules on consecutive intervals."""
    xs, ws = zip(*rules)
    return np.concatenate(xs), np.concatenate(ws)


def panel_rule(breaks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule over consecutive panels."""
    return _join(*(gauss_rule(float(a), float(b), n) for a, b in zip(breaks[:-1], breaks[1:])))


def graded_breaks(a: float, b: float, *, toward: str, floor: float, ratio: float = 4.0) -> np.ndarray:
    """Panel breakpoints on [a, b], geometrically refined toward one end.

    The panel adjacent to the refined end has width about ``floor``;
    widths grow by ``ratio`` away from it.
    """
    if not (b > a and floor > 0.0 and ratio > 1.0):
        raise ValueError("need b > a, floor > 0, ratio > 1")
    span = b - a
    floor = min(floor, span / 2.0)
    offs = [span]
    while offs[-1] > floor:
        offs.append(offs[-1] / ratio)
    if toward == "lower":
        pts = a + np.array(offs, dtype=float)
        return np.concatenate(([a], pts[::-1]))
    if toward == "upper":
        pts = b - np.array(offs, dtype=float)
        return np.concatenate((pts, [b]))
    raise ValueError("toward must be 'lower' or 'upper'")


def _jacobi_end_rule(a: float, b: float, expo: float, n: int, *,
                     toward: str) -> tuple[np.ndarray, np.ndarray]:
    """Rule for int_a^b (x-a)^expo g(x) dx (``toward="lower"``) or
    int_a^b (b-x)^expo g(x) dx (``toward="upper"``), expo > -1.

    The end weight is folded into the returned weights, so the caller
    evaluates only the smooth remainder g.
    """
    if expo <= -1.0:
        raise DivergentIntegralError(f"edge exponent must exceed -1, got {expo}")
    if expo == 0.0:
        return gauss_rule(a, b, n)
    x, w = _gauss_jacobi(n, expo, 0.0) if toward == "upper" else _gauss_jacobi(n, 0.0, expo)
    h = (b - a) / 2.0
    return a + h * (x + 1.0), w * h ** (expo + 1.0)


def graded_rule(a: float, b: float, n: int, *, toward: str, floor: float,
                ratio: float = 4.0, edge: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss rule on [a, b] over panels graded toward one end.

    Without ``edge`` this is ``panel_rule(graded_breaks(a, b, ...), n)``.
    With ``edge=expo`` a Gauss-Jacobi sliver of width ``floor`` at the
    refined end closes the rule, and the graded panels cover the rest; the
    weight (b-x)^expo (``toward="upper"``) or (x-a)^expo (``"lower"``) is
    folded into every returned weight, so the caller multiplies only the
    smooth remainder of its density.
    """
    if edge is None:
        return panel_rule(graded_breaks(a, b, toward=toward, floor=floor, ratio=ratio), n)
    lo, hi = (a + floor, b) if toward == "lower" else (a, b - floor)
    x, w = panel_rule(graded_breaks(lo, hi, toward=toward, floor=floor, ratio=ratio), n)
    if toward == "lower":
        return _join(_jacobi_end_rule(a, lo, edge, n, toward=toward), (x, w * (x - a) ** edge))
    return _join((x, w * (b - x) ** edge), _jacobi_end_rule(hi, b, edge, n, toward=toward))


def angle_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Periodic trapezoid rule on [0, 2pi).

    Spectrally accurate only for smooth periodic integrands; a kink, such
    as |N| where a kernel numerator N vanishes, caps the convergence at
    an algebraic rate.
    """
    th = np.arange(n) * (2.0 * math.pi / n)
    return th, np.full(n, 2.0 * math.pi / n)


_FINEST_PANEL = 1e-13  # where the Schur psi, inner u and v -> 1 gradings stop refining


def _aligned_angle_rule(gap: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule on [0, pi] graded toward 0, for an integrand peaked at the
    aligned angle 0 with a width of order ``gap``: the finest panel is
    gap / 16 wide, and never narrower than ``_FINEST_PANEL``."""
    return graded_rule(0.0, math.pi, n, toward="lower", floor=max(gap / 16.0, _FINEST_PANEL))


# ----------------------------------------------------------------------
# exact radial moments

def radial_moment(d: DomainSpec, m1: float, m2: float) -> float:
    """Exact value of int |z1|^m1 |z2|^m2 dV over the domain.

    Requires m1 + 2 > 0 and m2 + 2 + (m1 + 2)/k > 0; outside that region
    the integral diverges and a :class:`DivergentIntegralError` names the
    violated inequality.
    """
    if not m1 + 2.0 > 0.0:
        raise DivergentIntegralError(
            f"moment diverges at z1 = 0: need m1 + 2 > 0, got m1 = {m1}"
        )
    e2 = m2 + 2.0 + (m1 + 2.0) / d.k
    if not e2 > 0.0:
        raise DivergentIntegralError(
            "moment diverges at z2 = 0: need m2 + 2 + (m1 + 2)/k > 0, "
            f"got {e2} for (m1, m2, k) = ({m1}, {m2}, {d.k})"
        )
    return 4.0 * math.pi**2 / ((m1 + 2.0) * e2)


# ----------------------------------------------------------------------
# tensor-product quadrature over the domain core

def _core_axes(d: DomainSpec, spec: QuadratureSpec):
    """The (u, v, theta1, theta2) rules; the Jacobian u v^(1+2/k) is in the weights."""
    # the v -> 0 panels track the offset itself (negative z2-powers live
    # there); the u -> 1 and v -> 1 gradings stop at 1e-4, enough for the
    # integrable edge behavior the operation contracts cover
    delta = spec.boundary_offset
    order = spec.radial_nodes
    top = 1.0 - delta
    u, wu = _join(gauss_rule(0.0, 0.75, order),
                  graded_rule(0.75, top, order, toward="upper", floor=max(delta, 1e-4), ratio=8.0))
    v, wv = _join(graded_rule(delta, 0.5, order, toward="lower", floor=delta * 8.0, ratio=16.0),
                  graded_rule(0.5, top, order, toward="upper", floor=max(delta * 8.0, 1e-4), ratio=8.0))
    theta = angle_rule(spec.angular_nodes)
    return (u, u * wu), (v, v ** (1.0 + 2.0 / d.k) * wv), theta, theta


def integrate(d: DomainSpec, f: Callable, spec: QuadratureSpec) -> complex | float:
    """Approximate int f dV over the delta-offset core of the domain.

    ``f`` must be vectorized over numpy arrays: it receives broadcast
    complex arrays ``(z1, z2)`` on one u node's slice of the tensor grid,
    laid out (v, theta1, theta2), and returns values elementwise, real or
    complex, of any shape that broadcasts to the slice.  Each slice is
    summed in ``np.einsum``'s own loops, not BLAS, whose sums change with
    the thread count: against the angle weights, then the v weights and
    its u weight, before ``f`` is called for the next.  The result is a ``float``, or a
    ``complex`` when its imaginary part is more than rounding.
    """
    (u, wu), (v, wv), (theta, wtheta), _ = _core_axes(d, spec)
    w_angles = np.multiply.outer(wtheta, wtheta).ravel()
    shape = (v.size, theta.size, theta.size)
    total = 0.0
    for a in range(u.size):
        vals = f(*_box_to_z(d, u[a], v[:, None, None], theta[:, None], theta))
        sums = np.einsum("ij,j->i", np.broadcast_to(vals, shape).reshape(v.size, -1), w_angles)
        total += wu[a] * np.einsum("i,i->", sums, wv)
    return _real_unless_complex(complex(total))


def _real_unless_complex(value: complex) -> complex | float:
    """``value``, or its real part when the imaginary part is rounding:
    at most 1e-13 of ``max(|value|, 1)``."""
    return value if abs(value.imag) > 1e-13 * max(abs(value), 1.0) else value.real


# ----------------------------------------------------------------------
# disc-level engine

# the least node counts disc_kernel_moment accepts
DISC_MIN_RADIAL_NODES = 6
DISC_MIN_ANGULAR_NODES = 24


def _disc_radial_rule(eps: float, beta: float, rim: float, order: int):
    """Radial nodes r, rim distances s = 1 - r and weights on (0, 1), with
    the density r^(1-beta) (1-r^2)^(-eps) folded in.  The r -> 0
    singularity is integrated in u = r^2 with a u^(-beta/2) Jacobi rule,
    the rest in s, graded toward s = 0 down to ``rim`` / 8 with an
    s^(-eps) Jacobi sliver: a node near the rim keeps its distance to it.
    """
    r0 = 0.1
    # int_0^r0 r^(1-beta) g(r) dr = (1/2) int_0^(r0^2) u^(-beta/2) g(sqrt u) du
    un, uw = _jacobi_end_rule(0.0, r0 * r0, -beta / 2.0, order, toward="lower")
    rn = np.sqrt(un)
    sm, wm = graded_rule(0.0, 1.0 - r0, order, toward="lower", floor=min(rim / 8.0, 1e-2),
                         edge=-eps)
    r, s = np.concatenate((rn, 1.0 - sm)), np.concatenate((1.0 - rn, sm))
    w = np.concatenate((0.5 * uw * (1.0 - rn) ** (-eps), wm * (1.0 - sm) ** (1.0 - beta)))
    # (1-r^2)^(-eps) / s^(-eps), smooth up to the rim
    return r, s, w * (2.0 - s) ** (-eps)


def disc_kernel_moment(a: float, eps: float, beta: float, radial_nodes: int,
                       angular_nodes: int) -> float:
    """Numerical value of int_D (1-|w|^2)^(-eps) |w|^(-beta) / |1 - a conj(w)|^2 dV(w).

    ``a`` is the modulus of the evaluation point (the integral is
    rotation invariant).  Accepts eps in [0, 1), beta in [0, 2), at least
    ``DISC_MIN_RADIAL_NODES`` radial nodes (Gauss order per radial panel)
    and ``DISC_MIN_ANGULAR_NODES`` angular nodes (a quarter of them the
    Gauss order per graded panel of the angle [0, pi]).
    """
    if not 0.0 <= eps < 1.0:
        raise DivergentIntegralError(f"need 0 <= eps < 1 for disc integrability, got {eps}")
    if not 0.0 <= beta < 2.0:
        raise DivergentIntegralError(f"need 0 <= beta < 2 for disc integrability, got {beta}")
    if not 0.0 <= a < 1.0:
        raise ValueError(f"evaluation point must satisfy |z| < 1, got {a}")
    if radial_nodes < DISC_MIN_RADIAL_NODES or angular_nodes < DISC_MIN_ANGULAR_NODES:
        raise ValueError(f"disc rules need at least {DISC_MIN_RADIAL_NODES} radial and "
                         f"{DISC_MIN_ANGULAR_NODES} angular nodes, got "
                         f"{radial_nodes} and {angular_nodes}")
    rim = 1.0 - a  # exact for a >= 1/2
    r, s, wr = _disc_radial_rule(eps, beta, rim, radial_nodes)
    # the integrand peaks at the angle 0 with a width of order rim
    th, wth = graded_rule(0.0, math.pi, angular_nodes // 4, toward="lower", floor=rim / 16.0)
    # |1 - a r e^(i th)|^2 as (1 - ar)^2 + 4 ar sin^2(th/2) with 1 - ar =
    # rim + a s: the form 1 - 2 ar cos(th) + (ar)^2 cancels as a -> 1
    poisson = 1.0 / ((rim + a * s[:, None]) ** 2 + 4.0 * a * r[:, None] * np.sin(th / 2.0) ** 2)
    return float(2.0 * wr @ poisson @ wth)
