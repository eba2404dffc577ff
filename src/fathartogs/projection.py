"""The Bergman projection as a computable operator.

Two evaluation paths are provided.  ``project_numeric`` applies the
closed-form kernel under the quadrature engine and works for any
integrand; ``project_numeric_monomial`` sums the same quadrature for a
monomial input from 1-d angular DFTs of the kernel's factors.
``project_monomial`` is exact for inputs of the form w^a * conj(w)^b:
the angular integrals kill every basis term except gamma = a - b, so
the projection is a single monomial

    B_k(w^a conj(w)^b) = [ M(gamma + a + b) / ||z^gamma||^2 ] z^gamma

when gamma lies in the basis index set, and zero otherwise, with M the
exact radial moment.  All normalizing constants flow through
:func:`fathartogs.quadrature.radial_moment` as the single source of
truth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import DomainSpec, Point2, contains
from .kernel import MultiIndex, _closed_modes, _closed_t_factor, kernel_closed_st
from .quadrature import (DivergentIntegralError, QuadratureSpec, _core_axes,
                         _real_unless_complex, integrate, radial_moment)

__all__ = [
    "MonomialInput",
    "ProjectedMonomial",
    "NonIntegrableInputError",
    "ProjectionAccuracyWarning",
    "project_monomial",
    "project_numeric",
    "project_numeric_monomial",
]


class NonIntegrableInputError(ValueError):
    """The requested input is not integrable on the domain."""


class ProjectionAccuracyWarning(UserWarning):
    """Evaluation point too close to the boundary for the configured offset."""


@dataclass(frozen=True)
class MonomialInput:
    """An input w^hol * conj(w)^antihol for the exact projection path."""

    hol: MultiIndex
    antihol: MultiIndex

    def integrand(self) -> Callable:
        a1, a2 = self.hol.a1, self.hol.a2
        b1, b2 = self.antihol.a1, self.antihol.a2

        # each variable's factor on its own (smaller) shape, so that only
        # the last product is formed on the full grid
        def f(z1, z2):
            return (z1**a1 * np.conj(z1) ** b1) * (z2**a2 * np.conj(z2) ** b2)

        return f

    def modulus_exponents(self) -> tuple[int, int]:
        """Exponents (m1, m2) of |f| = |z1|^m1 |z2|^m2."""
        return (self.hol.a1 + self.antihol.a1, self.hol.a2 + self.antihol.a2)

    def angular_modes(self) -> tuple[int, int]:
        """Modes (mu1, mu2) = hol - antihol of f = |f| e^(i(mu1 theta1 + mu2 theta2))."""
        return (self.hol.a1 - self.antihol.a1, self.hol.a2 - self.antihol.a2)


@dataclass(frozen=True)
class ProjectedMonomial:
    """Result coeff * z^index of projecting a monomial input."""

    index: MultiIndex
    coeff: float

    def evaluate(self, z1, z2):
        return self.coeff * z1**self.index.a1 * z2**self.index.a2


def basis_norm_sq(d: DomainSpec, alpha: MultiIndex) -> float:
    """Squared L2 norm of the basis monomial z^alpha.

    Exactly the radial moment of |z1|^(2 a1) |z2|^(2 a2); finiteness is
    equivalent to membership of alpha in the basis index set.
    """
    return radial_moment(d, 2.0 * alpha.a1, 2.0 * alpha.a2)


def project_monomial(d: DomainSpec, m: MonomialInput) -> Optional[ProjectedMonomial]:
    """Exact Bergman projection of w^a conj(w)^b, or ``None`` when it is 0.

    The angular selection rule leaves only gamma = a - b; the result is
    ``None`` (the zero function) when gamma is outside the basis set.
    """
    k = d.k_int()
    m1, m2 = m.modulus_exponents()
    try:
        radial_moment(d, m1, m2)
    except DivergentIntegralError as exc:
        raise NonIntegrableInputError(f"input monomial is not integrable: {exc}") from exc
    gamma = MultiIndex(*m.angular_modes())
    if not gamma.in_basis(k):
        return None
    overlap = radial_moment(d, gamma.a1 + m1, gamma.a2 + m2)
    return ProjectedMonomial(gamma, overlap / basis_norm_sq(d, gamma))


def _warn_if_near_boundary(d: DomainSpec, z: Point2, delta: float) -> None:
    v = abs(z.z2)
    u = abs(z.z1) / v ** (1.0 / d.k) if v > 0 else 1.0
    if v < 2.0 * delta or v > 1.0 - 2.0 * delta or u > 1.0 - 2.0 * delta:
        warnings.warn(
            f"evaluation point {z} is within 2*delta of the boundary; "
            "projection accuracy is degraded",
            ProjectionAccuracyWarning,
            stacklevel=3,
        )


def project_numeric(
    d: DomainSpec, f: Callable, z: Point2, spec: QuadratureSpec
) -> complex:
    """Quadrature approximation of the projection integral at the point z.

    ``f`` follows the vectorized integrand contract of
    :func:`fathartogs.quadrature.integrate`, whose core grid is walked in
    u blocks; each block's kernel values come from one call of the grid
    form of :func:`fathartogs.kernel.kernel_closed_st`.  A kernel
    evaluation closer to its singular set than the floor raises
    ``NearSingularError``, and a non-integer exponent
    ``NonIntegerExponentError``, both from :mod:`fathartogs.kernel`;
    points within two boundary offsets of the boundary trigger an
    accuracy warning.
    """
    if not contains(d, z):
        raise ValueError(f"evaluation point {z} is not interior")
    _warn_if_near_boundary(d, z, spec.boundary_offset)

    # one kernel workspace for every block: the first block is the largest,
    # and a shorter last one takes the front of it.  Every block has the
    # same v and theta2 nodes, so the kernel's (v, theta2) factor is formed
    # once, on the first block
    work = t0 = t_factor = None

    def g(w1, w2):
        nonlocal work, t0, t_factor
        # the invariants at zero angles, where exp(0) = 1: s and t there
        s0 = z.z1 * np.conj(w1[:, :, 0, 0])
        if work is None:
            rows, cols, n = w1.shape[:3]
            work = np.empty((2, rows, cols, n, n), dtype=complex)
            t0 = z.z2 * np.conj(w2[0, :, 0, 0])
            t_factor = _closed_t_factor(d, t0, n)
        out = kernel_closed_st(d, s0, t0, work=work[:, : s0.shape[0]], t_factor=t_factor)
        out *= f(w1, w2)
        return out

    return complex(integrate(d, g, spec))


def project_numeric_monomial(
    d: DomainSpec, m: MonomialInput, z: Point2, spec: QuadratureSpec
) -> complex:
    """The quadrature sum of ``project_numeric(d, m.integrand(), z, spec)``
    for a monomial input, without a kernel block.

    The input w^a conj(w)^b is R e^(i(mu1 theta1 + mu2 theta2)) with
    mu = a - b and R = |w1|^(a1+b1) |w2|^(a2+b2).  The angle sums keep
    only the kernel's angular mode that matches mu, the selection rule
    that :func:`project_monomial` applies exactly; on the uniform angle
    nodes that mode is a sum of 1-d DFTs of the kernel's factors, so the
    trapezoid sum over (theta1, theta2) costs k outer products on the
    (u, v) grid in place of n^2 kernel entries per node (see
    ``kernel._closed_modes``).  The (u, v) sum is then weighted by
    ``wu R wv`` on the same graded Gauss rule.  It is the same sum as the
    callable path's, aliasing included, and the result follows the same
    rule for a negligible imaginary part.  Raises the same errors and
    warning as :func:`project_numeric`.
    """
    if not contains(d, z):
        raise ValueError(f"evaluation point {z} is not interior")
    _warn_if_near_boundary(d, z, spec.boundary_offset)
    k = d.k_int()
    (u, wu), (v, wv), (theta, w_theta), _ = _core_axes(d, spec)
    r1 = u[:, None] * v ** (1.0 / d.k)  # |w1| on the (u, v) grid
    t0 = z.z2 * v
    modes = _closed_modes(k, z.z1 * r1, t0, _closed_t_factor(d, t0, theta.size),
                          *m.angular_modes())
    m1, m2 = m.modulus_exponents()
    total = np.einsum("u,uv,v->", wu, modes * (r1**m1 * v**m2), wv)
    # the trapezoid weights are all equal
    return complex(_real_unless_complex(total * w_theta[0] ** 2))
