"""The Bergman projection as a computable operator.

Two evaluation paths are provided.  ``project_numeric`` applies the
closed-form kernel under the quadrature engine: a :class:`MonomialInput`
is summed from 1-d angular DFTs of the kernel's factors, and any other
vectorized integrand over kernel blocks of the tensor grid.
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
]


class NonIntegrableInputError(ValueError):
    """The requested input is not integrable on the domain."""


class ProjectionAccuracyWarning(UserWarning):
    """Evaluation point too close to the boundary for the configured offset."""


@dataclass(frozen=True)
class MonomialInput:
    """An input w^hol * conj(w)^antihol, for :func:`project_monomial` and
    :func:`project_numeric`."""

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
    d: DomainSpec, f: MonomialInput | Callable, z: Point2, spec: QuadratureSpec
) -> complex:
    """Quadrature approximation of the projection integral at the point z,
    over the domain core's rule against the grid form of
    :func:`fathartogs.kernel.kernel_closed_st`.

    A :class:`MonomialInput` w^a conj(w)^b is R e^(i(mu1 theta1 + mu2 theta2))
    with mu = a - b.  The angle sums keep only the kernel's mode that
    matches mu, the selection rule of :func:`project_monomial`, which is a
    sum of 1-d DFTs of the kernel's factors (``kernel._closed_modes``); no
    kernel block is formed.  Any other ``f`` follows the integrand
    contract of :func:`fathartogs.quadrature.integrate`, with one grid-form
    call per block.  Both give the same sum, aliasing included.

    Raises ``NearSingularError`` and ``NonIntegerExponentError`` from
    :mod:`fathartogs.kernel`; points within two boundary offsets of the
    boundary trigger an accuracy warning.
    """
    if not contains(d, z):
        raise ValueError(f"evaluation point {z} is not interior")
    _warn_if_near_boundary(d, z, spec.boundary_offset)
    (u, wu), (v, wv), (theta, w_theta), _ = _core_axes(d, spec)
    n = theta.size
    t0 = z.z2 * v
    t_factor = _closed_t_factor(d, t0, n)
    if isinstance(f, MonomialInput):
        r1 = u[:, None] * v ** (1.0 / d.k)  # |w1| on the (u, v) grid
        modes = _closed_modes(d.k_int(), z.z1 * r1, t0, t_factor, *f.angular_modes())
        m1, m2 = f.modulus_exponents()
        total = np.einsum("u,uv,v->", wu, modes * (r1**m1 * v**m2), wv)
        # the trapezoid weights are all equal
        return complex(_real_unless_complex(total * w_theta[0] ** 2))

    # one kernel workspace for every block: the first block is the largest,
    # and a shorter last one takes the front of it
    work = None

    def g(w1, w2):
        nonlocal work
        # the invariant s at zero angle, where exp(0) = 1
        s0 = z.z1 * np.conj(w1[:, :, 0, 0])
        if work is None:
            work = np.empty((2,) + s0.shape + (n, n), dtype=complex)
        out = kernel_closed_st(d, s0, t0, work=work[:, : s0.shape[0]], t_factor=t_factor)
        out *= f(w1, w2)
        return out

    return complex(integrate(d, g, spec))
