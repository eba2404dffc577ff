"""The Bergman projection as a computable operator.

Two evaluation paths are provided.  ``project_numeric`` applies the
closed-form kernel under the quadrature engine, through the kernel's 1-d
factor tables alone: a :class:`MonomialInput` is summed from 1-d angular
DFTs of those tables, and any other vectorized integrand is contracted
against them one u slice of the tensor grid at a time.
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
# kernel_closed_st and integrate are not called here: perfbench/tracing.py wraps them by name
from .kernel import (MultiIndex, _closed_modes, _closed_rho_factor, _closed_t_factor,
                     kernel_closed_st)
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
    over the domain core's rule, with the closed-form kernel evaluated
    through its 1-d factor tables (``kernel._closed_rho_factor`` and
    ``kernel._closed_t_factor``); no kernel block is formed.

    A :class:`MonomialInput` w^a conj(w)^b is R e^(i(mu1 theta1 + mu2 theta2))
    with mu = a - b.  The angle sums keep only the kernel's mode that
    matches mu, the selection rule of :func:`project_monomial`, which is a
    sum of 1-d DFTs of the factor tables (``kernel._closed_modes``).  Any
    other ``f`` follows the integrand contract of
    :func:`fathartogs.quadrature.integrate`: it is called once per u node,
    on that node's (v, theta1, theta2) slice, and each of the kernel's k
    terms is contracted against it, over v and then over both angles.
    Both give the same sum, aliasing included.

    Raises ``NearSingularError`` and ``NonIntegerExponentError`` from
    :mod:`fathartogs.kernel`; points within two boundary offsets of the
    boundary trigger an accuracy warning.
    """
    if not contains(d, z):
        raise ValueError(f"evaluation point {z} is not interior")
    _warn_if_near_boundary(d, z, spec.boundary_offset)
    k = d.k_int()
    (u, wu), (v, wv), (theta, w_theta), _ = _core_axes(d, spec)
    n = theta.size
    t0 = z.z2 * v
    t_factor = _closed_t_factor(d, t0, n)
    r1 = u[:, None] * v ** (1.0 / d.k)  # |w1| on the (u, v) grid
    s0 = z.z1 * r1
    rho_factor = _closed_rho_factor(d, s0, t0, n)
    if isinstance(f, MonomialInput):
        modes = _closed_modes(k, s0, rho_factor, t_factor, *f.angular_modes())
        m1, m2 = f.modulus_exponents()
        total = np.einsum("u,uv,v->", wu, modes * (r1**m1 * v**m2), wv)
    else:
        # in the factored form B = sum_i e^(-i i theta1) T_i[u, m] s0^i G_i[v, j2],
        # term i of a u node's slice of f is the slice times wv s0^i G_i,
        # summed over v, then over both angles against T_i gathered at
        # m = (j2 - k j1) mod n, times e^(-i i theta1).  The sums run in
        # numpy's own loops, not BLAS, whose sums change with the thread count
        e = np.exp(1j * theta)
        w2 = (v[:, None] * e)[:, None, :]  # (v, 1, theta2)
        j = np.arange(n)
        m = (j - k * j[:, None]) % n  # (theta1, theta2)
        phase = np.exp(-1j * np.arange(k)[:, None, None] * theta[:, None])  # (k, theta1, 1)
        work = np.empty((v.size, n, n), dtype=complex)
        total = 0j
        for a in range(u.size):
            vals = f(r1[a, :, None, None] * e[:, None], w2)
            for i in range(k):
                g = (wv * s0[a] ** i)[:, None] * t_factor[i]  # (v, theta2)
                np.multiply(vals, g[:, None, :], out=work)
                sums = np.add.reduce(work, axis=0)  # (theta1, theta2)
                total += wu[a] * np.einsum("ij,ij->", rho_factor[i, a][m] * phase[i], sums)
            # freed before f forms the next slice, which then reuses its
            # memory: two slices alive at once let the heap trim one of them
            # and fault its pages in again for the next node
            del vals
    # the trapezoid weights are all equal
    return complex(_real_unless_complex(total * w_theta[0] ** 2))
