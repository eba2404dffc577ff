"""Geometry of the fat Hartogs triangles.

The domain of interest is the bounded pseudoconvex domain

    Omega_k = {(z1, z2) in C^2 : |z1|^k < |z2| < 1 },

parameterized by an exponent k >= 1.  Integer k is required by the
closed-form kernel machinery; real k >= 1 is accepted here and by the
divergence scans.  This module provides membership, volume, the
boundary-distance surrogate h, uniform sampling, and deterministic
ladders of interior points approaching each boundary stratum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainSpec",
    "Point2",
    "OutsideDomainError",
    "NonIntegerExponentError",
    "contains",
    "volume",
    "aux_h",
    "sample_uniform",
    "boundary_ladder",
]


class OutsideDomainError(ValueError):
    """A point lies outside the (closed) domain where it is required inside."""


class NonIntegerExponentError(ValueError):
    """An operation needing the closed-form kernel got a non-integer exponent."""


@dataclass(frozen=True)
class DomainSpec:
    """The fat Hartogs triangle of exponent ``k = exponent``.

    ``integer_exponent`` is derived on construction; kernel-formula
    operations read the exponent through :meth:`k_int`, which raises
    ``NonIntegerExponentError`` when it is not an integer.
    """

    exponent: float
    integer_exponent: bool = field(init=False)

    def __post_init__(self) -> None:
        k = float(self.exponent)
        if not math.isfinite(k) or k < 1.0:
            raise ValueError(f"exponent must be a finite real >= 1, got {self.exponent!r}")
        object.__setattr__(self, "exponent", k)
        object.__setattr__(self, "integer_exponent", k == math.floor(k))

    @property
    def k(self) -> float:
        return self.exponent

    def k_int(self) -> int:
        """The exponent as an integer; raises if it is not one."""
        if not self.integer_exponent:
            raise NonIntegerExponentError(
                f"operation requires integer exponent, got k={self.exponent}"
            )
        return int(self.exponent)


@dataclass(frozen=True)
class Point2:
    """A point (z1, z2) of C^2."""

    z1: complex
    z2: complex


def contains(d: DomainSpec, p: Point2) -> bool:
    """Strict membership test |z1|^k < |z2| < 1."""
    return abs(p.z1) ** d.k < abs(p.z2) < 1.0


def _in_closure(d: DomainSpec, p: Point2) -> bool:
    return abs(p.z1) ** d.k <= abs(p.z2) <= 1.0


def volume(d: DomainSpec) -> float:
    """Lebesgue volume of the domain, pi^2 k / (k+1)."""
    return math.pi**2 * d.k / (d.k + 1.0)


def aux_h(d: DomainSpec, p: Point2) -> float:
    """Boundary-distance surrogate h(z) = (|z2|^2 - |z1|^(2k)) (1 - |z2|^2).

    Strictly positive on the interior and zero on every boundary stratum,
    including the singular corner at the origin.  Points outside the
    closed domain are rejected.
    """
    if not _in_closure(d, p):
        raise OutsideDomainError(f"point {p} outside the closed domain (k={d.k})")
    r1 = abs(p.z1)
    r2 = abs(p.z2)
    return (r2**2 - r1 ** (2.0 * d.k)) * (1.0 - r2**2)


def _box_to_z(d: DomainSpec, u, v, th1, th2):
    """The point (z1, z2) at box coordinates u = |z1| / |z2|^(1/k),
    v = |z2| and the two angles."""
    return u * v ** (1.0 / d.k) * np.exp(1j * th1), v * np.exp(1j * th2)


def sample_uniform(
    d: DomainSpec, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` i.i.d. points uniform w.r.t. Lebesgue measure on the domain.

    Sampling is by inverse CDF in polar coordinates: |z2| has marginal
    density proportional to r2^(1 + 2/k), then |z1|^2 is uniform on
    [0, |z2|^(2/k)), and both angles are uniform.  Deterministic given
    ``seed``.  Returns the pair of complex arrays ``(z1, z2)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    c = 2.0 + 2.0 / d.k
    # the |z2| variates come first, so each seed keeps its points
    v = rng.random(n) ** (1.0 / c)
    u = np.sqrt(rng.random(n))
    th1 = rng.uniform(0.0, 2.0 * math.pi, n)
    th2 = rng.uniform(0.0, 2.0 * math.pi, n)
    return _box_to_z(d, u, v, th1, th2)


_STRATA = ("outer", "inner", "corner")


def boundary_ladder(d: DomainSpec, stratum: str, levels: int) -> list[Point2]:
    """Deterministic interior points approaching one boundary stratum.

    ``outer``  : z_j = (0, 1 - 2^-j), approaching |z2| = 1;
    ``inner``  : z_j = (1/2, c + (1-c) 2^-(j+1)) with c = 2^-k,
                 approaching |z2| = |z1|^k;
    ``corner`` : z_j = (0, 2^-j), approaching the singular corner (0, 0).

    Consecutive points halve the relevant gap; j runs 1..levels.  A point
    that rounds onto the boundary (the outer one from j = 54, the inner one
    from j = 52 to 56 for k = 1 to 4) raises ``ValueError`` naming the
    stratum and its level.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    if stratum not in _STRATA:
        raise ValueError(f"stratum must be one of {_STRATA}, got {stratum!r}")
    pts: list[Point2] = []
    for j in range(1, levels + 1):
        if stratum == "outer":
            pts.append(Point2(0j, complex(1.0 - 2.0**-j)))
        elif stratum == "corner":
            pts.append(Point2(0j, complex(2.0**-j)))
        else:
            c = 0.5 ** d.k
            pts.append(Point2(complex(0.5), complex(c + (1.0 - c) * 2.0 ** -(j + 1))))
        if not contains(d, pts[-1]):
            raise ValueError(f"the {stratum} ladder point of level {j} rounds to the "
                             f"boundary (k = {d.k:g}); use fewer levels")
    return pts
