"""Apply the Bergman projection exactly and numerically.

On monomial inputs w^a conj(w)^b the angular integrals collapse to a
single surviving basis index gamma = a - b, so the projection is exact
arithmetic on radial moments.  The quadrature path, ``project_numeric``
of the same ``MonomialInput``, reproduces it, and reproduces holomorphic
inputs themselves (the defining property of the kernel).
"""

from fathartogs import (
    DomainSpec,
    MonomialInput,
    MultiIndex,
    Point2,
    QuadratureSpec,
    project_monomial,
    project_numeric,
)

spec = QuadratureSpec(radial_nodes=6, angular_nodes=24, boundary_offset=1e-6)

print("projection of conj(z2): a single negative-index basis monomial survives,")
print("with coefficient 1/(k+1):")
m = MonomialInput(MultiIndex(0, 0), MultiIndex(0, 1))
for k in (1, 2, 3):
    d = DomainSpec(k)
    res = project_monomial(d, m)
    z = Point2(0.1, 0.5)
    numeric = project_numeric(d, m, z, spec)
    exact = res.evaluate(z.z1, z.z2)
    print(f"  k={k}: B(conj(z2)) = {res.coeff:.6f} * z2^({res.index.a2})"
          f"   numeric at z: {numeric:.6f} vs exact {exact:.6f}")

print("\nanti-holomorphic z1 projects to zero (its index leaves the basis set):")
print(f"  k=1: {project_monomial(DomainSpec(1), MonomialInput(MultiIndex(0, 0), MultiIndex(1, 0)))}")

print("\nreproducing property, numerically, for a few basis monomials (k=2):")
d = DomainSpec(2)
z = Point2(0.35, 0.5)
for alpha in (MultiIndex(1, 0), MultiIndex(0, -1), MultiIndex(2, 1)):
    got = project_numeric(d, MonomialInput(alpha, MultiIndex(0, 0)), z, spec)
    want = z.z1**alpha.a1 * z.z2**alpha.a2
    print(f"  alpha=({alpha.a1},{alpha.a2}): projected {got:.8f}"
          f"  vs  z^alpha {want:.8f}  (rel {abs(got - want) / abs(want):.1e})")
