"""The positive half: Schur-test machinery, from the disc up to the domain.

On the unit disc, the kernel mass against the weight (1-|w|^2)^(-eps)
grows exactly like (1-|z|^2)^(-eps), and without a weight it grows like
-log(distance).  On the domain, integrating |B_k| against the weight
|w2|^(-2 eps) times an edge factor (the boundary surrogate h^(-eps) when
eps < 0.995) stays comparable to that weight for eps in [1/2, (k+2)/(2k))
-- and the exponent algebra of that window is exactly the sharp L^p
interval.  Crossing the window's upper edge flips the
measured behavior from saturation to growth: past it the weight is
|w2|^(-2 eps) alone, and its integral diverges at the singular corner.
"""

from fractions import Fraction

from fathartogs import (
    DomainSpec,
    SchurConfig,
    schur_range,
    verify_calculus1,
    verify_disc_log,
    verify_schur,
)

nodes = dict(radial_nodes=12, angular_nodes=32)

print("disc-level estimates:")
rep = verify_disc_log(levels=10, **nodes)
print(f"  unweighted mass ~ -log(delta): slope/pi = "
      f"{rep.parameters['log_law_slope_over_pi']:.4f}, verdict {rep.verdict}")
rep = verify_calculus1(0.5, 1.0, levels=10, **nodes)
print(f"  weighted integral * (1-|z|^2)^eps plateaus at {rep.bound_constant:.4f},"
      f" verdict {rep.verdict}")

print("\nexponent-window algebra (exact rationals):")
for k in (1, 2, 3):
    b = Fraction(k + 2, 2 * k)
    window = schur_range(Fraction(1, 2), b)
    print(f"  k={k}: window [1/2, {b}) -> p in ({window.p_low}, {window.p_high})")

print("\nSchur verification on the k=2 domain (about 0.15 s on 2 cores):")
d = DomainSpec(2)
for eps in (0.75, 1.1):
    rep = verify_schur(d, SchurConfig(eps=eps, ladder_levels=6))
    tag = "expected" if rep.expected_violation else "stated-window"
    print(f"  eps={eps}: verdict {rep.verdict}"
          + (f" (bound constant ~ {rep.bound_constant:.2f})"
             if rep.bound_constant else f" [{tag}]"))
