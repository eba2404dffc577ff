"""The sharp L^p window and the measurement that certifies its upper edge.

The projection is L^p bounded exactly for p in ((2k+2)/(k+2), (2k+2)/k),
an interval that collapses to {2} as the domain fattens.  The upper edge
is certified by a single input: conj(z2) projects to a multiple of 1/z2,
whose p-th power mass on cores |z2| > delta stops saturating exactly at
p = 2 + 2/k.  The scan below measures that transition, including for a
non-integer exponent.
"""

import numpy as np

from fathartogs import DomainSpec, critical_range, divergence_scan

for k in (1, 2, 5, 40):
    rng = critical_range(DomainSpec(k))
    print(f"k={k:3}: bounded exactly for p in ({rng.p_low}, {rng.p_high})")

deltas = np.geomspace(1e-2, 1e-10, 9)
for k in (1.0, 2.0, 1.5):
    d = DomainSpec(k)
    p_c = 2 + 2 / k
    rep = divergence_scan(d, [p_c - 0.5, p_c, p_c + 1.0], deltas)
    print(f"\nk={k}: predicted critical p = {p_c:.4f}, "
          f"measured {rep.parameters['p_critical_empirical']:.4f} "
          f"({rep.parameters['p_critical_rel_err']:.2%} off)")
    for row in rep.parameters["grid_rows"]:
        extra = (f"saturates to {row['limit']:.4f} (exact {row['exact_limit']:.4f})"
                 if row["classification"] == "saturating"
                 else f"grows, fitted slope {row['fitted_slope']:.3f}"
                      + (" [log-type]" if row.get("growth_type") else ""))
        print(f"   p={row['p']:.3f}: {row['classification']:>10} -- {extra}")
