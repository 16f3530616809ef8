"""The predictable-representation decomposition and its truncation error.

Every finitely supported expansion splits exactly into mean + sum over
(slot ell, Hermite order m) of an adapted integrand times H_m of the ell-th
increment.  Truncating at order n leaves the coefficients whose last nonzero
entry exceeds n; after refining by N1 that error norm is computable exactly
and obeys ||Err|| <= ||F||_{2,s+rn} / (n! N1^n)^{r/2}.
"""

import numpy as np

from chaosco import chaos, clark_ocone as co
from chaosco.chaos import ChaosExpansion, GridSpec
from chaosco import multiindex as mi

rng = np.random.default_rng(42)
grid = GridSpec(1.0, 3)
f = ChaosExpansion(grid, {a: rng.uniform(-1, 1) for a in mi.enumerate_upto(3, 4)})

d = co.decompose(f)
print(f"decomposition of a random degree-4 expansion on 3 slots: "
      f"mean {d.mean:.4f}, {len(d.terms)} (ell, m) terms")
back = co.reconstruct(d)
print(f"reconstruction exact: {back.coeffs == f.coeffs}")

# the bound across refinement factors, and how tight it is
print("\n n  N1   error norm      bound        holds")
for n in (1, 2):
    for n1 in (4, 16, 64):
        check = co.verify_bound(f, n, n1, s=0.0, r=1.0)
        print(f" {n}  {n1:3d}  {check.lhs:.6e}  {check.rhs:.6e}  {check.holds}")

# the decay rate in N1 is the advertised -n/2 per order
n1_list = [4, 8, 16, 32, 64, 128, 256]
for n in (1, 2, 3):
    slope, _ = co.fit_loglog_slope(n1_list, [co.err_norm_refined(f, n, n1, 0.0) for n1 in n1_list])
    print(f"order n={n}: fitted log-log slope {slope:.3f} (theory -{n}/2)")

# a zeta-function diagnostic bound for the first-order error at the grid's
# own resolution, for comparison with the exact norm
f1 = ChaosExpansion(GridSpec(1.0, 1), {(2,): 1.0})
print(f"\nH_2 example: exact first-order error {co.err_norm_refined(f1, 1, 1, 0.0):.4f}, "
      f"zeta diagnostic {co.zeta_error_bound(f1, 1):.4f}")
