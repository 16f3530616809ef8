"""Delta-hedge tracking errors and convergence rates by payoff regularity.

Smooth payoffs lose tracking error like N^{-1/2}; a digital payoff is rougher
and converges slower, but the slow rate only shows once the Hermite
truncation degree well exceeds the finest refinement in the sweep.  The
occupation-time functional, a path-dependent example, sits near N^{-1/2} as
well.
"""

import math

from chaosco import clark_ocone as co, montecarlo as mc
from chaosco.chaos import GridSpec

# Monte Carlo tracking error for the quadratic payoff; the exact value at
# T=1, N=4 is sqrt(2)/2
grid = GridSpec(1.0, 4)
batch = mc.sample_paths(grid, 100_000, seed=2024)
est = mc.tracking_error_hedge(mc.PolynomialPayoff((0.0, 0.0, 1.0)), grid, batch)
print(f"quadratic payoff, N=4: tracking error {est.estimate:.4f} "
      f"+/- {est.std_error:.4f}  (exact {math.sqrt(2) / 2:.4f})")

# digital payoff: exact coefficient-space error norms across refinements,
# at a low and a high truncation degree
sweep = [4, 8, 16, 32, 64, 128, 256]
for degree in (20, 1000):
    f = mc.coeffs_terminal(mc.DigitalPayoff(0.0), GridSpec(1.0, 1), degree)
    slope, _ = co.fit_loglog_slope(sweep, [co.err_norm_refined(f, 1, n1, 0.0) for n1 in sweep])
    print(f"digital payoff, truncation degree {degree:4d}: slope {slope:.3f}")
print("(a fixed-degree truncation is polynomial, so low degrees drift toward "
      "the smooth -1/2 rate)")

# occupation time of the positive half-line: exact truncated-coefficient
# error norms across grid sizes
n_list = [4, 8, 16, 32, 64]
errs = [mc.occupation_error_norm(GridSpec(1.0, n_steps), 1, 20) for n_steps in n_list]
slope, _ = co.fit_loglog_slope(n_list, errs)
print("\noccupation time, first-order error by grid size:")
for n_steps, err in zip(n_list, errs):
    print(f"  N={n_steps:3d}: {err:.6f}")
print(f"fitted slope {slope:.3f}")
