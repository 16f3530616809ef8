"""Library-script operations of the benchmark.

Each is a short script a chaosco user would write, run in a fresh interpreter:

    python3 perfbench/libops.py <name> [--seed S] --out PATH

``refine-digital`` refines the N0=4, degree-12 digital expansion by N1=2 and
writes the fine expansion with the coarse norm, so the refinement isometry can
be checked.  ``mc-norms`` estimates the order-1 error norm of the N=8,
degree-10 digital on 10^4 paths next to its exact value, and measures how well
the full decomposition of four polynomials works as a control variate on
10^5 paths (criterion 11 of the acceptance suite).
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from chaosco import chaos, clark_ocone, montecarlo
from chaosco.chaos import GridSpec

CONTROL_VARIATE_POLYS = ((0.0, 1.0), (1.0, 0.0, 0.5), (0.0, 2.0, 0.0, -1.0),
                         (1.0, 0.0, 0.0, 0.0, 0.25))


def refine_digital(seed: int, out: str) -> None:
    coarse = montecarlo.coeffs_terminal(montecarlo.DigitalPayoff(0.0), GridSpec(1.0, 4), 12)
    fine = chaos.refine(coarse, 2)
    header = [
        "script=refine-digital",
        "N0=4",
        "N1=2",
        "max_degree=12",
        f"coarse_norm={format(chaos.sobolev_norm(coarse, 0.0), '.17g')}",
    ]
    with open(out, "w", encoding="utf-8") as fh:
        chaos.write_expansion_csv(fine, fh, header)


def mc_norms(seed: int, out: str) -> None:
    grid = GridSpec(1.0, 8)
    f = montecarlo.coeffs_terminal(montecarlo.DigitalPayoff(0.0), grid, 10)
    est = montecarlo.mc_err_norm(f, 1, montecarlo.sample_paths(grid, 10_000, seed))
    rows = [
        ("mc_err_norm.estimate", est.estimate),
        ("mc_err_norm.std_error", est.std_error),
        ("err_norm_refined", clark_ocone.err_norm_refined(f, 1, 1, 0.0)),
    ]
    grid = GridSpec(1.0, 4)
    batch = montecarlo.sample_paths(grid, 100_000, seed)
    w_t = batch.brownian_paths()[:, -1]
    for coeffs in CONTROL_VARIATE_POLYS:
        payoff = montecarlo.PolynomialPayoff(coeffs)
        d = clark_ocone.decompose(montecarlo.coeffs_terminal(payoff, grid, payoff.degree))
        residual = payoff(w_t) - clark_ocone.evaluate_decomposition(d, batch.increments)
        rows.append((f"cv_residual_var.{montecarlo.payoff_label(payoff)}",
                     float(np.var(residual))))
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# script=mc-norms\n# seed={seed}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["quantity", "value"])
        writer.writerows((name, format(value, ".17g")) for name, value in rows)


OPS = {"refine-digital": refine_digital, "mc-norms": mc_norms}


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="libops")
    parser.add_argument("name", choices=sorted(OPS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    OPS[args.name](args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
