"""Reference implementations the tests compare chaosco against.

Nothing in the package, the CLI, the demos or the benchmark calls these;
they are independent routes to quantities chaosco computes another way:

- multi-index helpers: factorials, total degree, the last nonzero entry,
  block coarsening and the matching relation it defines, and the textual
  form of an index with its parser;
- the Hilbert-Schmidt pairings of two Fourier-Hermite systems, by brute
  force over permutation pairs, by contingency tables, and in the
  coarse/fine closed form, with the coarse/fine Gram matrix;
- one Hermite order at given points, Fourier-Hermite products at given
  increments, and Gauss-rule integration;
- pathwise evaluation of an expansion and of its decomposition, one whole
  batch per term;
- the interpolated tail-mass bound, the constant expansion and the
  expansion CSV reader;
- the closed-form first-order delta-hedge error of sin(W_T), the pathwise
  occupation time, streamed through the package's block sampler, and the
  occupation time's truncated error norm at 40 digits.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Optional, Tuple

import numpy as np

from chaosco import hermite
from chaosco.chaos import ChaosExpansion, GridSpec
from chaosco.clark_ocone import (ClarkOconeDecomposition, _check_interpolation, _check_orders,
                                 _log_denominator)
from chaosco.montecarlo import PathBatch, _map_blocks
from chaosco.multiindex import MultiIndex, canonical, log_factorial

#: brute-force permutation sums grow like (m!)^2; keep them desk-scale
BRUTEFORCE_DEGREE_CAP = 8


# ---------------------------------------------------------------------------
# Multi-indexes


def length(a: MultiIndex) -> int:
    """Total degree |a| = sum of entries."""
    return sum(a)


def factorial(a: MultiIndex) -> int:
    """Product of entry factorials, prod_i a_i! (exact integer)."""
    out = 1
    for x in a:
        out *= math.factorial(x)
    return out


def last_nonzero(a: MultiIndex) -> Optional[Tuple[int, int]]:
    """(position, value) of the last nonzero entry, 1-based; None for zero index."""
    a = canonical(a)
    if not a:
        return None
    return len(a), a[-1]


def coarsen(a_fine: MultiIndex, n0: int, n1: int) -> MultiIndex:
    """Block sums: a_i = sum of fine entries in ((i-1)*n1, i*n1]."""
    a_fine = canonical(a_fine)
    if len(a_fine) > n0 * n1:
        raise ValueError(
            f"fine index of length {len(a_fine)} exceeds {n0}*{n1} slots"
        )
    padded = a_fine + (0,) * (n0 * n1 - len(a_fine))
    return canonical(
        sum(padded[i * n1 : (i + 1) * n1]) for i in range(n0)
    )


def matches(a_fine: MultiIndex, a_coarse: MultiIndex, n0: int, n1: int) -> bool:
    """True iff the fine index block-sums to the coarse one."""
    a_coarse = canonical(a_coarse)
    if len(a_coarse) > n0:
        raise ValueError(f"coarse index of length {len(a_coarse)} exceeds {n0} slots")
    return coarsen(a_fine, n0, n1) == a_coarse


def format_multiindex(a: MultiIndex) -> str:
    """Canonical textual form "a1,a2,...,ak"; the zero index prints as "()"."""
    return format_canonical(canonical(a))


def format_canonical(a: MultiIndex) -> str:
    """:func:`format_multiindex` of an index already in canonical form."""
    return ",".join(map(str, a)) if a else "()"


def parse_multiindex(text: str) -> MultiIndex:
    """Inverse of :func:`format_multiindex`; accepts "" and "()" for zero."""
    text = text.strip()
    if text in ("", "()"):
        return ()
    return canonical(int(part) for part in text.split(","))


# ---------------------------------------------------------------------------
# Hermite products and quadrature


def eval_normalized(m: int, x):
    """H_m at x (scalar or ndarray), orthonormal normalization: row m of ``hermite.eval_all``."""
    if m < 0:
        raise ValueError("Hermite order must be non-negative")
    h = hermite.eval_all(m, x)[m]
    return h if h.ndim else float(h)


def eval_fourier_hermite(a: MultiIndex, xi) -> float:
    """Product over slots i of H_{a_i} at the i-th standardized increment."""
    a = canonical(a)
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] < len(a):
        raise ValueError(
            f"need at least {len(a)} increments, got {xi.shape[-1]}"
        )
    out = np.ones(xi.shape[:-1])
    for i, ai in enumerate(a):
        if ai:
            out = out * eval_normalized(ai, xi[..., i])
    return float(out) if out.ndim == 0 else out


def integrate(rule: hermite.QuadratureRule, f) -> float:
    """E[f(Z)] by the Gauss rule, Z standard normal."""
    # exactly rounded sum: odd integrands cancel to 0 on the symmetric rule
    return math.fsum(rule.weights * np.asarray(f(rule.nodes), dtype=float))


# ---------------------------------------------------------------------------
# Gram matrices and Hilbert-Schmidt pairings


GramMatrix = np.ndarray  # g[i, j] = <h_i, h'_j> for two orthonormal systems


def coarse_fine_gram(n0: int, n1: int) -> GramMatrix:
    """Gram matrix between the N0-grid and the N0*N1-grid increment bases.

    Entry (i, j) is 1/sqrt(N1) when fine slot j lies inside coarse slot i,
    else 0.
    """
    g = np.zeros((n0, n0 * n1))
    for i in range(n0):
        g[i, i * n1 : (i + 1) * n1] = 1.0 / math.sqrt(n1)
    return g


def _position_labels(a: MultiIndex) -> Tuple[int, ...]:
    """Slot label of each of the |a| degrees: a_i copies of i, in order."""
    labels = []
    for i, ai in enumerate(a):
        labels.extend([i] * ai)
    return tuple(labels)


def hs_bruteforce(a: MultiIndex, a2: MultiIndex, gram: GramMatrix) -> float:
    """Hilbert-Schmidt pairing by explicit double sum over permutation pairs.

    Independent oracle for the combinatorial and closed-form routes; returns 0
    on degree mismatch.  Degree is capped at BRUTEFORCE_DEGREE_CAP.
    """
    a, a2 = canonical(a), canonical(a2)
    m = sum(a)
    if m != sum(a2):
        return 0.0
    if m > BRUTEFORCE_DEGREE_CAP:
        raise ValueError(f"brute-force pairing capped at degree {BRUTEFORCE_DEGREE_CAP}")
    if m == 0:
        return 1.0
    labels = _position_labels(a)
    labels2 = _position_labels(a2)
    total = 0.0
    for sigma in itertools.permutations(range(m)):
        for sigma2 in itertools.permutations(range(m)):
            prod = 1.0
            for n in range(m):
                prod *= gram[labels[sigma[n]], labels2[sigma2[n]]]
                if prod == 0.0:
                    break
            total += prod
    norm = math.sqrt(factorial(a) * factorial(a2)) * math.factorial(m)
    return total / norm


def _contingency_tables(row_sums, col_sums):
    """Non-negative integer matrices with the given row and column sums.

    Recursive row filling; partial column remainders prune dead branches.
    """
    rows = len(row_sums)

    def fill(idx, remaining_cols):
        if idx == rows:
            if all(r == 0 for r in remaining_cols):
                yield []
            return
        target = row_sums[idx]
        # tail capacity per column limits how much later rows can still absorb
        for row in _bounded_compositions(target, remaining_cols):
            rest = tuple(rc - x for rc, x in zip(remaining_cols, row))
            if sum(rest) == sum(row_sums[idx + 1 :]):
                for tail in fill(idx + 1, rest):
                    yield [row] + tail

    yield from fill(0, tuple(col_sums))


def _bounded_compositions(total, bounds):
    """Compositions of ``total`` with per-part upper bounds."""
    if not bounds:
        if total == 0:
            yield ()
        return
    first_max = min(total, bounds[0])
    for x in range(first_max + 1):
        for rest in _bounded_compositions(total - x, bounds[1:]):
            yield (x,) + rest


def pairing_combinatorial(a: MultiIndex, a2: MultiIndex, gram: GramMatrix) -> float:
    """Expectation of a product of two Fourier-Hermite polynomials.

    Equals sqrt(a! a2!) times the sum over contingency tables k with row sums
    a and column sums a2 of prod g_ij^{k_ij} / k_ij!; zero on degree mismatch.
    """
    a, a2 = canonical(a), canonical(a2)
    if sum(a) != sum(a2):
        return 0.0
    if sum(a) == 0:
        return 1.0
    total = 0.0
    for table in _contingency_tables(a, a2):
        prod = 1.0
        for i, row in enumerate(table):
            for j, k in enumerate(row):
                if k:
                    prod *= gram[i, j] ** k / math.factorial(k)
        total += prod
    return math.sqrt(factorial(a) * factorial(a2)) * total


def _sqrt_factorial_ratio(a: MultiIndex, a2: MultiIndex) -> float:
    """sqrt(a!/a2!) in log space; stable for degrees up to ~50."""
    return math.exp(0.5 * (log_factorial(a) - log_factorial(a2)))


def coarse_fine_hs(a: MultiIndex, a2: MultiIndex, n0: int, n1: int) -> float:
    """Closed-form pairing between coarse and fine increment bases.

    sqrt(a!/a2!) N1^{-m/2} when the fine index matches the coarse one,
    exactly 0 otherwise.
    """
    a, a2 = canonical(a), canonical(a2)
    if sum(a) != sum(a2):
        raise ValueError("coarse/fine pairing requires equal degrees")
    if not matches(a2, a, n0, n1):
        return 0.0
    m = sum(a)
    return _sqrt_factorial_ratio(a, a2) * n1 ** (-m / 2.0)


# ---------------------------------------------------------------------------
# Expansions and error bounds


def constant(grid: GridSpec, value: float) -> ChaosExpansion:
    return ChaosExpansion(grid, {(): value})


def evaluate_reference(f: ChaosExpansion, xi) -> np.ndarray:
    """Pathwise evaluation as a fresh sort, a table over every slot and np.full per term."""
    xi = np.asarray(xi, dtype=float)
    slots = np.ascontiguousarray(np.moveaxis(xi, -1, 0))
    table = hermite.eval_all(f.max_degree(), slots)
    out = np.zeros(xi.shape[:-1])
    for a, c in sorted(f.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        term = np.full(xi.shape[:-1], c)
        for slot, order in enumerate(a):
            if order:
                term *= table[order, slot]
        out += term
    return out


def evaluate_decomposition_reference(d: ClarkOconeDecomposition, xi) -> np.ndarray:
    """mean + sum over terms of integrand(xi) * H_m(xi_ell), each term on the whole batch."""
    xi = np.asarray(xi, dtype=float)
    out = np.full(xi.shape[:-1], d.mean)
    for term in d.terms:
        basis = eval_normalized(term.m, xi[..., term.ell - 1])
        out = out + evaluate_reference(term.integrand, xi) * basis
    return out


def read_expansion_csv(stream, grid: GridSpec) -> ChaosExpansion:
    rows = [line for line in stream if not line.startswith("#")]
    reader = csv.reader(io.StringIO("".join(rows)))
    header = next(reader)
    if header != ["multiindex", "coefficient"]:
        raise ValueError(f"unexpected expansion CSV header: {header}")
    coeffs = {}
    for key_text, value_text in reader:
        coeffs[parse_multiindex(key_text)] = float(value_text)
    return ChaosExpansion(grid, coeffs)


def tail_mass_bound(a: MultiIndex, n: int, n1: int, r: float) -> float:
    """Interpolated upper bound (|a|^n / (n! N1^n))^r for the tail mass."""
    a = canonical(a)
    if not a:
        raise ValueError("tail mass bound of the zero index is undefined")
    _check_interpolation(r)
    _check_orders(n, n1)
    return math.exp(r * (n * math.log(sum(a)) - _log_denominator(n, n1)))


# ---------------------------------------------------------------------------
# Hedging


def sine_hedge_error(grid: GridSpec) -> float:
    """Exact L2 norm of sin(W_T)'s first-order delta-hedge error on grid.

    The delta at t_{ell-1} is cos(W_{t_{ell-1}}) e^{-(T - t_{ell-1})/2}, so
    ||Err_1||^2 = Var sin(W_T) - sum_ell dt E[delta_ell^2]
               = (1 - e^{-2T})/2 - sum_ell dt e^{-(T - t_{ell-1})} (1 + e^{-2 t_{ell-1}})/2.
    """
    T, dt = grid.T, grid.dt
    hedged = math.fsum(dt * math.exp(-(T - t)) * (1.0 + math.exp(-2.0 * t)) / 2.0
                       for t in (ell * dt for ell in range(grid.N)))
    return math.sqrt((1.0 - math.exp(-2.0 * T)) / 2.0 - hedged)


def occupation_value(batch: PathBatch) -> np.ndarray:
    """Pathwise occupation time of [0, infinity) on the grid, block by block."""
    sqrt_dt = math.sqrt(batch.grid.dt)

    def occupation(xi: np.ndarray) -> np.ndarray:
        w = np.cumsum(sqrt_dt * xi, axis=0)
        return (w >= 0.0).sum(axis=0) * batch.grid.dt

    return _map_blocks([batch], [occupation])[0]


def occupation_error_norm_mp(n_steps: int, n: int, max_degree: int, T: float = 1.0):
    """``montecarlo.occupation_error_norm`` at 40 digits, by its defining sum.

    dt^2 sum_{m>n} d_m^2 sum_ell tail_m[ell]^2 sum_{k>n} C(m,k) (ell-1)^{m-k}, with
    tail_m[ell] = sum_{i>=ell} i^{-m/2}, the digital's d_m = phi(0) H_{m-1}(0)/sqrt(m)
    in closed form (zero for even m >= 2), and the inner sum in exact integers
    as ell^m - sum_{k<=n} C(m,k) (ell-1)^{m-k}.  Returns an mpmath number.
    """
    import mpmath

    with mpmath.workdps(40):
        logs = [mpmath.log(i) for i in range(1, n_steps + 1)]
        total = mpmath.mpf(0)
        for m in range(n + 1, max_degree + 1):
            if m % 2 == 0:
                continue
            j = (m - 1) // 2
            h = (-1) ** j * mpmath.sqrt(mpmath.factorial(2 * j)) / (2**j * mpmath.factorial(j))
            d_m = h / mpmath.sqrt(2 * mpmath.pi * m)
            tail = per_slot = mpmath.mpf(0)
            for ell in range(n_steps, 0, -1):
                tail += mpmath.exp(-m * logs[ell - 1] / 2)
                exact = ell**m - sum(math.comb(m, k) * (ell - 1) ** (m - k) for k in range(n + 1))
                per_slot += tail**2 * exact
            total += d_m**2 * per_slot
        return mpmath.mpf(T) / n_steps * mpmath.sqrt(total)


#: (N, max_degree) -> occupation_error_norm_mp(N, 1, max_degree), T = 1, to 17 digits
OCCUPATION_ERROR_NORMS = {
    (64, 60): 0.045799190060916132,
    (1024, 60): 0.011985191160068186,
    (1024, 130): 0.012382803695503935,
    (256, 200): 0.024665085828645702,
}

#: (N, n, max_degree) -> occupation_error_norm_mp(N, n, max_degree), T = 1, to 17
#: digits, at an order whose C(max_degree - 1, n) is no float (too slow for tier-1)
OCCUPATION_ERROR_NORMS_HIGH_ORDER = {
    (2, 600, 1300): 0.021245447218432195,
}
