"""Chaos expansions over increment grids.

A ChaosExpansion stores finitely many Fourier coefficients of a Wiener
functional in the orthonormal Fourier-Hermite basis of standardized Brownian
increments on a uniform grid.  The module provides Sobolev norms, conditional
expectation projections, pathwise evaluation, the Hilbert-Schmidt pairings
between two orthonormal systems (brute-force, combinatorial, and the
coarse/fine closed form), and the exact coarse-to-fine refinement operator.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from . import hermite, multiindex as mi
from .multiindex import MultiIndex

COEFF_PRUNE = 1e-14
#: brute-force permutation sums grow like (m!)^2; keep them desk-scale
BRUTEFORCE_DEGREE_CAP = 8


@dataclass(frozen=True)
class GridSpec:
    """Uniform partition of [0, T] into N increments of variance T/N."""

    T: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError("horizon T must be positive and finite")
        if self.N < 1:
            raise ValueError("partition count N must be >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.N


@dataclass(frozen=True)
class ChaosExpansion:
    """Finitely supported coefficient map over a grid.

    The zero-index coefficient is the (generalized) expectation; the squared
    L2 norm is the sum of squared coefficients.  Coefficients below 1e-14 in
    magnitude are pruned at construction.
    """

    grid: GridSpec
    coeffs: Mapping[MultiIndex, float] = field(default_factory=dict)

    def __post_init__(self):
        if type(self.coeffs) is _CanonicalCoeffs:
            # distinct canonical keys: nothing to trim or merge
            values = map(float, self.coeffs.values())
            clean = {key: value for key, value in zip(self.coeffs, values)
                     if abs(value) > COEFF_PRUNE}
        else:
            clean = {}
            for key, value in self.coeffs.items():
                key = mi.canonical(key)
                if len(key) > self.grid.N:
                    raise ValueError(
                        f"index {key} needs {len(key)} slots but grid has {self.grid.N}"
                    )
                value = float(value)
                if abs(value) > COEFF_PRUNE:
                    clean[key] = clean.get(key, 0.0) + value
        object.__setattr__(self, "coeffs", clean)

    def mean(self) -> float:
        return self.coeffs.get((), 0.0)

    def items(self) -> Tuple[Tuple[MultiIndex, float], ...]:
        """Coefficient entries in deterministic (graded lexicographic) order."""
        return self._graded_items

    @cached_property
    def _graded_items(self) -> Tuple[Tuple[MultiIndex, float], ...]:
        """``items()``, sorted once and kept with the expansion.

        Every builder inserts in graded order, so the order is checked first,
        in C-level passes over (|a|, a); keys are distinct, so a
        non-decreasing run of those pairs is the sorted order.
        """
        graded = list(zip(map(sum, self.coeffs), self.coeffs))
        if all(map(operator.le, graded, itertools.islice(graded, 1, None))):
            return tuple(self.coeffs.items())
        return tuple(sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])))

    def max_degree(self) -> int:
        return max((sum(a) for a in self.coeffs), default=0)

    @cached_property
    def degree_classes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Squared coefficient mass by class (|a|, last nonzero entry of a).

        Parallel arrays (degree, last, weight), sorted by class; weight sums
        c_a^2 over the class and the zero index is the class (0, 0).  Norms
        that see a only through |a| and its last entry are dot products over
        these classes.  Computed once and kept with the expansion.
        """
        mass: Dict[Tuple[int, int], float] = {}
        for a, c in self.coeffs.items():
            key = (sum(a), a[-1] if a else 0)
            mass[key] = mass.get(key, 0.0) + c * c
        keys = sorted(mass)
        degree = np.array([k[0] for k in keys], dtype=np.int64)
        last = np.array([k[1] for k in keys], dtype=np.int64)
        weight = np.array([mass[k] for k in keys], dtype=float)
        return degree, last, weight

    @cached_property
    def _sobolev_classes(self) -> Dict[float, Tuple[float, np.ndarray, float]]:
        """What :meth:`sobolev_classes` has computed, by s."""
        return {}

    def sobolev_classes(self, s: float) -> Tuple[float, np.ndarray, float]:
        """The Sobolev-s weights (1+|a|)^s of the degree classes, scaled to stay finite.

        Returns (scale, ratios, total): scale is the log of the largest
        class weight, ratios is each class weight divided by it (so at most
        1, read-only) and total is the ratio-weighted class mass, so that
        ||F||_{2,s}^2 = e^scale total.  No ratio overflows at any s; at s = 0
        every ratio is 1.0 and the scale is 0.0.  Remembered per s.
        """
        if s in self._sobolev_classes:
            return self._sobolev_classes[s]
        degree, _, weight = self.degree_classes
        # classes are sorted by degree: the largest weight is at an end
        top = int(degree[-1] if s > 0 else degree[0]) if degree.size else 0
        scale = s * math.log1p(top)
        if scale == math.inf:
            raise OverflowError(f"log (1+|a|)^s overflows at s={s!r}")
        ratios = ((1.0 + degree) / (1.0 + top)) ** s
        ratios.flags.writeable = False
        classes = self._sobolev_classes[s] = scale, ratios, float(ratios @ weight)
        return classes


class _CanonicalCoeffs(dict):
    """Coefficients whose keys their builder made distinct and canonical on the grid.

    Built in this package only, by code that derives every key from a
    canonical expansion's keys or from an index table of the grid; for it,
    :class:`ChaosExpansion` skips the per-key canonical check but still
    converts and prunes the values.
    """


def constant(grid: GridSpec, value: float) -> ChaosExpansion:
    return ChaosExpansion(grid, {(): value})


def sobolev_norm(f: ChaosExpansion, s: float) -> float:
    """sqrt of sum over a of (1+|a|)^s c_a^2, from :meth:`ChaosExpansion.sobolev_classes`."""
    scale, _, total = f.sobolev_classes(s)
    return math.exp(0.5 * scale) * math.sqrt(total)


def conditional_expectation(f: ChaosExpansion, ell: int) -> ChaosExpansion:
    """Projection onto indexes supported in the first ``ell`` slots."""
    if not 0 <= ell <= f.grid.N:
        raise ValueError(f"ell must be in [0, {f.grid.N}]")
    kept = _CanonicalCoeffs({a: c for a, c in f.coeffs.items() if len(a) <= ell})
    return ChaosExpansion(f.grid, kept)


def evaluate(f: ChaosExpansion, xi) -> np.ndarray:
    """Pathwise value at standardized increments xi (last axis has N entries).

    A slot-major xi, such as ``np.moveaxis(slots, 0, -1)`` of a C-contiguous
    (N, ...) array, is read without a copy.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != f.grid.N:
        raise ValueError(f"expected {f.grid.N} increments, got {xi.shape[-1]}")
    terms = f.items()
    # graded order ends at the top degree; the table covers only the slots
    # some key reaches, and is slot-major so every table[order, slot] is one
    # contiguous run
    degree = sum(terms[-1][0]) if terms else 0
    reach = max(map(len, f.coeffs), default=0)
    slots = np.ascontiguousarray(np.moveaxis(xi, -1, 0)[:reach])
    table = hermite.eval_all(degree, slots)  # (order, slot, ...)
    out = np.zeros(xi.shape[:-1])
    term = np.empty(xi.shape[:-1])
    for a, c in terms:
        factors = [table[order, slot] for slot, order in enumerate(a) if order]
        if not factors:
            out += c
            continue
        np.multiply(c, factors[0], out=term)
        for factor in factors[1:]:
            term *= factor
        out += term
    return float(out) if out.ndim == 0 else out


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
    a, a2 = mi.canonical(a), mi.canonical(a2)
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
    norm = math.sqrt(mi.factorial(a) * mi.factorial(a2)) * math.factorial(m)
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
    a, a2 = mi.canonical(a), mi.canonical(a2)
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
    return math.sqrt(mi.factorial(a) * mi.factorial(a2)) * total


def _sqrt_factorial_ratio(a: MultiIndex, a2: MultiIndex) -> float:
    """sqrt(a!/a2!) in log space; stable for degrees up to ~50."""
    return math.exp(0.5 * (mi.log_factorial(a) - mi.log_factorial(a2)))


def coarse_fine_hs(a: MultiIndex, a2: MultiIndex, n0: int, n1: int) -> float:
    """Closed-form pairing between coarse and fine increment bases.

    sqrt(a!/a2!) N1^{-m/2} when the fine index matches the coarse one,
    exactly 0 otherwise.
    """
    a, a2 = mi.canonical(a), mi.canonical(a2)
    if sum(a) != sum(a2):
        raise ValueError("coarse/fine pairing requires equal degrees")
    if not mi.matches(a2, a, n0, n1):
        return 0.0
    m = sum(a)
    return _sqrt_factorial_ratio(a, a2) * n1 ** (-m / 2.0)


def refine(f: ChaosExpansion, n1: int) -> ChaosExpansion:
    """Re-express an N0-grid expansion in the N0*N1-grid basis.

    Fine coefficients are c_a * sqrt(a!/a'!) * N1^{-|a|/2} over all fine a'
    matching a; an isometry at Sobolev index 0.
    """
    if n1 < 1:
        raise ValueError("refinement factor must be >= 1")
    n0 = f.grid.N
    fine_grid = GridSpec(f.grid.T, n0 * n1)
    if n1 == 1:
        return ChaosExpansion(fine_grid, _CanonicalCoeffs(f.coeffs))
    mi.check_refinement_size(f.coeffs, n0, n1)
    log_factorials = mi.log_factorial_table(f.max_degree())
    out = _CanonicalCoeffs()
    # fine sets of distinct coarse indexes are disjoint: no key repeats
    for a, c in f.coeffs.items():
        m = sum(a)
        scale = c * n1 ** (-m / 2.0)
        table = mi.matching_table(a, n0, n1)
        log_ratio = 0.5 * (mi.log_factorial(a) - mi.log_factorial_rows(table, log_factorials))
        out.update(zip(mi.enumerate_matching(a, n0, n1),
                       [scale * math.exp(x) for x in log_ratio.tolist()]))
    return ChaosExpansion(fine_grid, out)


# ---------------------------------------------------------------------------
# Serialization


@lru_cache(maxsize=mi.TABLE_CACHE_SIZE)
def csv_field_template(length: int) -> str:
    """%-template writing a canonical index of ``length`` entries as one CSV field.

    Applied to the entries, it gives :func:`mi.format_canonical`'s text as
    ``csv.writer`` writes it: "()" for the zero index, and quoted when it
    holds a comma, that is from two entries on.
    """
    if length < 2:
        return ("()", "%d")[length]
    return '"%s"' % ",".join(["%d"] * length)


def write_expansion_csv(f: ChaosExpansion, stream, header_lines: Iterable[str] = ()) -> None:
    """CSV with header "multiindex,coefficient"; 17 significant digits.

    The bytes are those of ``csv.writer`` over (format_canonical(a),
    format(c, ".17g")) rows in graded order, written in one piece: each row
    is one %-template, chosen by the key's length, applied to a + (c,).
    """
    items = f.items()
    keys = list(map(operator.itemgetter(0), items))
    values = zip(map(operator.itemgetter(1), items))
    lengths = list(map(len, keys))
    templates = {k: csv_field_template(k) + ",%.17g\n" for k in set(lengths)}
    rows = map(operator.mod, map(templates.__getitem__, lengths), map(tuple.__add__, keys, values))
    head = [f"# {line}\n" for line in header_lines] + ["multiindex,coefficient\n"]
    stream.write("".join(itertools.chain(head, rows)))


def read_expansion_csv(stream, grid: GridSpec) -> ChaosExpansion:
    rows = [line for line in stream if not line.startswith("#")]
    reader = csv.reader(io.StringIO("".join(rows)))
    header = next(reader)
    if header != ["multiindex", "coefficient"]:
        raise ValueError(f"unexpected expansion CSV header: {header}")
    coeffs = {}
    for key_text, value_text in reader:
        coeffs[mi.parse_multiindex(key_text)] = float(value_text)
    return ChaosExpansion(grid, coeffs)
