"""Chaos expansions over increment grids.

A ChaosExpansion stores finitely many Fourier coefficients of a Wiener
functional in the orthonormal Fourier-Hermite basis of standardized Brownian
increments on a uniform grid.  The module provides Sobolev norms, conditional
expectation projections, pathwise evaluation, the exact coarse-to-fine
refinement operator and the expansion CSV writer.  Pathwise evaluation, the
package's only one, takes paths in bounded chunks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from . import hermite, multiindex as mi
from .multiindex import MultiIndex

COEFF_PRUNE = 1e-14


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
    L2 norm is the sum of squared coefficients.  The values of keys that
    canonicalize alike are summed, and sums below 1e-14 in magnitude pruned;
    a NaN or infinite value raises a ValueError naming its index, whether
    the dict was validated here or made by a builder.  ``coeffs`` is held in
    graded order, by (|a|, a): a validated dict is sorted once here, and the
    package's builders insert in that order.
    """

    grid: GridSpec
    coeffs: Mapping[MultiIndex, float] = field(default_factory=dict)

    def __post_init__(self):
        merged = self.coeffs
        if type(merged) is not _CanonicalCoeffs:
            # sum the values of keys that canonicalize alike
            merged = {}
            for key, value in self.coeffs.items():
                key = mi.canonical(key)
                if len(key) > self.grid.N:
                    raise ValueError(
                        f"index {key} needs {len(key)} slots but grid has {self.grid.N}"
                    )
                merged[key] = merged.get(key, 0.0) + float(value)
            merged = {key: merged[key] for key in sorted(merged, key=lambda a: (sum(a), a))}
        # distinct canonical keys: each sum is pruned, a NaN or an infinity
        # kept, and then refused
        values = map(float, merged.values())
        clean = {key: value for key, value in zip(merged, values) if not abs(value) <= COEFF_PRUNE}
        if not all(map(math.isfinite, clean.values())):
            key = next(key for key, value in clean.items() if not math.isfinite(value))
            raise ValueError(f"coefficient of index {key} is not finite: {clean[key]!r}")
        object.__setattr__(self, "coeffs", clean)

    def mean(self) -> float:
        return self.coeffs.get((), 0.0)

    def items(self) -> Tuple[Tuple[MultiIndex, float], ...]:
        """Coefficient entries in graded order, the order ``coeffs`` holds them in."""
        return tuple(self.coeffs.items())

    def max_degree(self) -> int:
        # graded order ends at the top degree
        return sum(next(reversed(self.coeffs), ()))

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
    canonical expansion's keys or from an index table of the grid, and
    inserts the keys in graded order; for it, :class:`ChaosExpansion` skips
    the per-key canonical check and the sort but still converts the values,
    refuses a non-finite one and prunes the rest.
    """


def sobolev_norm(f: ChaosExpansion, s: float) -> float:
    """sqrt of sum over a of (1+|a|)^s c_a^2, from :meth:`ChaosExpansion.sobolev_classes`.

    An OverflowError names s if the norm is too large for a float.
    """
    scale, _, total = f.sobolev_classes(s)
    return _scaled_sqrt(scale, total, "Sobolev norm", s)


def _scaled_sqrt(scale: float, mass: float, quantity: str, s: float) -> float:
    """e^(scale/2) sqrt(mass), a Sobolev-s norm from its scaled class sum.

    Where e^scale alone overflows, the norm is taken in log space; if it is
    no float either, an OverflowError names the quantity and s.
    """
    try:
        return math.exp(0.5 * scale) * math.sqrt(mass)
    except OverflowError:
        return _exp_half(scale + math.log(mass), quantity, s) if mass else 0.0


def _exp_half(log_sq: float, quantity: str, s: float) -> float:
    """exp(log_sq / 2), or an OverflowError naming the quantity and its Sobolev index s."""
    try:
        return math.exp(0.5 * log_sq)
    except OverflowError:
        raise OverflowError(
            f"the {quantity} overflows a float: Sobolev index s={s!r} is too large"
        ) from None


def conditional_expectation(f: ChaosExpansion, ell: int) -> ChaosExpansion:
    """Projection onto indexes supported in the first ``ell`` slots."""
    if not 0 <= ell <= f.grid.N:
        raise ValueError(f"ell must be in [0, {f.grid.N}]")
    kept = _CanonicalCoeffs({a: c for a, c in f.coeffs.items() if len(a) <= ell})
    return ChaosExpansion(f.grid, kept)


#: paths per chunk of the pathwise evaluator
EVALUATE_CHUNK = 4096


def evaluate(f: ChaosExpansion, xi) -> np.ndarray:
    """Pathwise value at standardized increments xi (last axis has N entries).

    Paths are taken EVALUATE_CHUNK at a time, each chunk with one slot-major
    Hermite table on the slots some key reaches; the terms c * H_{a_1} *
    H_{a_2} * ..., each formed left to right from c, are summed in graded
    order.  The results, a chunk's slots, table and two buffers, and the copy
    that merging xi's leading axes makes where their strides do not nest, are
    checked against physical memory first.  Each chunk's slots are converted
    to float64 as they are copied, so xi of another dtype is never converted
    whole.  A value depends only on its own path, so chunking changes no bit.
    One path gives a float.
    """
    n = f.grid.N
    xi = np.asarray(xi)
    if xi.shape[-1:] != (n,):
        raise ValueError(f"expected {n} increments, got shape {xi.shape}")
    shape = xi.shape[:-1]
    total = math.prod(shape)
    # the leading axes merge into one view only where each stride nests the next
    lead = [(size, step) for size, step in zip(shape, xi.strides) if size != 1]
    copied = any(step != inner * size for (_, step), (size, inner) in zip(lead, lead[1:]))
    terms = f.items()
    degree = f.max_degree()
    reach = max(map(len, f.coeffs), default=0)
    rows = min(total, EVALUATE_CHUNK)
    what = f"{total} values and {rows}-path tables of degree {degree} on {reach} slots"
    mi._check_fits(total * (1 + copied * n) * 8 + ((degree + 2) * reach + 2) * rows * 8,
                   what + (", and a copy of the paths" if copied else ""))
    paths = xi.reshape(-1, n)
    out = np.empty(total)
    for lo in range(0, total, EVALUATE_CHUNK):
        chunk = paths[lo : lo + EVALUATE_CHUNK]
        table = hermite.eval_all(degree, np.ascontiguousarray(chunk[:, :reach].T, dtype=float))
        value = np.zeros(len(chunk))
        term = np.empty(len(chunk))
        for a, c in terms:
            factors = [(order, slot) for slot, order in enumerate(a) if order]
            if not factors:
                value += c
                continue
            np.multiply(c, table[factors[0]], out=term)
            for factor in factors[1:]:
                term *= table[factor]
            value += term
        out[lo : lo + len(chunk)] = value
        del table, value, term  # gone before the next chunk's: factors hold no views
    return float(out[0]) if not shape else out.reshape(shape)


def refine(f: ChaosExpansion, n1: int) -> ChaosExpansion:
    """Re-express an N0-grid expansion in the N0*N1-grid basis.

    Fine coefficients are c_a * sqrt(a!/a'!) * N1^{-|a|/2} over all fine a'
    matching a; an isometry at Sobolev index 0.  Refining keeps the degree:
    each coarse degree's fine keys are sorted once, as tuples, which within
    one degree is the graded order.
    """
    if n1 < 1:
        raise ValueError("refinement factor must be >= 1")
    n0 = f.grid.N
    fine_grid = GridSpec(f.grid.T, n0 * n1)
    mi.check_refinement_size(f.coeffs, n0, n1)
    log_factorials = mi.log_factorial_table(f.max_degree())
    out = _CanonicalCoeffs()
    # fine sets of distinct coarse indexes are disjoint: no key repeats
    for m, group in itertools.groupby(f.coeffs.items(), lambda kv: sum(kv[0])):
        pairs = []
        for a, c in group:
            scale = c * n1 ** (-m / 2.0)
            table = mi.matching_table(a, n0, n1)
            log_ratio = 0.5 * (mi.log_factorial(a) - mi.log_factorial_rows(table, log_factorials))
            pairs += zip(mi.enumerate_matching(a, n0, n1),
                         [scale * math.exp(x) for x in log_ratio.tolist()])
        out.update(sorted(pairs))
    return ChaosExpansion(fine_grid, out)


# ---------------------------------------------------------------------------
# Serialization


@lru_cache(maxsize=mi.TABLE_CACHE_SIZE)
def csv_field_template(length: int) -> str:
    """%-template writing a canonical index of ``length`` entries as one CSV field.

    Applied to the entries, it gives the index's text, its entries joined by
    commas and "()" for the zero index, as ``csv.writer`` writes it: quoted
    when it holds a comma, that is from two entries on.
    """
    if length < 2:
        return ("()", "%d")[length]
    return '"%s"' % ",".join(["%d"] * length)


def _round_trip_g(x: complex) -> str:
    """format(x, ".{p}g") at the least p from 6 (plain "g") whose text complex() reads as x."""
    for p in range(6, 17):
        text = format(x, f".{p}g")
        if complex(text) == x:
            return text
    return format(x, ".17g")


def write_expansion_csv(f: ChaosExpansion, stream, header_lines: Iterable[str] = ()) -> None:
    """CSV with header "multiindex,coefficient"; 17 significant digits.

    The bytes are those of ``csv.writer`` over (index text, format(c,
    ".17g")) rows in graded order, the index text being its entries joined by
    commas or "()" for the zero index, written in one piece: each row is one
    %-template, chosen by the key's length, applied to a + (c,).
    """
    templates = {k: csv_field_template(k) + ",%.17g\n" for k in set(map(len, f.coeffs))}
    rows = [templates[len(a)] % (*a, c) for a, c in f.items()]
    head = [f"# {line}\n" for line in header_lines] + ["multiindex,coefficient\n"]
    stream.write("".join(itertools.chain(head, rows)))
