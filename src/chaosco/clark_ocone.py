"""Discrete-time predictable-representation decomposition and its error norms.

Every finitely supported chaos expansion F splits exactly into its mean plus
a sum of terms indexed by (slot ell, Hermite order m): the term is a
conditional-expectation integrand supported on the first ell-1 slots times
the order-m Hermite polynomial of the ell-th standardized increment.  The
n-th-order truncation error keeps exactly the coefficients whose last nonzero
entry exceeds n, and its Sobolev norm after grid refinement is computable in
coefficient space without materializing the fine grid: each coefficient loses
the tail mass S of its last entry, tabulated once per (n, N1) from a sum of
positive terms (see :func:`tail_mass`), and the norm is a dot product of that
table with the expansion's degree classes.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from . import hermite, multiindex as mi
from .chaos import ChaosExpansion, GridSpec, _CanonicalCoeffs, evaluate
from .multiindex import MultiIndex


@dataclass(frozen=True)
class ClarkOconeTerm:
    """The (ell, m) summand: integrand on the first ell-1 slots times H_m."""

    ell: int
    m: int
    integrand: ChaosExpansion

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("Hermite order m must be >= 1")
        for a in self.integrand.coeffs:
            if len(a) > self.ell - 1:
                raise ValueError(
                    f"integrand index {a} exceeds the first {self.ell - 1} slots"
                )


@dataclass(frozen=True)
class ClarkOconeDecomposition:
    grid: GridSpec
    mean: float
    terms: Tuple[ClarkOconeTerm, ...]


@dataclass(frozen=True)
class RateReport:
    """Error norms and bounds across refinement factors, with a log-log slope."""

    payoff_id: str
    n: int
    s: float
    r: float
    rows: Tuple[Tuple[int, float, float], ...]  # (N1, error_norm, bound)
    fitted_slope: float
    fit_points: int


def decompose(f: ChaosExpansion) -> ClarkOconeDecomposition:
    """Group coefficients by (last nonzero slot, its value)."""
    groups: Dict[Tuple[int, int], Dict[MultiIndex, float]] = defaultdict(_CanonicalCoeffs)
    for a, c in f.coeffs.items():
        if not a:
            continue
        ell, m = len(a), a[-1]
        head = a[:-1]
        while head and not head[-1]:  # keep the integrand's keys canonical
            head = head[:-1]
        groups[ell, m][head] = c
    terms = [
        ClarkOconeTerm(ell, m, ChaosExpansion(f.grid, coeffs))
        for (ell, m), coeffs in sorted(groups.items())
    ]
    return ClarkOconeDecomposition(f.grid, f.mean(), tuple(terms))


def reconstruct(d: ClarkOconeDecomposition) -> ChaosExpansion:
    """Inverse of :func:`decompose`; exact for finitely supported expansions."""
    coeffs: Dict[MultiIndex, float] = {}
    if d.mean:
        coeffs[()] = d.mean
    for term in d.terms:
        pad = term.ell - 1
        for a, c in term.integrand.coeffs.items():
            key = a + (0,) * (pad - len(a)) + (term.m,)
            if key in coeffs:
                raise ValueError(f"overlapping term key {key}")
            coeffs[key] = c
    return ChaosExpansion(d.grid, coeffs)


def evaluate_decomposition(d: ClarkOconeDecomposition, xi) -> np.ndarray:
    """Pathwise sum mean + sum_terms integrand(xi) * H_m(xi_ell)."""
    xi = np.asarray(xi, dtype=float)
    # the slot axis is moved once; evaluate reads the moved-back view as is
    slots = np.ascontiguousarray(np.moveaxis(xi, -1, 0))
    xi = np.moveaxis(slots, 0, -1)
    out = np.full(xi.shape[:-1], d.mean)
    for term in d.terms:
        integrand = evaluate(term.integrand, xi)
        out = out + integrand * hermite.eval_normalized(term.m, slots[term.ell - 1])
    return out


def err_tail(f: ChaosExpansion, n: int) -> ChaosExpansion:
    """Coefficients whose last nonzero entry exceeds n (the order-n error)."""
    if n < 1:
        raise ValueError("error order n must be >= 1")
    kept = _CanonicalCoeffs({a: c for a, c in f.coeffs.items() if a and a[-1] > n})
    return ChaosExpansion(f.grid, kept)


def _check_orders(n: int, n1: int) -> None:
    if n < 1 or n1 < 1:
        raise ValueError("n and N1 must be >= 1")


#: shortest table; longer ones are the next power of two above the degree
MIN_TABLE_SIZE = 64
#: elements per block of the power-sum evaluation, bounding its memory
POWER_BLOCK = 1 << 16


def _table_size(v: int) -> int:
    """Length of the table holding entry v, shared by nearby degrees."""
    return max(MIN_TABLE_SIZE, 1 << v.bit_length())


@lru_cache(maxsize=mi.TABLE_CACHE_SIZE)
def _tail_mass_table(n: int, n1: int, size: int) -> np.ndarray:
    """S(v, n, N1) for v < size as one read-only array (see :func:`tail_mass`).

    Row v of the binomial law Bin(v, 1/N1) comes from row v-1 by Pascal's
    rule, a convex combination, and S(v) is its dot product with the
    reversed power sums Q_j = sum_{l=1}^{N1} ((l-1)/(N1-1))^j, with 0^0 = 1.
    Every term is positive, so S keeps full relative precision however small
    it is, and entry v does not depend on ``size``.  Each Q_j lies in
    [1, N1], so none underflows; N1 = 1 gives Q = (1, 0, ...).  The powers
    are summed POWER_BLOCK at a time; x, the range it comes from and one
    block, about 3 N1 doubles, are checked against physical memory first.
    """
    mi._check_fits(3 * n1 * 8, f"power sums over {n1} fine slots")
    x = np.arange(n1) / max(n1 - 1, 1)
    j = np.arange(size, dtype=float)
    rows = max(1, POWER_BLOCK // n1)
    q = np.concatenate(
        [(x ** j[i : i + rows, None]).sum(axis=1) for i in range(0, size, rows)]
    )
    p, stay = 1.0 / n1, (n1 - 1) / n1
    pmf = np.zeros(size)
    pmf[0] = 1.0
    table = np.zeros(size)
    for v in range(1, size):
        pmf[1 : v + 1] = stay * pmf[1 : v + 1] + p * pmf[:v]
        pmf[0] *= stay
        if v > n:
            table[v] = pmf[n + 1 : v + 1] @ q[v - n - 1 :: -1]
    table.flags.writeable = False
    return table


@lru_cache(maxsize=4096)
def _tail_mass_value(v: int, n: int, n1: int) -> float:
    return float(_tail_mass_table(n, n1, _table_size(v))[v])


def tail_mass(a: MultiIndex, n: int, n1: int) -> float:
    """Fraction of a coarse coefficient's squared mass lost to the order-n tail.

    S(a, n, N1) = sum over fine indexes a' matching a whose last nonzero entry
    exceeds n of (a!/a'!) N1^{-|a|}.  Blocks before the last nonzero coarse
    slot sum to one, so only the last entry v = a_ell enters: S is the chance
    that, when v quanta fall uniformly into the N1 fine slots of the last
    block, the last occupied slot holds more than n of them,

        S = sum_{j=0}^{v-n-1} C(v, j) N1^{-(v-j)} P_j,
        P_j = sum_{l=1}^{N1} ((l-1)/N1)^j,

    with j the quanta before the last occupied slot.  Factoring
    P_j = (1 - 1/N1)^j Q_j turns the weights into the binomial law
    Bin(v, 1/N1), built row by row in :func:`_tail_mass_table`.

    The complement (l/N1)^v - sum_{k<=n} ... is not used: when S is small it
    subtracts two numbers of order N1 (for v = 3, n = 2, N1 = 4096, S is
    6e-8 and about 10 digits cancel).
    """
    a = mi.canonical(a)
    if not a:
        raise ValueError("tail mass of the zero index is undefined")
    _check_orders(n, n1)
    return _tail_mass_value(a[-1], n, n1)


def _log_denominator(n: int, n1: int) -> float:
    """log(n! N1^n), finite at every order."""
    return math.lgamma(n + 1) + n * math.log(n1)


def tail_mass_bound(a: MultiIndex, n: int, n1: int, r: float) -> float:
    """Interpolated upper bound (|a|^n / (n! N1^n))^r for the tail mass."""
    a = mi.canonical(a)
    if not a:
        raise ValueError("tail mass bound of the zero index is undefined")
    _check_interpolation(r)
    _check_orders(n, n1)
    return math.exp(r * (n * math.log(sum(a)) - _log_denominator(n, n1)))


def err_norm_refined(f: ChaosExpansion, n: int, n1: int, s: float) -> float:
    """Exact Sobolev-s norm of the order-n error after refining by N1.

    Fine indexes matching distinct coarse indexes are disjoint, so the squared
    norm is sum_a (1+|a|)^s c_a^2 S(a, n, N1) over the coarse support.  The
    summand depends on a only through |a| and a_ell, so the sum runs over
    the expansion's degree classes against one tail-mass table, with the
    weights (1+|a|)^s scaled as :meth:`ChaosExpansion.sobolev_classes` gives
    them, so that none overflows.  Where e^scale alone overflows, the norm is
    taken in log space; if it is no float either, an OverflowError names s.
    """
    _check_orders(n, n1)
    degree, last, weight = f.degree_classes
    if not last.size:
        return 0.0
    # classes are sorted by degree, and no last entry exceeds its degree
    table = _tail_mass_table(n, n1, _table_size(int(degree[-1])))
    scale, ratios, _ = f.sobolev_classes(s)
    mass = float(weight @ (ratios * table[last]))
    try:
        return math.exp(0.5 * scale) * math.sqrt(mass)
    except OverflowError:
        # e^scale alone is too large: the norm may still be a float
        return _exp_half(scale + math.log(mass), "error norm", s) if mass else 0.0


def _exp_half(log_sq: float, quantity: str, s: float) -> float:
    """exp(log_sq / 2), or an OverflowError naming the quantity and its Sobolev index s."""
    try:
        return math.exp(0.5 * log_sq)
    except OverflowError:
        raise OverflowError(
            f"the {quantity} overflows a float: Sobolev index s={s!r} is too large"
        ) from None


def error_norm_bound(f: ChaosExpansion, n: int, n1: int, s: float, r: float) -> float:
    """Upper bound ||F||_{2,s+rn} / (n! N1^n)^{r/2} for the refined error norm.

    Evaluated in log space, so that neither (1+|a|)^{s+rn} nor n! N1^n
    overflows at high orders; the norm is computed once per expansion and
    Sobolev index s + r n.
    """
    _check_interpolation(r)
    _check_orders(n, n1)
    return _bound(f, n, s, r, _log_denominator(n, n1))


def _check_interpolation(r: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise ValueError("interpolation exponent r must lie in [0, 1]")


def _bound(f: ChaosExpansion, n: int, s: float, r: float, log_den: float) -> float:
    """:func:`error_norm_bound` with log(n! N1^n) given; 0.0 for the zero expansion."""
    if not f.coeffs:
        return 0.0
    scale, _, total = f.sobolev_classes(s + r * n)
    return _exp_half(scale + math.log(total) - r * log_den, "bound", s)


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool
    slack: float


#: relative slack absorbing roundoff in mathematically tight cases
BOUND_REL_SLACK = 1e-12


def bound_holds(lhs: float, rhs: float) -> bool:
    """Whether the error norm lhs is within its bound rhs, up to BOUND_REL_SLACK."""
    return lhs <= rhs * (1.0 + BOUND_REL_SLACK)


#: one row of :func:`verify_bounds`: (n, N1, s, r, lhs, rhs, holds, slack)
BoundRow = Tuple[int, int, float, float, float, float, bool, float]


def verify_bounds(
    f: ChaosExpansion,
    orders: Iterable[int],
    n1_list: Iterable[int],
    s_list: Iterable[float],
    r_list: Iterable[float],
) -> Iterator[BoundRow]:
    """The bound table of one expansion, in ``itertools.product`` order.

    Row (n, N1, s, r) holds lhs = err_norm_refined(f, n, N1, s), its bound
    rhs = error_norm_bound(f, n, N1, s, r), whether lhs is within it
    (:func:`bound_holds`) and the slack rhs - lhs.  lhs is computed once per
    (n, N1, s) and log(n! N1^n) once per (n, N1).  Every n, N1 and r is
    checked before the first row.  A norm or bound too large for a float
    raises an OverflowError that names its row.
    """
    orders, n1_list, s_list, r_list = map(tuple, (orders, n1_list, s_list, r_list))
    for n, n1 in itertools.product(orders, n1_list):
        _check_orders(n, n1)
    for r in r_list:
        _check_interpolation(r)
    return _bound_rows(f, orders, n1_list, s_list, r_list)


def _bound_rows(f, orders, n1_list, s_list, r_list) -> Iterator[BoundRow]:
    for n, n1 in itertools.product(orders, n1_list):
        log_den = _log_denominator(n, n1)
        for s in s_list:
            lhs = None
            for r in r_list:
                try:
                    if lhs is None:
                        lhs = err_norm_refined(f, n, n1, s)
                    rhs = _bound(f, n, s, r, log_den)
                except OverflowError as exc:
                    row = f"({n}, {n1}, {s!r}, {r!r})"
                    raise OverflowError(f"row (n, N1, s, r) = {row}: {exc}") from None
                yield n, n1, s, r, lhs, rhs, bound_holds(lhs, rhs), rhs - lhs


def verify_bound(f: ChaosExpansion, n: int, n1: int, s: float, r: float) -> BoundCheck:
    """The one-row :func:`verify_bounds` table at (n, N1, s, r)."""
    (*_, lhs, rhs, holds, slack), = verify_bounds(f, [n], [n1], [s], [r])
    return BoundCheck(lhs=lhs, rhs=rhs, holds=holds, slack=slack)


def malliavin_derivative_squared_integral(f: ChaosExpansion, order: int) -> float:
    """Integral over [0, T] of the squared L2 norm of the order-th derivative.

    The derivative process is piecewise constant over grid intervals; slot i
    contributes (T/N) * (N/T)^order * sum_{a: a_i >= order} c_a^2 a_i!/(a_i-order)!.
    """
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    grid = f.grid
    total = 0.0
    for i in range(grid.N):
        slot_sum = 0.0
        for a, c in f.coeffs.items():
            ai = a[i] if i < len(a) else 0
            if ai >= order:
                slot_sum += c * c * math.factorial(ai) / math.factorial(ai - order)
        total += slot_sum
    return total * (grid.N / grid.T) ** (order - 1)


def zeta_error_bound(f: ChaosExpansion, n: int) -> float:
    """First-order style bound sqrt(T zeta(n+1) int ||D^{n+1}F||^2 dt) / sqrt(N).

    Comparative diagnostic at the expansion's own grid size; zero whenever the
    expansion has no coefficients of degree above n.
    """
    if n < 1:
        raise ValueError("error order n must be >= 1")
    integral = malliavin_derivative_squared_integral(f, n + 1)
    if integral == 0.0:
        return 0.0
    return math.sqrt(f.grid.T * _zeta(n + 1) * integral) / math.sqrt(f.grid.N)


#: B_2, B_4, ..., B_14: Bernoulli numbers of the Euler-Maclaurin tail
_BERNOULLI_EVEN = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
#: terms summed directly before the Euler-Maclaurin tail takes over
_ZETA_HEAD = 16


def _zeta(s: int) -> float:
    """Riemann zeta at an integer s >= 2.

    sum_{k<M} k^-s plus the Euler-Maclaurin tail from M = _ZETA_HEAD:
    M^{1-s}/(s-1) + M^-s/2 + sum_j B_2j/(2j)! s(s+1)...(s+2j-2) M^{1-s-2j}.
    The first omitted term, largest at s = 2, is below 1e-19 relative.
    """
    if s < 2:
        raise ValueError("zeta needs an integer argument >= 2")
    m = _ZETA_HEAD
    terms = [k ** -float(s) for k in range(1, m)]
    terms += [m ** (1.0 - s) / (s - 1), 0.5 * m ** -float(s)]
    factor = s / 2.0  # s (s+1) ... (s+2j-2) / (2j)!
    for j, bernoulli in enumerate(_BERNOULLI_EVEN, start=1):
        terms.append(bernoulli * factor * m ** (1.0 - s - 2 * j))
        factor *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2))
    return math.fsum(terms)


def fit_loglog_slope(xs, ys) -> Tuple[float, int]:
    """OLS slope of log y against log x; zero ys are excluded from the fit."""
    pts = [(x, y) for x, y in zip(xs, ys) if y > 0.0]
    if len(pts) < 2:
        return math.nan, len(pts)
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    slope = float(np.polyfit(lx, ly, 1)[0])
    return slope, len(pts)


def rate_report(
    payoff_id: str,
    f: ChaosExpansion,
    n: int,
    s: float,
    r: float,
    n1_list: List[int],
) -> RateReport:
    """Exact refined error norms and bounds across N1 values, with a slope fit."""
    if not n1_list or any(b <= a for a, b in zip(n1_list, n1_list[1:])):
        raise ValueError("N1 list must be nonempty and strictly increasing")
    table = verify_bounds(f, [n], n1_list, [s], [r])
    rows = [(n1, lhs, rhs) for _, n1, _, _, lhs, rhs, _, _ in table]
    slope, used = fit_loglog_slope([row[0] for row in rows], [row[1] for row in rows])
    return RateReport(
        payoff_id=payoff_id,
        n=n,
        s=s,
        r=r,
        rows=tuple(rows),
        fitted_slope=slope,
        fit_points=used,
    )
