"""Payoff catalog, exact chaos coefficients, and seeded Monte Carlo experiments.

Terminal payoffs f(W_T) get their one-step Hermite coefficients by quadrature
(smooth f) or closed-form half-line integrals (digitals); the grid expansion
is the exact refinement of the one-step one.  Path sampling uses the
counter-based Philox generator in fixed-size blocks so results are bit-stable
regardless of how many threads sample them; the estimators stream those
blocks, slot-major, on the calling thread instead of holding every path.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import clark_ocone, hermite, multiindex as mi
from .chaos import ChaosExpansion, GridSpec, _CanonicalCoeffs, evaluate
from .clark_ocone import RateReport, err_tail, rate_report
from .multiindex import PathBatchTooLarge, _check_fits  # noqa: F401 (re-exported)

#: per-block sample count for counter-based generation
SAMPLE_BLOCK = 4096
#: block rows per tile of the copy into slot-major order: a tile of rows x N
#: doubles stays in cache, where one strided copy of the block does not
TRANSPOSE_ROWS = 64
#: hedge slots evaluated per numpy call, into (HEDGE_CHUNK, rows) buffers
HEDGE_CHUNK = 4
#: quadrature margin beyond polynomial exactness for smooth integrands
QUAD_EXTRA_ORDER = 8


@dataclass(frozen=True)
class PolynomialPayoff:
    """f(W_T) = sum_k coeffs[k] * W_T^k."""

    coeffs: Tuple[float, ...]

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)

    @property
    def degree(self) -> int:
        nz = [k for k, c in enumerate(self.coeffs) if c != 0.0]
        return max(nz, default=0)

    def derivative(self) -> "PolynomialPayoff":
        der = np.polynomial.polynomial.polyder(np.asarray(self.coeffs, dtype=float))
        return PolynomialPayoff(tuple(der) if der.size else (0.0,))


@dataclass(frozen=True)
class SmoothPayoff:
    """Smooth terminal payoff with an explicit first derivative."""

    f: Callable
    df: Callable
    name: str = "smooth"

    def __call__(self, x):
        return np.asarray(self.f(x), dtype=float)


@dataclass(frozen=True)
class DigitalPayoff:
    """Indicator payoff 1_{[K, infinity)}(W_T)."""

    strike: float

    def __post_init__(self):
        if math.isnan(self.strike):
            raise ValueError("digital strike must not be NaN")

    def __call__(self, x):
        return (np.asarray(x, dtype=float) >= self.strike).astype(float)


@dataclass(frozen=True)
class OccupationTimePayoff:
    """Time spent non-negative on the grid: sum_i 1_{[0,inf)}(W_{t_i}) T/N."""


TerminalPayoff = Union[PolynomialPayoff, SmoothPayoff, DigitalPayoff]
Payoff = Union[TerminalPayoff, OccupationTimePayoff]


def hermite_expand_terminal(
    f: Union[Callable, TerminalPayoff], T: float, max_degree: int
) -> np.ndarray:
    """One-step coefficients d_k = E[f(sqrt(T) Z) H_k(Z)], k = 0..max_degree.

    Digitals use the closed-form half-line integrals with threshold K/sqrt(T);
    everything else goes through Gauss quadrature against the normal weight,
    its (max_degree + 1) x order Hermite table checked against physical
    memory before the rule is built.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError("horizon T must be positive and finite")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    if isinstance(f, DigitalPayoff):
        return hermite.indicator_integrals(max_degree, f.strike / math.sqrt(T))
    if isinstance(f, PolynomialPayoff):
        if f.degree == 0:
            d = np.zeros(max_degree + 1)
            d[0] = f.coeffs[0]
            return d
        order = (f.degree + max_degree) // 2 + 1
    else:
        order = max_degree + QUAD_EXTRA_ORDER
    _check_fits((max_degree + 1) * order * 8,
                f"Hermite values of degrees 0..{max_degree} at {order} quadrature nodes")
    rule = hermite.gauss_hermite_rule(order)
    values = np.asarray(f(math.sqrt(T) * rule.nodes), dtype=float)
    table = hermite.eval_all(max_degree, rule.nodes)
    d = table @ (rule.weights * values)
    if not np.all(np.isfinite(d)):
        raise ArithmeticError("non-finite quadrature result in terminal expansion")
    return d


def coeffs_terminal(
    payoff: TerminalPayoff, grid: GridSpec, max_degree: int
) -> ChaosExpansion:
    """Grid expansion of f(W_T): exact refinement of the one-step coefficients.

    c_{a'} = d_{|a'|} sqrt(|a'|!/a'!) N^{-|a'|/2} over all indexes of degree
    up to max_degree.  The index set is checked before anything is computed.
    """
    mi.check_upto_size(grid.N, max_degree)
    d = hermite_expand_terminal(payoff, grid.T, max_degree)
    log_factorials = mi.log_factorial_table(max_degree)
    log_n = math.log(grid.N)
    coeffs = _CanonicalCoeffs()
    for m, keys, table in _degree_tables(grid.N, max_degree):
        if abs(d[m]) <= 0.0:
            continue
        dm = float(d[m])
        log_ratio = 0.5 * (log_factorials[m] - mi.log_factorial_rows(table, log_factorials))
        log_ratio -= 0.5 * m * log_n
        coeffs.update(zip(keys, [dm * math.exp(x) for x in log_ratio.tolist()]))
    return ChaosExpansion(grid, coeffs)


def _degree_tables(dimension: int, max_degree: int):
    """(m, keys of degree m, composition_table(m, dimension)) for m = 0..max_degree.

    The keys are the stream of ``mi.enumerate_upto`` cut at each degree, in
    the table's row order; those a caller leaves unread are consumed before
    the next degree.
    """
    stream = mi.enumerate_upto(dimension, max_degree)
    for m in range(max_degree + 1):
        table = mi.composition_table(m, dimension)
        keys = itertools.islice(stream, len(table))
        yield m, keys, table
        next(itertools.islice(keys, len(table), len(table)), None)


def coeffs_occupation_time(grid: GridSpec, max_degree: int) -> ChaosExpansion:
    """Grid expansion of the occupation-time functional.

    Each time step contributes a digital at horizon t_i expanded on the first
    i slots; the coefficient at a' is (T/N) d_{|a'|} sqrt(|a'|!/a'!) times
    sum over i >= last slot of a' of i^{-|a'|/2}.  The index set is checked
    before anything is computed.
    """
    mi.check_upto_size(grid.N, max_degree)
    d = hermite_expand_terminal(DigitalPayoff(0.0), 1.0, max_degree)
    tail_sums = _inverse_power_tail_sums(grid.N, max_degree)
    log_factorials = mi.log_factorial_table(max_degree)
    coeffs = _CanonicalCoeffs({(): grid.T / 2.0})
    for m, keys, table in _degree_tables(grid.N, max_degree):
        if m == 0 or d[m] == 0.0:
            continue
        scale = grid.dt * float(d[m])
        log_ratio = 0.5 * (log_factorials[m] - mi.log_factorial_rows(table, log_factorials))
        # the last slot ell of each key picks its tail sum
        tails = tail_sums[m][mi.row_lengths(table) - 1]
        coeffs.update(zip(keys, [scale * math.exp(x) * t
                                 for x, t in zip(log_ratio.tolist(), tails.tolist())]))
    return ChaosExpansion(grid, coeffs)


def _inverse_power_tail_sums(n: int, max_degree: int) -> Dict[int, np.ndarray]:
    """tail_sums[m][l-1] = sum_{i=l}^{n} i^{-m/2} for m = 1..max_degree.

    Its size, with i and one row of powers, is checked before allocating.
    """
    _check_fits((max_degree + 2) * n * 8, f"tail sums of degree {max_degree} on {n} slots")
    i = np.arange(1, n + 1, dtype=float)
    out = {}
    for m in range(1, max_degree + 1):
        powers = i ** (-m / 2.0)
        out[m] = np.cumsum(powers[::-1])[::-1]
    return out


def occupation_error_norm(grid: GridSpec, n: int, max_degree: int) -> float:
    """Order-n error norm of the truncated occupation-time expansion.

    Sums squared coefficients with last entry above n without materializing
    the index set: for degree m and last slot l the coefficients with last
    entry k share the factor C(m,k) (l-1)^{m-k} after the m!/a'! reduction.
    """
    if n < 1:
        raise ValueError("error order n must be >= 1")
    # the tail sums and one (slot, order) power matrix, checked before either
    _check_fits((2 * max_degree + 2) * grid.N * 8,
                f"tail sums and slot powers of degree {max_degree} on {grid.N} slots")
    d = hermite_expand_terminal(DigitalPayoff(0.0), 1.0, max_degree)
    tail_sums = _inverse_power_tail_sums(grid.N, max_degree)
    earlier_slots = np.arange(grid.N, dtype=float)  # ell - 1 for ell = 1..N
    total = 0.0
    for m in range(n + 1, max_degree + 1):
        if d[m] == 0.0:
            continue
        k = np.arange(n + 1, m + 1)
        binomials = np.array([float(math.comb(m, j)) for j in k])
        # sum_{k=n+1}^{m} C(m,k) (ell-1)^{m-k}, one entry per slot ell
        combinatorial = (earlier_slots[:, None] ** (m - k)) @ binomials
        total += d[m] ** 2 * float(tail_sums[m] ** 2 @ combinatorial)
    return grid.dt * math.sqrt(total)


# ---------------------------------------------------------------------------
# Path sampling


@dataclass(frozen=True)
class PathBatch:
    """Seeded description of a batch of standardized increments xi.

    Only the grid, the sample count, the Philox seed and the thread count are
    stored.  The increments of block b are regenerated bit for bit from
    (seed, b) whenever an estimator streams the batch (``_map_blocks``): with
    ``workers`` >= 2, one sampler thread fills a block while the calling
    thread runs the estimator, and two block buffers are held at every
    ``workers`` and sample count.  ``increments`` materializes the whole
    (n_samples, N) array on first access, block by block in one thread, and
    keeps it.
    """

    grid: GridSpec
    n_samples: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.n_samples < 1 or self.workers < 1:
            raise ValueError("n_samples and workers must be >= 1")

    @property
    def n_blocks(self) -> int:
        return -(-self.n_samples // SAMPLE_BLOCK)

    @cached_property
    def increments(self) -> np.ndarray:
        """All paths, (n_samples, N), assembled in block order."""
        _check_fits(self.n_samples * self.grid.N * 8,
                    f"increments of {self.n_samples} paths on {self.grid.N} slots")
        out = np.empty((self.n_samples, self.grid.N))
        for b in range(self.n_blocks):
            lo, hi = _block_bounds(b, self.n_samples)
            _sample_block(self.seed, b, out[lo:hi])
        return out

    def brownian_paths(self) -> np.ndarray:
        """Cumulative W_{t_1}..W_{t_N} per sample, (n_samples, N).

        Its size, and that of the increments unless they are already held,
        is checked before anything is allocated; the scaled increments and
        their running sums share one array.
        """
        arrays = 1 if "increments" in self.__dict__ else 2
        _check_fits(arrays * self.n_samples * self.grid.N * 8,
                    f"Brownian paths of {self.n_samples} samples on {self.grid.N} slots")
        paths = np.multiply(math.sqrt(self.grid.dt), self.increments)
        return np.cumsum(paths, axis=1, out=paths)


def _sample_block(seed: int, block: int, rows: np.ndarray) -> None:
    _block_pieces(seed, block, rows.reshape(-1), [rows.size])[0]()


def _block_pieces(
    seed: int, block: int, stream: np.ndarray, ends: Sequence[int]
) -> List[Callable[[], None]]:
    """Fills of stream[:ends[0]], stream[ends[0]:ends[1]], ... from block's generator.

    Run in order, they leave stream[:ends[-1]] bit-equal to _sample_block's
    one fill: the generator draws the same normals however its output is cut.
    """
    fill = np.random.Generator(np.random.Philox(key=seed).jumped(block)).standard_normal
    return [partial(fill, out=stream[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def _block_bounds(block: int, n_samples: int) -> Tuple[int, int]:
    lo = block * SAMPLE_BLOCK
    return lo, min(lo + SAMPLE_BLOCK, n_samples)


def _pool_size(workers: int, n_blocks: int) -> int:
    """Threads the streamed estimators may use, the calling one included.

    Never more than requested, blocks, or CPUs; at 2 or more, one sampler
    thread fills the blocks while the calling thread evaluates them.
    """
    return max(1, min(workers, n_blocks, os.cpu_count() or 1))


def _map_blocks(
    batches: Sequence[PathBatch], fns: Sequence[Callable[[np.ndarray], np.ndarray]]
) -> List[np.ndarray]:
    """fns[i] over batches[i], one SAMPLE_BLOCK of paths at a time, in sample order.

    The batches share seed, sample count and workers, so block b of each is
    the same Philox stream cut to its own grid: it is sampled once, row-major
    at the largest N, into one stream buffer, and every batch reads its rows
    from a prefix of it.  The stream is filled in pieces that end at each
    distinct rows * N, and the batches are taken in ascending N, so each
    prefix is transposed as soon as it is filled: TRANSPOSE_ROWS rows at a
    time, so that each tile stays in cache, into the one C-contiguous
    slot-major (N, rows) buffer that fn receives; fn returns one value per
    path.  The slot buffer is refilled for every call, so fn may overwrite
    it.  Every fn runs on the calling thread, block after block.

    With _pool_size(workers, n_blocks) >= 2 the pieces run in order on one
    sampler thread (numpy's generator fills without holding the GIL), and
    block b + 1's are submitted once block b's last prefix is transposed,
    so they overlap its last fn; otherwise the calling thread fills each
    piece when its prefix is needed.  A block's stream comes from one
    sequential generator and the calling thread is the busier one, so more
    workers add no sampler.  Two block buffers are held at every worker
    count, and memory does not grow with n_samples beyond the results and
    what fn allocates per call.  Every block is keyed by its own index, so
    results do not depend on workers.  An exception in a sampler or in fn
    is raised here once the sampler has ended the piece it had started.
    """
    if not batches:
        return []
    first = batches[0]
    shared = (first.seed, first.n_samples, first.workers)
    if any((b.seed, b.n_samples, b.workers) != shared for b in batches):
        raise ValueError("path batches must share seed, n_samples and workers")
    n, n_blocks = first.n_samples, first.n_blocks
    slot_counts = sorted({b.grid.N for b in batches})
    _check_fits(len(batches) * n * 8, f"results of {n} paths on {len(batches)} grids")
    size = min(n, SAMPLE_BLOCK) * slot_counts[-1]
    _check_fits(2 * size * 8,
                f"block buffers of {min(n, SAMPLE_BLOCK)} paths on {slot_counts[-1]} slots")
    outs = [np.empty(n) for _ in batches]
    stream, slot_buffer = np.empty(size), np.empty(size)
    order = sorted(range(len(batches)), key=lambda i: batches[i].grid.N)
    pool = None
    if _pool_size(first.workers, n_blocks) >= 2:
        from concurrent.futures import ThreadPoolExecutor  # one-thread runs never pay for it
        pool = ThreadPoolExecutor(max_workers=1)

    def sample(b: int) -> List[Callable[[], None]]:
        # block b's pieces, one per distinct N, in the order the loop asks
        # for them: each call waits for its piece, or fills it just once
        lo, hi = _block_bounds(b, n)
        pieces = _block_pieces(first.seed, b, stream, [(hi - lo) * N for N in slot_counts])
        return [pool.submit(fill).result for fill in pieces] if pool else list(map(cache, pieces))

    try:
        pieces = sample(0)
        for b in range(n_blocks):
            lo, hi = _block_bounds(b, n)
            rows = hi - lo
            for i in order:
                slots = batches[i].grid.N
                pieces[slot_counts.index(slots)]()
                xi = slot_buffer[: rows * slots].reshape(slots, rows)
                paths = stream[: rows * slots].reshape(rows, slots)
                for tile in range(0, rows, TRANSPOSE_ROWS):
                    tile_rows = slice(tile, tile + TRANSPOSE_ROWS)
                    np.copyto(xi[:, tile_rows], paths[tile_rows].T)
                if i == order[-1] and b + 1 < n_blocks:
                    # the stream has been read: block b + 1 fills it during this fn
                    pieces = sample(b + 1)
                outs[i][lo:hi] = fns[i](xi)
    finally:
        if pool is not None:
            # on an exception, pieces not yet started are dropped
            pool.shutdown(cancel_futures=True)
    return outs


def sample_paths(
    grid: GridSpec, n_samples: int, seed: int, workers: int = 1
) -> PathBatch:
    """Deterministic batch of standardized normal increments.

    Generation happens in fixed SAMPLE_BLOCK-row blocks keyed by (seed, block
    index), so every result is independent of ``workers``, which only lets a
    sampler thread fill the next block during estimation.  Each block
    is filled row-major from its own stream, so block b on N slots holds the
    first rows * N normals of block b on any larger grid with the same seed
    and sample count: one sampling pass serves a whole list of grids.
    Nothing is sampled here: estimators stream the blocks, and
    ``increments`` builds the full array on demand.
    """
    return PathBatch(grid, n_samples, seed, workers)


# ---------------------------------------------------------------------------
# Monte Carlo estimators


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float


def _l2_of_samples(values: np.ndarray) -> McEstimate:
    """sqrt(mean of squares) with a delta-method standard error."""
    sq = values * values
    mean_sq = float(np.mean(sq))
    se_mean = float(np.std(sq, ddof=1)) / math.sqrt(len(sq)) if len(sq) > 1 else 0.0
    l2 = math.sqrt(mean_sq)
    se = se_mean / (2.0 * l2) if l2 > 0 else math.sqrt(se_mean)
    return McEstimate(estimate=l2, std_error=se)


def mc_err_norm(f: ChaosExpansion, n: int, batch: PathBatch) -> McEstimate:
    """Monte Carlo estimate of the order-n error norm by pathwise evaluation."""
    if batch.grid != f.grid:
        raise ValueError("path batch grid does not match the expansion grid")
    tail = err_tail(f, n)
    if not tail.coeffs:
        return McEstimate(0.0, 0.0)
    return _l2_of_samples(_map_blocks([batch], [lambda xi: evaluate(tail, xi.T)])[0])


def _conditional_delta(
    payoff: TerminalPayoff,
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], None]:
    """(w, sqrt_var, out) -> out[j] = E[f'(W_T) | W_t = w[j]] with T - t = sqrt_var[j]^2.

    w and out are (slots, paths) and sqrt_var is (slots, 1); f' and the rule
    are built once.  Smooth payoffs are heat-kernel smoothed by quadrature in
    the residual variable, one slot at a time; the digital evaluates the
    exact Gaussian density formula on all slots at once, in place in out.
    """
    if isinstance(payoff, DigitalPayoff):
        def delta(w: np.ndarray, sqrt_var: np.ndarray, out: np.ndarray) -> None:
            z = np.subtract(payoff.strike, w, out=out)
            z /= sqrt_var
            hermite.normal_pdf(z, out=z)
            z /= sqrt_var

        return delta
    if isinstance(payoff, PolynomialPayoff):
        df = payoff.derivative()
        rule = hermite.gauss_hermite_rule(df.degree // 2 + 1)
    else:
        df = payoff.df
        rule = hermite.gauss_hermite_rule(24)

    def delta(w: np.ndarray, sqrt_var: np.ndarray, out: np.ndarray) -> None:
        for w_slot, root, out_slot in zip(w, sqrt_var[:, 0].tolist(), out):
            shifted = w_slot[:, None] + root * rule.nodes[None, :]
            np.matmul(np.asarray(df(shifted)), rule.weights, out=out_slot)

    return delta


def tracking_error_hedge(
    payoff: TerminalPayoff, grid: GridSpec, batch: PathBatch
) -> McEstimate:
    """L2 estimate of the first-order delta-hedge tracking error.

    Pathwise residual F - E[F] - sum_l E[D_{t_l}F | F_{t_{l-1}}] dW_l with the
    conditional delta evaluated analytically at each rebalancing time.
    """
    if batch.grid != grid:
        raise ValueError("path batch grid does not match the requested grid")
    return tracking_error_hedges(payoff, [batch])[0]


def tracking_error_hedges(
    payoff: TerminalPayoff, batches: Sequence[PathBatch]
) -> List[McEstimate]:
    """:func:`tracking_error_hedge` on each batch's grid, from one sampling pass.

    The batches share seed, sample count and workers (see ``_map_blocks``);
    each estimate is bit-equal to the one its batch gives on its own.  The
    kernel scales each slot-major block to dW in place, since the block is
    the slot buffer that ``_map_blocks`` refills for every call, and
    evaluates HEDGE_CHUNK slots per numpy call into one (2, HEDGE_CHUNK,
    rows) buffer per call.  W_T is the end of the running sum that gives
    each W_{t_{ell-1}}, and each dW slot holds its hedge term once the sum
    has passed it.  Its operations and their order are those of the
    slot-by-slot loop, so the residuals are too.
    """
    if isinstance(payoff, OccupationTimePayoff):
        raise TypeError("tracking-error hedging requires a terminal payoff")
    delta = _conditional_delta(payoff)

    def hedge_on(grid: GridSpec) -> Callable[[np.ndarray], np.ndarray]:
        sqrt_dt = math.sqrt(grid.dt)
        mean = float(hermite_expand_terminal(payoff, grid.T, 0)[0])

        def hedge(xi: np.ndarray) -> np.ndarray:
            # xi is _map_blocks's slot buffer, refilled for every call: it becomes dW
            dw = np.multiply(xi, sqrt_dt, out=xi)
            slots, rows = dw.shape
            # sqrt(T - t_{ell-1}) for ell = 1..N, one row per slot
            sqrt_var = np.sqrt(grid.T - np.arange(slots) * grid.dt)[:, None]
            chunk = min(HEDGE_CHUNK, slots)
            w, term = np.empty((2, chunk, rows))

            def advance(k: int, previous: np.ndarray, out: np.ndarray) -> None:
                # W_{t_k} from W_{t_{k-1}}: the running sum starts at
                # W_{t_1} = dW_1, so that W_T is added in np.cumsum's order
                if k == 1:
                    np.copyto(out, dw[0])
                else:
                    np.add(previous, dw[k - 1], out=out)

            # chunk by chunk, W_{t_{ell-1}} runs on in w and the hedge terms
            # fill term; once its dW has been added on, slot ell-1 of dw holds
            # term ell
            w[0] = 0.0
            for lo in range(0, slots, chunk):
                count = min(chunk, slots - lo)
                for j in range(1, count):
                    advance(lo + j, w[j - 1], w[j])
                delta(w[:count], sqrt_var[lo : lo + count], term[:count])
                # the next chunk's first W, and W_T after the last chunk
                advance(lo + count, w[count - 1], w[0])
                np.multiply(term[:count], dw[lo : lo + count], out=dw[lo : lo + count])
            residual = payoff(w[0]) - mean
            # the terms leave the residual slot by slot, as ell counts
            for hedge_term in dw:
                residual -= hedge_term
            return residual

        return hedge

    residuals = _map_blocks(batches, [hedge_on(batch.grid) for batch in batches])
    # reduced over the whole vector: per-block sums would change the last bits
    return [_l2_of_samples(r) for r in residuals]


def occupation_value(batch: PathBatch) -> np.ndarray:
    """Pathwise occupation time of [0, infinity) on the grid."""
    sqrt_dt = math.sqrt(batch.grid.dt)

    def occupation(xi: np.ndarray) -> np.ndarray:
        w = np.cumsum(sqrt_dt * xi, axis=0)
        return (w >= 0.0).sum(axis=0) * batch.grid.dt

    return _map_blocks([batch], [occupation])[0]


# ---------------------------------------------------------------------------
# Rate sweeps


def rate_sweep(
    payoff: TerminalPayoff,
    n: int,
    s: float,
    r: float,
    n1_list: Sequence[int],
    n0: int,
    T: float,
    max_degree: int,
    payoff_id: Optional[str] = None,
) -> RateReport:
    """Exact refined error norms of a terminal payoff across N1 values."""
    grid = GridSpec(T, n0)
    f = coeffs_terminal(payoff, grid, max_degree)
    return rate_report(
        payoff_id or payoff_label(payoff), f, n, s, r, list(n1_list)
    )


def occupation_rate_sweep(
    n: int, n_list: Sequence[int], T: float, max_degree: int
) -> List[Tuple[int, float]]:
    """Truncated-coefficient order-n error norms of the occupation functional."""
    return [
        (n_steps, occupation_error_norm(GridSpec(T, n_steps), n, max_degree))
        for n_steps in n_list
    ]


def payoff_label(payoff: Payoff) -> str:
    if isinstance(payoff, PolynomialPayoff):
        return "poly:" + ",".join(format(c, "g") for c in payoff.coeffs)
    if isinstance(payoff, DigitalPayoff):
        return f"digital:{payoff.strike:g}"
    if isinstance(payoff, OccupationTimePayoff):
        return "occupation"
    return getattr(payoff, "name", "smooth")
