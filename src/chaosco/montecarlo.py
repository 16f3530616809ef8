"""Payoff catalog, exact chaos coefficients, and seeded Monte Carlo experiments.

Each terminal payoff f(W_T), polynomial, exponential or digital, is one
object carrying its label, its one-step Hermite coefficients (Gauss quadrature
for polynomials, where it is exact; closed forms for exponentials and digitals)
and its conditional delta kernel; one builder makes its grid expansion and the
occupation time's from per-degree leads and per-slot weights.  Path sampling
uses the counter-based Philox generator in fixed-size blocks keyed by their
index, so any block is regenerated bit for bit; the estimators stream those
blocks, slot-major, one at a time instead of holding every path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from . import hermite, multiindex as mi
from .chaos import ChaosExpansion, GridSpec, _CanonicalCoeffs, _round_trip_g, evaluate
from .clark_ocone import err_tail
from .multiindex import PathBatchTooLarge, _check_fits  # noqa: F401 (re-exported)

#: per-block sample count for counter-based generation
SAMPLE_BLOCK = 4096
#: normals in the window that _map_blocks streams each block through: a whole
#: block on up to STREAM_WINDOW // SAMPLE_BLOCK = 64 slots
STREAM_WINDOW = 2**18
#: the window holds at least this many rows of the largest grid
STREAM_ROWS = 1024
#: block rows per tile of the copy into slot-major order: a tile of rows x N
#: doubles stays in cache, where one strided copy of the block does not
TRANSPOSE_ROWS = 64
#: hedge slots evaluated per numpy call, into (HEDGE_CHUNK, rows) buffers
HEDGE_CHUNK = 4


@dataclass(frozen=True)
class PolynomialPayoff:
    """f(W_T) = sum_k coeffs[k] * W_T^k."""

    coeffs: Tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("polynomial payoff needs at least one coefficient")
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError("polynomial coefficients must be finite")

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)

    @property
    def label(self) -> str:
        return "poly:" + ",".join(map(_round_trip_g, self.coeffs))

    @property
    def degree(self) -> int:
        nz = [k for k, c in enumerate(self.coeffs) if c != 0.0]
        return max(nz, default=0)

    def derivative(self) -> "PolynomialPayoff":
        der = np.polynomial.polynomial.polyder(np.asarray(self.coeffs, dtype=float))
        return PolynomialPayoff(tuple(der) if der.size else (0.0,))

    def hermite_coeffs(self, T: float, max_degree: int) -> np.ndarray:
        if self.degree == 0:
            return np.append(float(self.coeffs[0]), np.zeros(max_degree))
        # the fewest Gauss nodes exact for f H_max_degree; the table is checked first
        order = (self.degree + max_degree) // 2 + 1
        _check_fits((max_degree + 1) * order * 8,
                    f"Hermite values of degrees 0..{max_degree} at {order} quadrature nodes")
        rule = hermite.gauss_hermite_rule(order)
        values = self(math.sqrt(T) * rule.nodes)
        d = hermite.eval_all(max_degree, rule.nodes) @ (rule.weights * values)
        if not np.all(np.isfinite(d)):
            raise ArithmeticError("non-finite quadrature result in terminal expansion")
        return d

    def conditional_delta(self) -> DeltaKernel:
        # E[f'(w + sqrt_var Z)] slot by slot, on the fewest Gauss nodes exact for f'
        df = self.derivative()
        rule = hermite.gauss_hermite_rule(df.degree // 2 + 1)

        def delta(w: np.ndarray, sqrt_var: np.ndarray, out: np.ndarray) -> None:
            for w_slot, root, out_slot in zip(w, sqrt_var[:, 0].tolist(), out):
                shifted = w_slot[:, None] + root * rule.nodes[None, :]
                np.matmul(df(shifted), rule.weights, out=out_slot)

        return delta


@dataclass(frozen=True)
class ExponentialPayoff:
    """f(W_T) = Re(c e^{beta W_T}), c and beta complex: e^{aW}, sin(bW), cos(bW), ...

    d_m = Re(c e^{beta^2 T/2} (beta sqrt(T))^m / sqrt(m!)) as a running product
    whose binary exponent is carried apart, exact to rounding even where
    e^{beta^2 T/2} is not a normal float, and E[f'(w + s Z)] =
    Re(c beta e^{beta w + beta^2 s^2/2}).  A non-finite d_m (or c, beta) is refused.
    """

    c: complex
    beta: complex

    def __call__(self, x):
        return (self.c * np.exp(self.beta * np.asarray(x, dtype=float))).real

    @property
    def label(self) -> str:
        return f"Re(({_round_trip_g(self.c)})*exp(({_round_trip_g(self.beta)})*x))"

    def hermite_coeffs(self, T: float, max_degree: int) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            half = self.beta**2 * T / 2
            # e^half below 2^-1022 is e^{half - lost ln 2} 2^lost, reduced exactly by
            # ln 2's high 32 bits and then by the rest (Cody & Waite), |reduced| <= ln2/2
            lost = np.round(half.real / math.log(2)) if half.real / math.log(2) < -1022 else 0.0
            reduced = half - lost * 0.6931471803691238 - lost * 1.9082149292705877e-10
            steps = self.beta * np.sqrt(T / np.arange(1.0, max_degree + 1))
            terms = np.append(self.c * np.exp(reduced), steps)
            exponents = np.rint(np.cumsum(np.log2(np.abs(terms) + np.finfo(float).tiny)))
            # each term times 2^{-(its rise in the running exponent)}, exactly: the
            # product stays near modulus 1, bit-equal to the plain one where that is normal
            product = np.cumprod(terms * np.exp2(-np.diff(exponents, prepend=0.0)))
            d = np.ldexp(product.real, (exponents + lost).astype(int))
        if not np.all(np.isfinite(d)):
            raise ArithmeticError("non-finite closed form in terminal expansion")
        return d

    def conditional_delta(self) -> DeltaKernel:
        def delta(w: np.ndarray, sqrt_var: np.ndarray, out: np.ndarray) -> None:
            z = np.multiply(w, self.beta)
            z += self.beta**2 / 2 * np.square(sqrt_var)
            np.copyto(out, (self.c * self.beta * np.exp(z, out=z)).real)

        return delta


@dataclass(frozen=True)
class DigitalPayoff:
    """Indicator payoff 1_{[K, infinity)}(W_T)."""

    strike: float

    def __post_init__(self):
        if math.isnan(self.strike):
            raise ValueError("digital strike must not be NaN")

    def __call__(self, x):
        return (np.asarray(x, dtype=float) >= self.strike).astype(float)

    @property
    def label(self) -> str:
        return "digital:" + _round_trip_g(self.strike)

    def hermite_coeffs(self, T: float, max_degree: int) -> np.ndarray:
        return hermite.indicator_integrals(max_degree, self.strike / math.sqrt(T))

    def conditional_delta(self) -> DeltaKernel:
        # the exact Gaussian density on all slots at once, in place in out
        def delta(w: np.ndarray, sqrt_var: np.ndarray, out: np.ndarray) -> None:
            z = np.subtract(self.strike, w, out=out)
            z /= sqrt_var
            hermite.normal_pdf(z, out=z)
            z /= sqrt_var

        return delta


@dataclass(frozen=True)
class OccupationTimePayoff:
    """Time spent non-negative on the grid: sum_i 1_{[0,inf)}(W_{t_i}) T/N."""

    label = "occupation"


#: a terminal payoff has a label, hermite_coeffs(T, max_degree) (hermite_expand_terminal's d)
#: and conditional_delta() -> DeltaKernel: (w, sqrt_var, out) -> out[j] = E[f'(W_T) | W_t = w[j]]
#: at T - t = sqrt_var[j]^2; w and out are (slots, paths), sqrt_var is (slots, 1)
TerminalPayoff = Union[PolynomialPayoff, ExponentialPayoff, DigitalPayoff]
DeltaKernel = Callable[[np.ndarray, np.ndarray, np.ndarray], None]
Payoff = Union[TerminalPayoff, OccupationTimePayoff]


def payoff_label(payoff: Payoff) -> str:
    return payoff.label


def hermite_expand_terminal(f: TerminalPayoff, T: float, max_degree: int) -> np.ndarray:
    """One-step coefficients d_k = E[f(sqrt(T) Z) H_k(Z)], k = 0..max_degree, of a payoff."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError("horizon T must be positive and finite")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    if not isinstance(f, TerminalPayoff):
        raise TypeError(f"terminal expansion needs a terminal payoff, not {type(f).__name__}")
    return f.hermite_coeffs(T, max_degree)


def coeffs_terminal(
    payoff: TerminalPayoff, grid: GridSpec, max_degree: int
) -> ChaosExpansion:
    """Grid expansion of f(W_T): exact refinement of the one-step coefficients.

    c_{a'} = d_{|a'|} sqrt(|a'|!/a'!) N^{-|a'|/2} (weight 1) over all indexes of
    degree up to max_degree.  The index set is checked before anything is computed.
    """
    mi.check_upto_size(grid.N, max_degree)
    d = hermite_expand_terminal(payoff, grid.T, max_degree)
    return _grid_expansion(grid, d, -0.5 * np.arange(max_degree + 1) * math.log(grid.N))


def coeffs_occupation_time(grid: GridSpec, max_degree: int) -> ChaosExpansion:
    """Grid expansion of the occupation-time functional.

    Each time step contributes a digital at horizon t_i expanded on the first
    i slots; the coefficient at a' is (T/N) d_{|a'|} sqrt(|a'|!/a'!) times
    the weight sum over i >= last slot of a' of i^{-|a'|/2}, and the mean is
    T/2.  The index set is checked before anything is computed, and bounds
    the (max_degree + 1) * N weights to 8 times its table.
    """
    mi.check_upto_size(grid.N, max_degree)
    d = hermite_expand_terminal(DigitalPayoff(0.0), 1.0, max_degree)
    i = np.arange(1, grid.N + 1, dtype=float)
    tail_sums = [np.cumsum((i ** (-m / 2.0))[::-1])[::-1] for m in range(max_degree + 1)]
    lead = np.append(grid.T / 2.0, grid.dt * d[1:])
    return _grid_expansion(grid, lead, np.zeros(max_degree + 1), tail_sums)


def _grid_expansion(
    grid: GridSpec, lead: np.ndarray, shift: np.ndarray, weight=None
) -> ChaosExpansion:
    """c_a = lead[m] exp((log m! - log a!)/2 + shift[m]) weight[m][ell - 1] on grid.

    For each index a of degree m = 0..len(lead) - 1 and last slot ell, in the
    order of one ``mi.enumerate_upto`` stream, a degree at a time from its
    composition table.  The zero index, and every index if weight is None,
    has weight 1.  A degree whose lead is 0 adds no key; its keys are skipped.
    """
    log_factorials = mi.log_factorial_table(len(lead) - 1)
    coeffs = _CanonicalCoeffs()
    stream = mi.enumerate_upto(grid.N, len(lead) - 1)
    for m, lead_m in enumerate(lead.tolist()):
        table = mi.composition_table(m, grid.N)
        keys = itertools.islice(stream, len(table))
        if abs(lead_m) <= 0.0:
            next(itertools.islice(keys, len(table), len(table)), None)
            continue
        log_ratio = 0.5 * (log_factorials[m] - mi.log_factorial_rows(table, log_factorials))
        log_ratio += shift[m]
        values = [lead_m * math.exp(x) for x in log_ratio.tolist()]
        if m and weight is not None:
            # the last slot ell of each key picks its weight
            weights = weight[m][mi.row_lengths(table) - 1].tolist()
            values = [v * w for v, w in zip(values, weights)]
        coeffs.update(zip(keys, values))
    return ChaosExpansion(grid, coeffs)


def occupation_error_norm(grid: GridSpec, n: int, max_degree: int) -> float:
    """Order-n error norm of the truncated occupation-time expansion.

    Sums squared coefficients with last entry above n without materializing
    the index set: for degree m and last slot ell, those with last entry k
    share C(m,k) (ell-1)^{m-k} tail_m[ell]^2 after the m!/a'! reduction, and
    summed over k > n that is V_m[ell]^2 P(Bin(m, 1/ell) > n), with
    V_m[ell] = sum_{i >= ell} (ell/i)^{m/2} in [1, N].  The chance is carried
    with the first n + 1 probabilities of Bin(m, 1/ell), updated by Pascal's
    rule, a convex combination: every factor is positive and bounded, so none
    overflows at any order or degree.
    """
    if n < 1:
        raise ValueError("error order n must be >= 1")
    # no count of max_degree trials exceeds max_degree: the head needs no more rows
    rows = min(n, max_degree) + 1
    # the (slot, order) matrix of ratio powers that becomes V, and its
    # temporary, then the binomial head and its shifted copy
    _check_fits((2 * max_degree + 2 * rows + 2) * grid.N * 8,
                f"tail sums and slot powers of degree {max_degree} on {grid.N} slots")
    d = hermite_expand_terminal(DigitalPayoff(0.0), 1.0, max_degree)
    ell = np.arange(1, grid.N + 1, dtype=float)
    # V_m[ell] = 1 + (ell/(ell+1))^{m/2} V_m[ell+1], up from V_m[N] = 1
    tails = np.exp(np.multiply.outer(np.log1p(1.0 / ell), -0.5 * np.arange(1, max_degree + 1)))
    tails[-1] = 1.0
    for row in range(grid.N - 2, -1, -1):
        tails[row] = tails[row] * tails[row + 1] + 1.0
    # P(Bin(m, 1/ell) > n) rises by P(Bin(m-1, 1/ell) = n) / ell: trial m is success n+1
    p, stay = 1.0 / ell, (ell - 1) / ell
    head = np.zeros((rows, grid.N))  # P(Bin(m-1, 1/ell) = k) for k < rows
    head[0] = 1.0
    chances, total = np.zeros(grid.N), 0.0
    for m, v in enumerate(tails.T, start=1):
        chances += p * head[-1]
        shifted = p * head[:-1]
        head *= stay
        head[1:] += shifted
        total += d[m] ** 2 * float(v @ (v * chances))
    return grid.dt * math.sqrt(total)


# ---------------------------------------------------------------------------
# Path sampling


@dataclass(frozen=True)
class PathBatch:
    """Seeded description of a batch of standardized increments xi.

    Only the grid, the sample count and the Philox seed are stored.  The
    increments of block b are regenerated bit for bit from (seed, b)
    whenever an estimator streams the batch (``_map_blocks``), through a
    window and a slot buffer of at most max(STREAM_WINDOW, STREAM_ROWS * N)
    doubles each at every sample count.  ``increments`` materializes the
    whole (n_samples, N) array on first access, block by block, and keeps it.
    """

    grid: GridSpec
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

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
            _block_generator(self.seed, b).standard_normal(out=out[lo:hi])
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


def _block_generator(seed: int, block: int) -> np.random.Generator:
    """Block's stream: Philox(key=seed).jumped(block), filled in memory order."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(block))


def _block_bounds(block: int, n_samples: int) -> Tuple[int, int]:
    lo = block * SAMPLE_BLOCK
    return lo, min(lo + SAMPLE_BLOCK, n_samples)


def _map_blocks(
    batches: Sequence[PathBatch], fns: Sequence[Callable[[np.ndarray], np.ndarray]]
) -> List[np.ndarray]:
    """fns[i] over batches[i], a SAMPLE_BLOCK of paths at a time, in sample order.

    The batches share seed and sample count, so block b of each is the same
    Philox stream cut to its own grid: a batch on N slots reads its rows from
    the stream's first rows * N normals.  The stream is sampled once, at the
    largest N, a piece at a time into a window of max(STREAM_WINDOW,
    STREAM_ROWS * max N) normals, capped at the block's own.  Each batch gets
    its rows as soon as they are complete in the window, transposed
    TRANSPOSE_ROWS rows at a time, so that each tile stays in cache, into the
    one C-contiguous slot-major (N, rows) buffer that fn receives; fn returns
    one value per path.  The earliest incomplete row of any batch is carried
    into the next piece.  A batch whose whole block fits the window, every
    batch on up to 64 slots, gets one call per block; every other batch gets
    calls of at least STREAM_ROWS paths, bar a block's last.  The slot buffer
    is refilled for every call, so fn may overwrite it.  Everything runs on
    the calling thread, and an exception in the sampler or in fn is raised
    as it comes.  The window and the slot buffer are all that is held besides
    the results and what fn allocates per call: memory does not grow with
    n_samples, and with max N only as the window does.
    """
    if not batches:
        return []
    first = batches[0]
    if any((b.seed, b.n_samples) != (first.seed, first.n_samples) for b in batches):
        raise ValueError("path batches must share seed and n_samples")
    n = first.n_samples
    max_slots = max(b.grid.N for b in batches)
    _check_fits(len(batches) * n * 8, f"results of {n} paths on {len(batches)} grids")
    block_rows = min(n, SAMPLE_BLOCK)
    size = min(block_rows * max_slots, max(STREAM_WINDOW, STREAM_ROWS * max_slots))
    what = f"block buffers of {block_rows} paths on {max_slots} slots"
    if size < block_rows * max_slots:
        what += f", through a window of {size} normals,"
    _check_fits(2 * size * 8, what)
    outs = [np.empty(n) for _ in batches]
    window, slot_buffer = np.empty(size), np.empty(size)
    for b in range(first.n_blocks):
        lo, hi = _block_bounds(b, n)
        rows = hi - lo
        generator = _block_generator(first.seed, b)
        # rows handed to each batch; the window holds the stream's normals [start, end)
        done = [0] * len(batches)
        start = end = 0
        while end < rows * max_slots:
            # the earliest row that a batch still lacks moves to the window's front
            keep = min(d * batch.grid.N for d, batch in zip(done, batches) if d < rows)
            window[: end - keep] = window[keep - start : end - start]
            start = keep
            fill = min(size - (end - start), rows * max_slots - end)
            generator.standard_normal(out=window[end - start : end - start + fill])
            end += fill
            for i, (batch, fn, out) in enumerate(zip(batches, fns, outs)):
                slots = batch.grid.N
                top = min(end // slots, rows)
                count = top - done[i]
                if count == 0:
                    continue
                xi = slot_buffer[: count * slots].reshape(slots, count)
                paths = window[done[i] * slots - start : top * slots - start]
                paths = paths.reshape(count, slots)
                for tile in range(0, count, TRANSPOSE_ROWS):
                    tile_rows = slice(tile, tile + TRANSPOSE_ROWS)
                    np.copyto(xi[:, tile_rows], paths[tile_rows].T)
                out[lo + done[i] : lo + top] = fn(xi)
                done[i] = top
    return outs


def sample_paths(grid: GridSpec, n_samples: int, seed: int) -> PathBatch:
    """Deterministic batch of standardized normal increments.

    Generation happens in fixed SAMPLE_BLOCK-row blocks keyed by (seed, block
    index).  Each block is filled row-major from its own stream, so block b
    on N slots holds the first rows * N normals of block b on any larger
    grid with the same seed and sample count: one sampling pass serves a
    whole list of grids, and a grid's rows are ready once the stream has
    passed them.  Nothing is sampled here: estimators stream the blocks
    through a bounded window, and ``increments`` builds the full array on
    demand.
    """
    return PathBatch(grid, n_samples, seed)


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

    The batches share seed and sample count (see ``_map_blocks``);
    each estimate is bit-equal to the one its batch gives on its own.  A
    grid whose block fits the stream window, every grid of up to 64 slots,
    is hedged in one call per block, and a larger one in calls of at least
    STREAM_ROWS paths, bar a block's last.  The kernel scales each
    slot-major piece to dW in place, since it is the slot buffer that
    ``_map_blocks`` refills for every call, and evaluates HEDGE_CHUNK slots
    per numpy call into one (2, HEDGE_CHUNK, rows) buffer per call.  W_T is
    the end of the running sum that gives each W_{t_{ell-1}}, and each dW
    slot holds its hedge term once the sum has passed it.  Its operations
    and their order are those of the slot-by-slot loop, so the residuals
    are too.
    """
    if isinstance(payoff, OccupationTimePayoff):
        raise TypeError("tracking-error hedging requires a terminal payoff")
    delta = payoff.conditional_delta()

    def hedge_on(grid: GridSpec) -> Callable[[np.ndarray], np.ndarray]:
        sqrt_dt = math.sqrt(grid.dt)
        mean = float(hermite_expand_terminal(payoff, grid.T, 0)[0])
        # sqrt(T - t_{ell-1}) for ell = 1..N, one row per slot, made once on
        # the first call: after _map_blocks has checked that N slots fit
        sqrt_var = None

        def hedge(xi: np.ndarray) -> np.ndarray:
            nonlocal sqrt_var
            if sqrt_var is None:
                sqrt_var = np.sqrt(grid.T - np.arange(grid.N) * grid.dt)[:, None]
            # xi is _map_blocks's slot buffer, refilled for every call: it becomes dW
            dw = np.multiply(xi, sqrt_dt, out=xi)
            slots, rows = dw.shape
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

