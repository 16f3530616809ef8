import math
import sys
import threading
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaosco import chaos, clark_ocone as co, hermite, montecarlo as mc
from chaosco import multiindex as mi
from chaosco.chaos import ChaosExpansion, GridSpec

import oracles

#: small, deterministic property runs
PROPERTY = settings(max_examples=25, derandomize=True, deadline=None, database=None)


def test_polynomial_payoff():
    p = mc.PolynomialPayoff((1.0, 0.0, 2.0))
    assert p(3.0) == pytest.approx(19.0)
    assert p.degree == 2
    assert p.derivative().coeffs == (0.0, 4.0)
    assert mc.PolynomialPayoff((5.0,)).degree == 0


def test_hermite_expand_terminal_polynomial():
    # x^2 at T=1: d_0 = 1, d_2 = sqrt(2), all else zero
    d = mc.hermite_expand_terminal(mc.PolynomialPayoff((0.0, 0.0, 1.0)), 1.0, 4)
    assert d[0] == pytest.approx(1.0, abs=1e-13)
    assert d[2] == pytest.approx(math.sqrt(2), abs=1e-13)
    for k in (1, 3, 4):
        assert abs(d[k]) < 1e-13
    # scaling in T: x^2 at T=4 doubles the amplitude of H_2 twice
    d4 = mc.hermite_expand_terminal(mc.PolynomialPayoff((0.0, 0.0, 1.0)), 4.0, 2)
    assert d4[0] == pytest.approx(4.0, abs=1e-12)
    assert d4[2] == pytest.approx(4.0 * math.sqrt(2), abs=1e-12)


def test_smooth_payoff_call():
    payoff = mc.SmoothPayoff(np.sin, np.cos, "sin")
    xs = np.linspace(-2.0, 2.0, 9)
    assert payoff(xs).tobytes() == np.asarray(np.sin(xs), dtype=float).tobytes()
    # an integer-valued f still gives floats
    step = mc.SmoothPayoff(lambda x: np.asarray(x) > 0, np.zeros_like)
    assert payoff(0.5) == math.sin(0.5) and step(xs).dtype == float


def test_digital_payoff_rejects_nan_strike():
    with pytest.raises(ValueError, match="NaN"):
        mc.DigitalPayoff(math.nan)
    # infinite strikes are the constant 0 and constant 1 payoffs
    assert mc.hermite_expand_terminal(mc.DigitalPayoff(math.inf), 1.0, 3).tolist() == [0.0] * 4
    assert mc.hermite_expand_terminal(mc.DigitalPayoff(-math.inf), 1.0, 3).tolist() == [
        1.0, 0.0, 0.0, 0.0]
    grid = GridSpec(1.0, 2)
    assert mc.coeffs_terminal(mc.DigitalPayoff(math.inf), grid, 4).coeffs == {}
    assert mc.coeffs_terminal(mc.DigitalPayoff(-math.inf), grid, 4).coeffs == {(): 1.0}
    # phi(40) underflows to 0 while H_299(40) overflows: the product is 0, not NaN
    assert not mc.hermite_expand_terminal(mc.DigitalPayoff(40.0), 1.0, 300)[1:].any()


def test_indicator_integral_is_entry_of_digital_expansion():
    for strike in (0.0, 0.5, -0.5, -1.0, 2.3):
        for T in (0.25, 1.0, 3.0):
            d = mc.hermite_expand_terminal(mc.DigitalPayoff(strike), T, 60)
            threshold = strike / math.sqrt(T)
            for m in range(61):
                got = hermite.hermite_indicator_integral(m, threshold)
                assert np.float64(got).tobytes() == d[m].tobytes()


def test_oversized_expansions_refused_before_computing(monkeypatch):
    def unreachable(*args):
        raise AssertionError("one-step coefficients computed before the size check")

    monkeypatch.setattr(mi, "MAX_TABLE_BYTES", 100)
    monkeypatch.setattr(mc, "hermite_expand_terminal", unreachable)
    # C(4 + 3, 3) = 35 indexes on 4 int8 slots: 140 bytes
    with pytest.raises(mi.IndexSetTooLarge, match="35 indexes on 4 slots needs 140 bytes"):
        mc.coeffs_terminal(mc.DigitalPayoff(0.0), GridSpec(1.0, 4), 3)
    with pytest.raises(mi.IndexSetTooLarge, match="140 bytes"):
        mc.coeffs_occupation_time(GridSpec(1.0, 4), 3)


def test_hermite_table_refused_beyond_physical_memory(monkeypatch):
    # 100 pages of 4096 bytes; poly:0,0,1 at degree d needs d // 2 + 2 nodes
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}
    monkeypatch.setattr(mc.os, "sysconf", pages.__getitem__)
    square = mc.PolynomialPayoff((0.0, 0.0, 1.0))
    assert mc.hermite_expand_terminal(square, 1.0, 200).shape == (201,)
    needed = f"degrees 0..999999 .* {10**6 * (10**6 // 2 + 1) * 8} bytes"
    tracemalloc.start()
    try:
        with pytest.raises(mc.PathBatchTooLarge, match=needed):
            mc.hermite_expand_terminal(square, 1.0, 10**6 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
def test_hermite_expand_terminal_rejects_bad_horizon(T):
    for payoff in (mc.DigitalPayoff(1.0), mc.PolynomialPayoff((0.0, 0.0, 1.0))):
        with pytest.raises(ValueError, match="horizon T must be positive and finite"):
            mc.hermite_expand_terminal(payoff, T, 3)


def test_hermite_expand_terminal_digital():
    d = mc.hermite_expand_terminal(mc.DigitalPayoff(0.0), 1.0, 3)
    assert d[0] == pytest.approx(0.5)
    assert d[1] == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert d[2] == pytest.approx(0.0, abs=1e-16)
    assert d[3] == pytest.approx(-1 / math.sqrt(12 * math.pi))
    with pytest.raises(ValueError):
        mc.hermite_expand_terminal(mc.DigitalPayoff(0.0), 1.0, -1)


@pytest.mark.parametrize("strike", [0.0, 0.5])
def test_hermite_expand_terminal_digital_matches_per_order_integrals(strike):
    for T in (1.0, 2.0):
        d = mc.hermite_expand_terminal(mc.DigitalPayoff(strike), T, 1000)
        threshold = strike / math.sqrt(T)
        per_order = [hermite.hermite_indicator_integral(k, threshold) for k in range(1001)]
        np.testing.assert_allclose(d, per_order, rtol=1e-13, atol=0.0)
    assert mc.hermite_expand_terminal(mc.DigitalPayoff(strike), 1.0, 0).tolist() == [
        hermite.normal_sf(strike)
    ]


def test_hermite_expand_terminal_smooth_matches_polynomial():
    poly = mc.PolynomialPayoff((1.0, -2.0, 0.0, 0.5))
    smooth = mc.SmoothPayoff(poly, poly.derivative(), name="cubic")
    dp = mc.hermite_expand_terminal(poly, 2.0, 6)
    ds = mc.hermite_expand_terminal(smooth, 2.0, 6)
    assert np.allclose(dp, ds, atol=1e-12)


def test_coeffs_terminal_square_two_steps():
    # W_T^2 on N=2: 1 + H_2 terms with the refinement weights
    f = mc.coeffs_terminal(mc.PolynomialPayoff((0.0, 0.0, 1.0)), GridSpec(1.0, 2), 4)
    assert f.coeffs[()] == pytest.approx(1.0)
    assert f.coeffs[(2,)] == pytest.approx(math.sqrt(2) / 2)
    assert f.coeffs[(1, 1)] == pytest.approx(1.0)
    assert f.coeffs[(0, 2)] == pytest.approx(math.sqrt(2) / 2)
    assert len(f.coeffs) == 4


def test_coeffs_terminal_matches_refined_one_step():
    payoff = mc.PolynomialPayoff((0.5, 1.0, 0.0, -0.25))
    one_step = mc.coeffs_terminal(payoff, GridSpec(1.0, 1), 6)
    refined = chaos.refine(one_step, 3)
    direct = mc.coeffs_terminal(payoff, GridSpec(1.0, 3), 6)
    assert set(refined.coeffs) == set(direct.coeffs)
    for a, c in direct.coeffs.items():
        assert refined.coeffs[a] == pytest.approx(c, abs=1e-13)


def test_coeffs_terminal_pathwise():
    payoff = mc.PolynomialPayoff((1.0, 2.0, 3.0))
    grid = GridSpec(2.0, 3)
    f = mc.coeffs_terminal(payoff, grid, 4)
    rng = np.random.default_rng(7)
    xi = rng.standard_normal((200, 3))
    w_t = math.sqrt(grid.dt) * np.sum(xi, axis=1)
    assert np.max(np.abs(chaos.evaluate(f, xi) - payoff(w_t))) < 1e-10


def test_coeffs_occupation_time():
    grid = GridSpec(1.0, 2)
    f = mc.coeffs_occupation_time(grid, 5)
    assert f.mean() == pytest.approx(0.5)
    d1 = 1 / math.sqrt(2 * math.pi)
    assert f.coeffs[(1,)] == pytest.approx(0.5 * d1 * (1 + 1 / math.sqrt(2)))
    assert f.coeffs[(0, 1)] == pytest.approx(0.5 * d1 / math.sqrt(2))
    assert (2,) not in f.coeffs  # even digital coefficients vanish at zero strike


def _coeffs_terminal_reference(payoff, grid, max_degree):
    """The per-index loop the degree tables replaced."""
    d = mc.hermite_expand_terminal(payoff, grid.T, max_degree)
    coeffs = {}
    for a in mi.enumerate_upto(grid.N, max_degree):
        m = sum(a)
        if abs(d[m]) <= 0.0:
            continue
        log_ratio = 0.5 * (math.lgamma(m + 1) - mi.log_factorial(a))
        coeffs[a] = d[m] * math.exp(log_ratio - 0.5 * m * math.log(grid.N))
    return ChaosExpansion(grid, coeffs)


def _coeffs_occupation_reference(grid, max_degree):
    d = mc.hermite_expand_terminal(mc.DigitalPayoff(0.0), 1.0, max_degree)
    tail_sums = mc._inverse_power_tail_sums(grid.N, max_degree)
    coeffs = {(): grid.T / 2.0}
    for a in mi.enumerate_upto(grid.N, max_degree):
        if not a:
            continue
        m = sum(a)
        if d[m] == 0.0:
            continue
        log_ratio = 0.5 * (math.lgamma(m + 1) - mi.log_factorial(a))
        coeffs[a] = grid.dt * d[m] * math.exp(log_ratio) * tail_sums[m][len(a) - 1]
    return ChaosExpansion(grid, coeffs)


_PAYOFFS = st.sampled_from([
    mc.DigitalPayoff(0.0),
    mc.DigitalPayoff(0.5),
    mc.PolynomialPayoff((0.0, 0.0, 1.0)),
    mc.PolynomialPayoff((1.0, -2.0, 0.0, 0.5, 0.25)),
])


@PROPERTY
@given(_PAYOFFS, st.integers(1, 6), st.integers(0, 9), st.sampled_from([0.5, 1.0, 2.0]))
def test_coeffs_terminal_bit_equal_to_loop(payoff, n, max_degree, horizon):
    grid = GridSpec(horizon, n)
    got = mc.coeffs_terminal(payoff, grid, max_degree)
    # same keys, same insertion order, same doubles
    assert list(got.coeffs.items()) == list(
        _coeffs_terminal_reference(payoff, grid, max_degree).coeffs.items()
    )


@PROPERTY
@given(st.integers(1, 7), st.integers(0, 10), st.sampled_from([0.5, 1.0, 3.0]))
def test_coeffs_occupation_time_bit_equal_to_loop(n, max_degree, horizon):
    grid = GridSpec(horizon, n)
    got = mc.coeffs_occupation_time(grid, max_degree)
    assert list(got.coeffs.items()) == list(
        _coeffs_occupation_reference(grid, max_degree).coeffs.items()
    )


_BUILDER_PAYOFFS = st.sampled_from([
    mc.DigitalPayoff(0.0),
    mc.DigitalPayoff(-0.7),
    mc.PolynomialPayoff((1.0, -2.0, 0.0, 0.5, 0.25)),
    mc.SmoothPayoff(np.cos, lambda x: -np.sin(x), "cos"),
])


def _builder_expansions(payoff, grid, max_degree, n1, order, ell):
    """What each builder that skips the key check makes from one payoff."""
    f = mc.coeffs_terminal(payoff, grid, max_degree)
    occupation = mc.coeffs_occupation_time(grid, max_degree)
    built = [f, occupation, chaos.refine(f, n1), chaos.refine(occupation, n1),
             co.err_tail(f, order), chaos.conditional_expectation(f, ell)]
    built += [term.integrand for term in co.decompose(f).terms]
    built += [term.integrand for term in co.decompose(occupation).terms]
    return built


def _canonical_on(key, n):
    """Whether key is a canonical index on at most n slots.

    A tuple of ``int`` entries (not ``bool`` or numpy integers), none
    negative, the last one nonzero.
    """
    return (type(key) is tuple and len(key) <= n
            and all(type(x) is int and x >= 0 for x in key)
            and (not key or key[-1] != 0))


@PROPERTY
@given(_BUILDER_PAYOFFS, st.integers(1, 4), st.integers(0, 6), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 4))
def test_builder_keys_pass_the_full_check(payoff, n, max_degree, n1, order, ell):
    # builders skip the per-key check: every key must be canonical, and the
    # expansion must be what the checked path makes of the same dict
    grid = GridSpec(1.0, n)
    for f in _builder_expansions(payoff, grid, max_degree, n1, order, min(ell, n)):
        assert all(_canonical_on(a, f.grid.N) for a in f.coeffs)
        assert type(f.coeffs) is dict
        checked = ChaosExpansion(f.grid, dict(f.coeffs))
        assert list(checked.coeffs.items()) == list(f.coeffs.items())


def test_canonical_oracle_cases():
    assert _canonical_on((), 1) and _canonical_on((0, 2), 2) and _canonical_on((3,), 1)
    for key in [(1, 0), (0, 2, 1), (True,), (np.int64(1),), (1.0,), (1, -1), [1], "1"]:
        assert not _canonical_on(key, 2), key


def test_builders_skip_the_key_check(monkeypatch):
    def refuse(entries):
        raise AssertionError("builder-made keys were checked again")

    # the expansion's key check runs mi.canonical on every key; builders
    # reach the rest of multiindex through the same name
    monkeypatch.setattr(chaos, "mi", SimpleNamespace(**{**vars(mi), "canonical": refuse}))
    built = _builder_expansions(mc.DigitalPayoff(0.0), GridSpec(1.0, 3), 5, 2, 1, 2)
    assert all(f.coeffs for f in built[:4])
    # any other mapping still goes through the check
    with pytest.raises(AssertionError, match="checked again"):
        ChaosExpansion(GridSpec(1.0, 3), dict(built[0].coeffs))


def test_coeffs_terminal_high_degree_bit_equal_to_loop():
    for payoff, grid, degree in [(mc.DigitalPayoff(0.0), GridSpec(1.0, 1), 400),
                                 (mc.DigitalPayoff(0.5), GridSpec(1.0, 2), 60),
                                 (mc.DigitalPayoff(0.0), GridSpec(1.0, 8), 8)]:
        got = mc.coeffs_terminal(payoff, grid, degree)
        ref = _coeffs_terminal_reference(payoff, grid, degree)
        assert list(got.coeffs.items()) == list(ref.coeffs.items())


def test_coeffs_occupation_time_vs_monte_carlo():
    grid = GridSpec(1.0, 4)
    f = mc.coeffs_occupation_time(grid, 9)
    batch = mc.sample_paths(grid, 200_000, seed=99)
    values = mc.occupation_value(batch)
    xi1 = batch.increments[:, 0]
    prod = values * xi1
    se = float(np.std(prod, ddof=1)) / math.sqrt(batch.n_samples)
    assert abs(float(np.mean(prod)) - f.coeffs[(1,)]) < 3 * se
    se0 = float(np.std(values, ddof=1)) / math.sqrt(batch.n_samples)
    assert abs(float(np.mean(values)) - 0.5) < 3 * se0


def test_occupation_error_norm_vs_materialized():
    for n_steps in (2, 3, 4):
        grid = GridSpec(1.0, n_steps)
        f = mc.coeffs_occupation_time(grid, 9)
        for n in (1, 2):
            direct = chaos.sobolev_norm(co.err_tail(f, n), 0.0)
            assert mc.occupation_error_norm(grid, n, 9) == pytest.approx(
                direct, abs=1e-14
            )


def _occupation_error_norm_loops(grid, n, max_degree):
    """Slot-by-slot, order-by-order sum of the squared order-n tail coefficients."""
    d = mc.hermite_expand_terminal(mc.DigitalPayoff(0.0), 1.0, max_degree)
    tail_sums = mc._inverse_power_tail_sums(grid.N, max_degree)
    total = 0.0
    for m in range(n + 1, max_degree + 1):
        per_slot = 0.0
        for ell in range(1, grid.N + 1):
            combinatorial = sum(
                math.comb(m, k) * float(ell - 1) ** (m - k) for k in range(n + 1, m + 1)
            )
            per_slot += tail_sums[m][ell - 1] ** 2 * combinatorial
        total += d[m] ** 2 * per_slot
    return grid.dt * math.sqrt(total)


def test_occupation_error_norm_matches_loops():
    for n_steps in (1, 4, 16, 64):
        grid = GridSpec(2.0, n_steps)
        for n in (1, 2, 3):
            for max_degree in (3, 12, 30):
                assert mc.occupation_error_norm(grid, n, max_degree) == pytest.approx(
                    _occupation_error_norm_loops(grid, n, max_degree), rel=1e-12, abs=0.0
                )


def test_pool_size_caps(monkeypatch):
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    assert mc._pool_size(1, 10) == 1
    assert mc._pool_size(4, 10) == 2
    assert mc._pool_size(10_000, 3) == 2
    assert mc._pool_size(4, 1) == 1
    assert mc._pool_size(0, 5) == 1
    monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
    assert mc._pool_size(8, 8) == 1
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
    assert mc._pool_size(8, 3) == 3


def test_path_results_refused_beyond_physical_memory(monkeypatch):
    payoff = mc.PolynomialPayoff((0.0, 0.0, 1.0))
    huge = mc.sample_paths(GridSpec(1.0, 4), 10**12, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(mc.PathBatchTooLarge, match=f"{2 * 8 * 10**12} bytes"):
            mc.tracking_error_hedges(payoff, [huge, mc.sample_paths(GridSpec(1.0, 2), 10**12, 1)])
        with pytest.raises(mc.PathBatchTooLarge, match=f"{4 * 8 * 10**12} bytes"):
            huge.increments
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the limit is physical memory: 100 pages of 4096 bytes here
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}
    monkeypatch.setattr(mc.os, "sysconf", pages.__getitem__)
    grid = GridSpec(1.0, 4)
    assert mc.tracking_error_hedges(payoff, [mc.sample_paths(grid, 51_200, 1)])
    with pytest.raises(mc.PathBatchTooLarge, match="409608 bytes"):
        mc.tracking_error_hedges(payoff, [mc.sample_paths(grid, 51_201, 1)])
    with pytest.raises(mc.PathBatchTooLarge):
        mc.sample_paths(grid, 12_801, 1).increments
    assert mc.sample_paths(grid, 12_800, 1).increments.shape == (12_800, 4)


def test_block_buffers_and_tables_refused_beyond_physical_memory(monkeypatch):
    # the two block buffers, at any worker count, and a decomposition's
    # chunk table are each counted before anything is allocated; physical
    # memory is counted in bytes here
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    pages = {"SC_PAGE_SIZE": 1}
    monkeypatch.setattr(mc.os, "sysconf", pages.__getitem__)

    def refused_at(need, run):
        pages["SC_PHYS_PAGES"] = need - 1
        with pytest.raises(mc.PathBatchTooLarge, match=f" {need} bytes"):
            run()
        pages["SC_PHYS_PAGES"] = need
        return run()

    grid = GridSpec(1.0, 4)
    batch = mc.sample_paths(grid, 3 * mc.SAMPLE_BLOCK, seed=1, workers=3)
    blocks = 2 * mc.SAMPLE_BLOCK * 4 * 8
    assert refused_at(blocks, lambda: mc.occupation_value(batch)).shape == (3 * mc.SAMPLE_BLOCK,)
    f = mc.coeffs_terminal(mc.PolynomialPayoff((0.0, 1.0, 0.0, 1.0)), GridSpec(1.0, 3), 3)
    d = co.decompose(f)
    xi = np.zeros((1000, 3))
    # the results, then the slots and (degree + 1)-order table, then two term buffers
    need = 1000 * 8 + ((f.max_degree() + 2) * 3 + 2) * 1000 * 8
    assert refused_at(need, lambda: co.evaluate_decomposition(d, xi)).shape == (1000,)


def test_sample_paths_deterministic():
    grid = GridSpec(1.0, 4)
    a = mc.sample_paths(grid, 10_000, seed=1)
    b = mc.sample_paths(grid, 10_000, seed=1)
    assert np.array_equal(a.increments, b.increments)
    c = mc.sample_paths(grid, 10_000, seed=2)
    assert not np.array_equal(a.increments, c.increments)
    with pytest.raises(ValueError):
        mc.sample_paths(grid, 0, seed=1)


def _delta_reference(payoff, w, residual_var):
    """E[f'(W_T) | W_t = w] at T - t = residual_var, one slot as a fresh array."""
    if isinstance(payoff, mc.DigitalPayoff):
        z = (payoff.strike - w) / math.sqrt(residual_var)
        return hermite.normal_pdf(z) / math.sqrt(residual_var)
    if isinstance(payoff, mc.PolynomialPayoff):
        df = payoff.derivative()
        rule = hermite.gauss_hermite_rule(df.degree // 2 + 1)
    else:
        df = payoff.df
        rule = hermite.gauss_hermite_rule(24)
    shifted = w[:, None] + math.sqrt(residual_var) * rule.nodes[None, :]
    return np.asarray(df(shifted)) @ rule.weights


def _hedge_materialized(payoff, grid, batch):
    """Reference hedge estimate: the L2 norm of :func:`_hedge_residual_materialized`."""
    return mc._l2_of_samples(_hedge_residual_materialized(payoff, grid, batch))


def _hedge_residual_materialized(payoff, grid, batch):
    """Reference residuals: the column loop over the materialized (n_samples, N) array."""
    sqrt_dt = math.sqrt(grid.dt)
    xi = batch.increments
    w = sqrt_dt * xi[:, 0]
    for col in range(1, grid.N):
        w += sqrt_dt * xi[:, col]
    mean = float(mc.hermite_expand_terminal(payoff, grid.T, 0)[0])
    residual = payoff(w) - mean
    w = np.zeros(batch.n_samples)
    for ell in range(1, grid.N + 1):
        dw = sqrt_dt * xi[:, ell - 1]
        residual -= _delta_reference(payoff, w, grid.T - (ell - 1) * grid.dt) * dw
        w += dw
    return residual


STREAMED_PAYOFFS = (
    mc.DigitalPayoff(0.0),
    mc.DigitalPayoff(0.5),
    mc.PolynomialPayoff((0.0, 0.0, 1.0)),
    mc.SmoothPayoff(np.sin, np.cos, "sin"),
)


def test_sample_paths_worker_independent(monkeypatch):
    # streamed estimators are bit-equal to the materialized array's, at every
    # worker count, and never materialize it themselves; four lanes run even
    # on fewer cores, switching threads often
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _check_streamed_against_materialized()
    finally:
        sys.setswitchinterval(interval)


def _check_streamed_against_materialized():
    grid = GridSpec(1.0, 3)
    f = mc.coeffs_terminal(mc.DigitalPayoff(0.0), grid, 6)
    tail = co.err_tail(f, 1)
    for n_samples in (100, 3 * mc.SAMPLE_BLOCK + 17):
        serial = mc.sample_paths(grid, n_samples, seed=5, workers=1)
        hedges = [_hedge_materialized(p, grid, serial) for p in STREAMED_PAYOFFS]
        norm = mc._l2_of_samples(chaos.evaluate(tail, serial.increments))
        occupation = np.sum(serial.brownian_paths() >= 0.0, axis=1) * grid.dt
        for workers in (1, 2, 4):
            batch = mc.sample_paths(grid, n_samples, seed=5, workers=workers)
            for payoff, expected in zip(STREAMED_PAYOFFS, hedges):
                assert mc.tracking_error_hedge(payoff, grid, batch) == expected
            assert mc.mc_err_norm(f, 1, batch) == norm
            assert np.array_equal(mc.occupation_value(batch), occupation)
            assert "increments" not in vars(batch)
            assert np.array_equal(batch.increments, serial.increments)


def test_tracking_error_hedges_share_one_stream(monkeypatch):
    # one sampling pass for a list of grids gives, grid by grid, the estimate
    # of that grid's own pass, at every worker count and block remainder
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n_list in ([1, 3, 16], [5]):
            for n_samples in (100, 3 * mc.SAMPLE_BLOCK + 17):
                for workers in (1, 2, 4):
                    batches = [mc.sample_paths(GridSpec(1.0, n), n_samples, 9, workers)
                               for n in n_list]
                    for payoff in STREAMED_PAYOFFS:
                        expected = [mc.tracking_error_hedge(payoff, b.grid, b)
                                    for b in batches]
                        assert mc.tracking_error_hedges(payoff, batches) == expected
                    assert all("increments" not in vars(b) for b in batches)
    finally:
        sys.setswitchinterval(interval)


def test_streamed_remainders_bit_equal(monkeypatch):
    # every remainder of a slot chunk, a transpose tile and a sample block:
    # each path's residual and each mc_err_norm value is the reference's, at
    # every worker count; the estimators return their pathwise values here
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(mc, "_l2_of_samples", lambda values: values.copy())
    chunk, tile = mc.HEDGE_CHUNK, mc.TRANSPOSE_ROWS
    norm_grid = GridSpec(1.0, 5)
    f = mc.coeffs_terminal(mc.DigitalPayoff(0.5), norm_grid, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n_samples in (1, tile - 1, tile + 1, 3 * mc.SAMPLE_BLOCK + 17):
            assert n_samples % tile
            for n in (1, 2, chunk + 1, 2 * chunk + 3):
                grid = GridSpec(1.0, n)
                serial = mc.sample_paths(grid, n_samples, seed=11)
                expected = [_hedge_residual_materialized(p, grid, serial)
                            for p in STREAMED_PAYOFFS]
                for workers in (1, 2, 4):
                    batch = mc.sample_paths(grid, n_samples, 11, workers)
                    for payoff, want in zip(STREAMED_PAYOFFS, expected):
                        got = mc.tracking_error_hedge(payoff, grid, batch)
                        assert got.tobytes() == want.tobytes()
            norms = mc.sample_paths(norm_grid, n_samples, seed=11)
            want = oracles.evaluate_reference(co.err_tail(f, 1), norms.increments)
            for workers in (1, 2, 4):
                batch = mc.sample_paths(norm_grid, n_samples, 11, workers)
                assert mc.mc_err_norm(f, 1, batch).tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_digital_delta_in_place_bit_equal():
    # the in-place kernel against hermite.normal_pdf(z) / sqrt(v), bit for bit:
    # z = +-0, subnormal w and z, exp underflowing to subnormals and to 0
    tiny = np.nextafter(0.0, 1.0)
    w_row = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 0.3, -2.5, 1.5, -1.5,
             37.7, -37.7, 40.0, -40.0, 1e3, -1e100]
    variances = [1.0, 0.25, 3.0, 1e-40]
    w = np.array([w_row] * len(variances))
    sqrt_var = np.sqrt(np.array(variances))[:, None]
    for strike in (0.0, -0.0, 0.5, -1.5, -1e-310, -37.7, 1.5):
        out = np.empty_like(w)
        mc._conditional_delta(mc.DigitalPayoff(strike))(w, sqrt_var, out)
        for row, v in enumerate(variances):
            z = (strike - w[row]) / math.sqrt(v)
            want = hermite.normal_pdf(z) / math.sqrt(v)
            assert out[row].tobytes() == want.tobytes()
        assert (out == 0.0).any() and (out[(out > 0) & (out < 2.3e-308)]).size


@pytest.mark.parametrize("workers", [2, 4])
def test_map_blocks_failure_ends_every_thread(monkeypatch, workers):
    # an exception in a sampler or in fn is raised by _map_blocks with no
    # sampler thread left behind
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    batch = mc.sample_paths(GridSpec(1.0, 3), 10 * mc.SAMPLE_BLOCK, seed=1, workers=workers)
    wide = mc.sample_paths(GridSpec(1.0, 8), 10 * mc.SAMPLE_BLOCK, seed=1, workers=workers)
    block_pieces = mc._block_pieces

    def failing_sampler(at, piece=0):
        def sampler(seed, block, stream, ends):
            pieces = block_pieces(seed, block, stream, ends)
            if block == at:
                pieces[piece] = partial(failing_piece, pieces[piece])
            return pieces

        return sampler

    def failing_piece(fill):
        fill()
        raise LookupError("sampler failed")

    def failing_fn(xi):
        calls.append(None)
        if len(calls) == 3:
            raise ArithmeticError("estimator failed")
        return xi[0].copy()

    def first_slot(xi):
        return xi[0].copy()

    calls = []
    before = set(threading.enumerate())
    # the first block fails, a block mid-stream fails, the second piece of a
    # block mid-stream fails, the third fn call fails
    for sampler, batches, fn, error in (
            (failing_sampler(0), [batch], first_slot, LookupError),
            (failing_sampler(5), [batch], first_slot, LookupError),
            (failing_sampler(5, piece=1), [wide, batch], first_slot, LookupError),
            (block_pieces, [batch], failing_fn, ArithmeticError)):
        monkeypatch.setattr(mc, "_block_pieces", sampler)
        with pytest.raises(error, match="failed"):
            mc._map_blocks(batches, [fn] * len(batches))
        assert set(threading.enumerate()) == before
    assert len(calls) == 3
    monkeypatch.setattr(mc, "_block_pieces", block_pieces)
    for got, b in zip(mc._map_blocks([wide, batch], [first_slot] * 2), (wide, batch)):
        assert np.array_equal(got, b.increments[:, 0])
    assert set(threading.enumerate()) == before


@PROPERTY
@given(st.integers(0, 2**64 - 1), st.integers(0, 9), st.integers(1, 3001), st.data())
def test_block_pieces_bit_equal_to_one_fill(seed, block, size, data):
    # any cut of a block's stream, empty and odd-length pieces included,
    # fills it with the normals of one fill, and nothing beyond its end
    cuts = data.draw(st.lists(st.integers(0, size), max_size=6))
    ends = sorted(cuts) + [size]
    stream = np.full(size + 5, np.nan)
    for fill in mc._block_pieces(seed, block, stream, ends):
        fill()
    one = np.empty(size)
    mc._sample_block(seed, block, one)
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(block))
    assert stream[:size].tobytes() == one.tobytes() == rng.standard_normal(size).tobytes()
    assert np.isnan(stream[size:]).all()


def test_map_blocks_in_any_grid_order_bit_equal_across_workers(monkeypatch):
    # grids in non-ascending order, a repeated grid and a single grid: every
    # hedge residual and occupation time is the materialized reference's at
    # every worker count
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(mc, "_l2_of_samples", lambda values: values.copy())
    payoff = mc.DigitalPayoff(0.0)
    n_samples = 2 * mc.SAMPLE_BLOCK + 33
    for n_list in ([256, 3, 17, 3], [17]):
        serial = [mc.sample_paths(GridSpec(1.0, n), n_samples, 21) for n in n_list]
        hedges = [_hedge_residual_materialized(payoff, b.grid, b).tobytes() for b in serial]
        occupations = [(np.sum(b.brownian_paths() >= 0.0, axis=1) * b.grid.dt).tobytes()
                       for b in serial]
        for workers in (1, 2, 4):
            batches = [mc.sample_paths(GridSpec(1.0, n), n_samples, 21, workers)
                       for n in n_list]
            got = mc.tracking_error_hedges(payoff, batches)
            assert [r.tobytes() for r in got] == hedges
            assert [mc.occupation_value(b).tobytes() for b in batches] == occupations


def test_empty_batch_list_gives_no_results():
    assert mc._map_blocks([], []) == []
    assert mc.tracking_error_hedges(mc.DigitalPayoff(0.0), []) == []


def test_path_batch_rejects_worker_counts_below_one():
    grid = GridSpec(1.0, 2)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            mc.sample_paths(grid, 10, seed=1, workers=workers)
    assert mc.sample_paths(grid, 10, seed=1, workers=1).workers == 1


def test_tracking_error_hedges_reject_mismatched_batches():
    grid, fine = GridSpec(1.0, 2), GridSpec(1.0, 4)
    payoff = mc.DigitalPayoff(0.0)
    base = mc.sample_paths(grid, 100, seed=1, workers=1)
    for other in (mc.sample_paths(fine, 100, seed=2, workers=1),
                  mc.sample_paths(fine, 101, seed=1, workers=1),
                  mc.sample_paths(fine, 100, seed=1, workers=2)):
        with pytest.raises(ValueError, match="share seed"):
            mc.tracking_error_hedges(payoff, [base, other])


def test_streamed_evaluation_matches_reference_loop():
    grid = GridSpec(1.0, 5)
    batch = mc.sample_paths(grid, mc.SAMPLE_BLOCK + 9, seed=4)
    f = mc.coeffs_terminal(mc.DigitalPayoff(0.5), grid, 6)
    for n in (1, 2):
        tail = co.err_tail(f, n)
        expected = mc._l2_of_samples(oracles.evaluate_reference(tail, batch.increments))
        assert mc.mc_err_norm(f, n, batch) == expected
    # the term integrands live on the first ell - 1 of the five slots
    for payoff in (mc.PolynomialPayoff((1.0, 0.0, 0.0, -2.0)), mc.DigitalPayoff(0.0)):
        d = co.decompose(mc.coeffs_terminal(payoff, grid, 4))
        expected = oracles.evaluate_decomposition_reference(d, batch.increments)
        assert np.array_equal(co.evaluate_decomposition(d, batch.increments), expected)


def test_sample_paths_moments():
    batch = mc.sample_paths(GridSpec(1.0, 2), 100_000, seed=3)
    xi = batch.increments
    n = xi.shape[0]
    assert np.max(np.abs(np.mean(xi, axis=0))) < 3 / math.sqrt(n)
    assert np.max(np.abs(np.var(xi, axis=0) - 1.0)) < 3 * math.sqrt(2 / n)
    w = batch.brownian_paths()
    assert np.allclose(w[:, 1], math.sqrt(0.5) * (xi[:, 0] + xi[:, 1]))


def test_mc_err_norm_agrees_with_exact():
    grid = GridSpec(1.0, 2)
    f = mc.coeffs_terminal(mc.PolynomialPayoff((0.0, 0.0, 0.0, 1.0)), grid, 5)
    batch = mc.sample_paths(grid, 200_000, seed=11)
    est = mc.mc_err_norm(f, 1, batch)
    exact = co.err_norm_refined(
        mc.coeffs_terminal(mc.PolynomialPayoff((0.0, 0.0, 0.0, 1.0)), GridSpec(1.0, 1), 5),
        1,
        2,
        0.0,
    )
    assert abs(est.estimate - exact) < 3 * est.std_error
    # tail below the payoff degree is empty
    empty = mc.mc_err_norm(f, 5, batch)
    assert empty.estimate == 0.0 and empty.std_error == 0.0


def test_tracking_error_identity_payoff_vanishes():
    grid = GridSpec(1.0, 4)
    batch = mc.sample_paths(grid, 1_000, seed=21)
    est = mc.tracking_error_hedge(mc.PolynomialPayoff((0.0, 1.0)), grid, batch)
    assert est.estimate < 1e-12


def test_tracking_error_quadratic():
    # W_T^2 at T=1, N=4: exact tracking-error L2 norm is sqrt(2)/2
    grid = GridSpec(1.0, 4)
    batch = mc.sample_paths(grid, 100_000, seed=31)
    est = mc.tracking_error_hedge(mc.PolynomialPayoff((0.0, 0.0, 1.0)), grid, batch)
    assert abs(est.estimate - math.sqrt(2) / 2) < 3 * est.std_error
    assert est.std_error < 0.01


def test_tracking_error_digital_decreases():
    payoff = mc.DigitalPayoff(0.0)
    errs = []
    for n_steps in (4, 16, 64):
        grid = GridSpec(1.0, n_steps)
        batch = mc.sample_paths(grid, 50_000, seed=41)
        est = mc.tracking_error_hedge(payoff, grid, batch)
        assert math.isfinite(est.estimate) and est.estimate > 0.0
        errs.append(est.estimate)
    assert errs[2] < errs[0]


def test_tracking_error_rejects_occupation():
    grid = GridSpec(1.0, 4)
    batch = mc.sample_paths(grid, 100, seed=1)
    with pytest.raises(TypeError):
        mc.tracking_error_hedge(mc.OccupationTimePayoff(), grid, batch)


def test_rate_sweep_quadratic():
    report = mc.rate_sweep(
        mc.PolynomialPayoff((0.0, 0.0, 1.0)), 1, 0.0, 1.0, [4, 8, 16, 32, 64], 1, 1.0, 4
    )
    assert report.fitted_slope == pytest.approx(-0.5, abs=0.05)
    for n1, err, bound in report.rows:
        assert err <= bound * (1 + 1e-12)


def test_rate_sweep_digital_high_degree_slope():
    # with enough Hermite terms the digital shows its slow rate, well above
    # the -1/2 seen for any fixed polynomial truncation
    report = mc.rate_sweep(
        mc.DigitalPayoff(0.0), 1, 0.0, 1.0, [4, 8, 16, 32, 64, 128, 256], 1, 1.0, 1000
    )
    assert -0.35 < report.fitted_slope < -0.15


def test_rate_sweep_low_degree_payoff_empty_tail():
    report = mc.rate_sweep(
        mc.PolynomialPayoff((0.0, 1.0)), 1, 0.0, 1.0, [4, 8, 16], 1, 1.0, 3
    )
    assert math.isnan(report.fitted_slope) and report.fit_points == 0
    for _, err, _ in report.rows:
        assert err == 0.0


def test_occupation_rate_sweep():
    rows = mc.occupation_rate_sweep(1, [4, 8, 16, 32, 64], 1.0, 20)
    assert [n for n, _ in rows] == [4, 8, 16, 32, 64]
    errs = [e for _, e in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    slope, _ = co.fit_loglog_slope([n for n, _ in rows], errs)
    assert -0.65 < slope < -0.35


def test_payoff_label():
    assert mc.payoff_label(mc.PolynomialPayoff((0.0, 1.0))) == "poly:0,1"
    assert mc.payoff_label(mc.DigitalPayoff(1.5)) == "digital:1.5"
    assert mc.payoff_label(mc.OccupationTimePayoff()) == "occupation"


def test_brownian_paths_checked_and_bit_equal(monkeypatch):
    batch = mc.sample_paths(GridSpec(2.0, 4), 10_000, seed=3)
    increments = batch.increments
    expected = np.cumsum(math.sqrt(batch.grid.dt) * increments, axis=1)
    assert np.array_equal(batch.brownian_paths(), expected)
    assert np.array_equal(batch.increments, increments)  # the cached draws stay as drawn
    # with the increments cached, the paths are the next samples * N * 8 bytes:
    # 320,000 of them, against 100 pages of 4096 bytes and then 78
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}
    monkeypatch.setattr(mc.os, "sysconf", pages.__getitem__)
    assert np.array_equal(batch.brownian_paths(), expected)
    pages["SC_PHYS_PAGES"] = 78
    with pytest.raises(mc.PathBatchTooLarge, match="Brownian paths .* 320000 bytes"):
        batch.brownian_paths()
    # not yet held, the increments count too: two arrays of 1000 * 4 doubles
    # against 12 pages, room for one of them, and then 16
    fresh = mc.sample_paths(GridSpec(1.0, 4), 1000, 1)
    pages["SC_PHYS_PAGES"] = 12
    with pytest.raises(mc.PathBatchTooLarge, match="Brownian paths .* 64000 bytes"):
        fresh.brownian_paths()
    assert "increments" not in vars(fresh)
    pages["SC_PHYS_PAGES"] = 16
    assert fresh.brownian_paths().shape == (1000, 4)
