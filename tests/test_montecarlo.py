import cmath
import dataclasses
import decimal
import math
import re
import sys
import threading
import tracemalloc
import typing
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import chaosco
from chaosco import chaos, cli, clark_ocone as co, hermite, montecarlo as mc
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


@pytest.mark.parametrize("coeffs", [(math.nan,), (0.0, math.inf), (1.0, 0.0, -math.inf)])
def test_polynomial_payoff_rejects_non_finite_coefficients(coeffs):
    # hermite_expand_terminal's degree-0 branch skips the quadrature's finite
    # check, so a constant NaN must be refused here
    with pytest.raises(ValueError, match="must be finite"):
        mc.PolynomialPayoff(coeffs)


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


def test_exponential_payoff_call():
    # Re(c e^{beta x}) with c = -i, beta = i is sin and with c = 1, beta = i is cos,
    # to the bit; a real beta gives e^{beta x}
    xs = np.linspace(-2.0, 2.0, 9)
    sine, cosine = mc.ExponentialPayoff(-1j, 1j), mc.ExponentialPayoff(1, 1j)
    assert sine(xs).tobytes() == np.sin(xs).tobytes()
    assert cosine(xs).tobytes() == np.cos(xs).tobytes()
    assert sine(0.5) == math.sin(0.5) and sine(xs).dtype == float
    np.testing.assert_allclose(mc.ExponentialPayoff(2.0, -0.5)(xs), 2.0 * np.exp(-0.5 * xs),
                               rtol=1e-15, atol=0.0)


def test_polynomial_payoff_rejects_empty_coefficients():
    # refused at construction, not by an IndexError in the degree-0 shortcut
    with pytest.raises(ValueError, match="at least one coefficient"):
        mc.PolynomialPayoff(())


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
    monkeypatch.setattr(mi.os, "sysconf", pages.__getitem__)
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


def test_hermite_expand_terminal_rejects_non_terminal_payoffs(monkeypatch):
    # refused by type, before any rule or half-line integral is built
    def unreachable(*args):
        raise AssertionError("a rule was built for a non-terminal payoff")

    for name in ("gauss_hermite_rule", "eval_all", "indicator_integrals"):
        monkeypatch.setattr(hermite, name, unreachable)
    for payoff, name in ((np.sin, "ufunc"), (lambda x: x, "function"),
                         (mc.OccupationTimePayoff(), "OccupationTimePayoff")):
        with pytest.raises(TypeError, match=f"not {name}$"):
            mc.hermite_expand_terminal(payoff, 1.0, 3)


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


@pytest.mark.parametrize("T", [1.0, 256.0])
def test_exponential_sine_coeffs_match_closed_form(T):
    # sin(W_T): d_m = e^{-T/2} (-1)^{(m-1)/2} T^{m/2} / sqrt(m!) for odd m and 0
    # for even m, in 40-digit decimals.  At T = 256 every d_m, m <= 1000, is a
    # normal float; at T = 1 those below the normal range underflow with it.
    d = mc.hermite_expand_terminal(mc.ExponentialPayoff(-1j, 1j), T, 1000)
    assert not d[0::2].any()
    smallest = decimal.Decimal(sys.float_info.min)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        scale, root = (decimal.Decimal(-T) / 2).exp(), decimal.Decimal(T).sqrt()
        for m in range(1, 1001, 2):
            want = (-1) ** ((m - 1) // 2) * scale * root**m
            want /= decimal.Decimal(math.factorial(m)).sqrt()
            if abs(want) >= smallest:
                assert abs(decimal.Decimal(d[m]) - want) <= abs(want) * decimal.Decimal("1e-14")
            else:
                assert abs(d[m]) < sys.float_info.min
    if T == 256.0:
        assert abs(d[999]) > sys.float_info.min


# (c, beta, T): every |c e^{beta^2 T/2} (beta sqrt T)^m / sqrt(m!)|, m <= 1000,
# is a normal float, and beta^2 T / 2 is exact in binary
_EXPONENTIAL_CASES = [
    (1.0, 16.0, 1.5), (2 + 0.5j, -16.0, 1.5),  # real beta
    (-1j, 1j, 256.0), (1.0, 1j, 256.0), (2 + 0.5j, -16j, 1.5),  # imaginary beta
    (0.3 - 1j, 12 + 9j, 1.5), (-1.5 + 0.25j, -3 + 4j, 10.0),  # general complex beta
]


@pytest.mark.parametrize("c, beta, T", _EXPONENTIAL_CASES)
def test_exponential_coeffs_match_mpmath(c, beta, T):
    # against c e^{beta^2 T/2} (beta sqrt T)^m / sqrt(m!) at 40 digits; the real
    # part of a general complex term can cancel, so its error is bounded
    # against the whole term's modulus
    mpmath = pytest.importorskip("mpmath")
    d = mc.hermite_expand_terminal(mc.ExponentialPayoff(c, beta), T, 1000)
    with mpmath.workdps(40):
        b, t = mpmath.mpc(beta), mpmath.mpf(T)
        first = mpmath.mpc(c) * mpmath.exp(b * b * t / 2)
        for m in range(1001):
            term = first * (b * mpmath.sqrt(t)) ** m / mpmath.sqrt(mpmath.factorial(m))
            assert abs(term) > sys.float_info.min
            scale = abs(term) if complex(beta).real and complex(beta).imag else abs(term.real)
            assert abs(d[m] - term.real) <= 1e-14 * scale, m


@pytest.mark.parametrize("c, beta, T", [(-1j, 1j, 1.0), (1.0, 1j, 2.0), (1.0, 0.5, 1.0),
                                        (0.3 - 1j, 0.4 + 0.9j, 1.7), (2.0, -1.0, 3.0)])
def test_exponential_coeffs_sum_to_second_moment(c, beta, T):
    # sum d_m^2 = E[Re(c e^{beta W_T})^2] = (|c|^2 e^{2 Re(beta)^2 T} + Re(c^2 e^{2 beta^2 T}))/2
    d = mc.hermite_expand_terminal(mc.ExponentialPayoff(c, beta), T, 300)
    beta = complex(beta)
    second_moment = (abs(c) ** 2 * math.exp(2 * beta.real**2 * T)
                     + (c * c * cmath.exp(2 * beta * beta * T)).real) / 2
    assert math.fsum(d * d) == pytest.approx(second_moment, rel=2e-15)


@pytest.mark.parametrize("c, beta, T", _EXPONENTIAL_CASES)
def test_exponential_coeffs_bit_equal_to_plain_product(c, beta, T):
    # where the plain running product stays normal, carrying its binary
    # exponent apart changes no bit
    steps = beta * np.sqrt(T / np.arange(1.0, 1001))
    plain = np.cumprod(np.append(c * np.exp(beta**2 * T / 2), steps)).real
    got = mc.hermite_expand_terminal(mc.ExponentialPayoff(c, beta), T, 1000)
    assert got.tobytes() == plain.tobytes()


@pytest.mark.parametrize("beta", [38j, 40j])
def test_exponential_coeffs_exact_below_normal_prefactor(beta):
    # e^{beta^2/2} is subnormal at 38j and 0.0 at 40j, while the d_m around
    # m = |beta|^2 are normal: sum d_m^2 = E[sin^2(|beta| W_1)] = (1 - e^{-2|beta|^2})/2
    d = mc.hermite_expand_terminal(mc.ExponentialPayoff(-1j, beta), 1.0, 2000)
    assert math.fsum(d * d) == pytest.approx(0.5, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("c, beta", [(math.nan, 1j), (1.0, math.inf), (math.inf, 0.0),
                                     (1.0, complex(0.0, math.nan)), (1.0, 30.0)])
def test_exponential_coeffs_refuse_non_finite_without_warning(c, beta):
    # a non-finite c or beta, and an e^{beta^2 T/2} that overflows (beta^2 T/2 =
    # 900 at T = 2), raise ArithmeticError with no numpy warning escaping
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="non-finite closed form"):
            mc.hermite_expand_terminal(mc.ExponentialPayoff(c, beta), 2.0, 4)


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


def _inverse_power_tail_sums(n, m):
    """[sum_{i >= ell} i^{-m/2} for ell = 1..n], added one term at a time from i = n down.

    The powers come from numpy's ``**``, as the builder's do: libm's pow
    differs from it in the last bit of some powers.
    """
    powers = (np.arange(1, n + 1, dtype=float) ** (-m / 2.0)).tolist()
    sums, total = [], 0.0
    for x in reversed(powers):
        total += x
        sums.append(total)
    return sums[::-1]


def _coeffs_occupation_reference(grid, max_degree):
    d = mc.hermite_expand_terminal(mc.DigitalPayoff(0.0), 1.0, max_degree)
    coeffs = {(): grid.T / 2.0}
    for a in mi.enumerate_upto(grid.N, max_degree):
        if not a:
            continue
        m = sum(a)
        if d[m] == 0.0:
            continue
        log_ratio = 0.5 * (math.lgamma(m + 1) - mi.log_factorial(a))
        tail_sum = _inverse_power_tail_sums(grid.N, m)[len(a) - 1]
        coeffs[a] = grid.dt * d[m] * math.exp(log_ratio) * tail_sum
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
    mc.ExponentialPayoff(-1j, 1j),
    mc.ExponentialPayoff(1, 1j),
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
    values = oracles.occupation_value(batch)
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
    total = 0.0
    for m in range(n + 1, max_degree + 1):
        tail_sums = _inverse_power_tail_sums(grid.N, m)
        per_slot = 0.0
        for ell in range(1, grid.N + 1):
            combinatorial = sum(
                math.comb(m, k) * float(ell - 1) ** (m - k) for k in range(n + 1, m + 1)
            )
            per_slot += tail_sums[ell - 1] ** 2 * combinatorial
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


@pytest.mark.parametrize("case", sorted(oracles.OCCUPATION_ERROR_NORMS))
def test_occupation_error_norm_matches_mpmath(case):
    # where (ell-1)^{m-k} overflows and the squared tail sums underflow, as
    # at (1024, 130) and (256, 200), the norm stays exact to rounding
    n_steps, max_degree = case
    got = mc.occupation_error_norm(GridSpec(1.0, n_steps), 1, max_degree)
    assert got == pytest.approx(oracles.OCCUPATION_ERROR_NORMS[case], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("case", sorted(oracles.OCCUPATION_ERROR_NORMS_HIGH_ORDER))
def test_occupation_error_norm_at_orders_whose_binomials_are_no_float(case):
    # C(1299, 600) overflows a float; the binomial law's first n + 1
    # probabilities do not, and an order beyond every count leaves no error
    n_steps, n, max_degree = case
    got = mc.occupation_error_norm(GridSpec(1.0, n_steps), n, max_degree)
    want = oracles.OCCUPATION_ERROR_NORMS_HIGH_ORDER[case]
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    assert mc.occupation_error_norm(GridSpec(1.0, 4), 10**12, 20) == 0.0


def test_occupation_error_norm_oracle_reproduces_its_table():
    pytest.importorskip("mpmath")
    got = oracles.occupation_error_norm_mp(64, 1, 60)
    assert float(got) == oracles.OCCUPATION_ERROR_NORMS[64, 60]


@PROPERTY
@given(st.integers(1, 4096), st.integers(1, 3), st.integers(0, 199), st.integers(1, 20),
       st.sampled_from([0.5, 1.0, 3.0]))
@example(4096, 1, 100, 10, 1.0)  # (ell-1)^{m-k} overflows from here on
@example(1024, 3, 190, 10, 3.0)
def test_occupation_error_norm_finite_and_monotone_in_degree(n_steps, n, max_degree, more, T):
    grid = GridSpec(T, n_steps)
    low = mc.occupation_error_norm(grid, n, max_degree)
    high = mc.occupation_error_norm(grid, n, min(max_degree + more, 200))
    assert math.isfinite(high) and 0.0 <= low <= high


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
    monkeypatch.setattr(mi.os, "sysconf", pages.__getitem__)
    grid = GridSpec(1.0, 4)
    assert mc.tracking_error_hedges(payoff, [mc.sample_paths(grid, 51_200, 1)])
    with pytest.raises(mc.PathBatchTooLarge, match="409608 bytes"):
        mc.tracking_error_hedges(payoff, [mc.sample_paths(grid, 51_201, 1)])
    with pytest.raises(mc.PathBatchTooLarge):
        mc.sample_paths(grid, 12_801, 1).increments
    assert mc.sample_paths(grid, 12_800, 1).increments.shape == (12_800, 4)


def test_block_buffers_and_tables_refused_beyond_physical_memory(monkeypatch):
    # the two block buffers and a decomposition's chunk table are each
    # counted before anything is allocated; physical memory is counted in
    # bytes here
    pages = {"SC_PAGE_SIZE": 1}
    monkeypatch.setattr(mi.os, "sysconf", pages.__getitem__)

    def refused_at(need, run):
        pages["SC_PHYS_PAGES"] = need - 1
        with pytest.raises(mc.PathBatchTooLarge, match=f" {need} bytes"):
            run()
        pages["SC_PHYS_PAGES"] = need
        return run()

    grid = GridSpec(1.0, 4)
    batch = mc.sample_paths(grid, 3 * mc.SAMPLE_BLOCK, seed=1)
    blocks = 2 * mc.SAMPLE_BLOCK * 4 * 8
    occupation = refused_at(blocks, lambda: oracles.occupation_value(batch))
    assert occupation.shape == (3 * mc.SAMPLE_BLOCK,)
    f = mc.coeffs_terminal(mc.PolynomialPayoff((0.0, 1.0, 0.0, 1.0)), GridSpec(1.0, 3), 3)
    d = co.decompose(f)
    xi = np.zeros((1000, 3))
    # the results, then the slots and (degree + 1)-order table, then two term buffers
    need = 1000 * 8 + ((f.max_degree() + 2) * 3 + 2) * 1000 * 8
    assert refused_at(need, lambda: co.evaluate_decomposition(d, xi)).shape == (1000,)


def test_window_buffers_refused_beyond_physical_memory(monkeypatch):
    # beyond 64 slots a block is streamed through a window of STREAM_WINDOW
    # normals, or STREAM_ROWS rows of the largest grid: the window and the
    # slot buffer are what is counted and allocated, not two whole blocks
    batches = [mc.sample_paths(GridSpec(1.0, n), mc.SAMPLE_BLOCK + 904, seed=3)
               for n in (4, 256)]
    wants = [batch.increments[:, 0] for batch in batches]
    pages = {"SC_PAGE_SIZE": 1}
    monkeypatch.setattr(mi.os, "sysconf", pages.__getitem__)
    need = 2 * mc.STREAM_WINDOW * 8
    assert mc.STREAM_WINDOW == 2**18 and need < 2 * mc.SAMPLE_BLOCK * 256 * 8
    pages["SC_PHYS_PAGES"] = need - 1
    what = (f"block buffers of {mc.SAMPLE_BLOCK} paths on 256 slots, through a window "
            f"of {2**18} normals, need {need} bytes")
    with pytest.raises(mc.PathBatchTooLarge, match=re.escape(what)):
        mc.tracking_error_hedges(mc.DigitalPayoff(0.0), batches)
    pages["SC_PHYS_PAGES"] = need
    tracemalloc.start()
    try:
        firsts = mc._map_blocks(batches, [lambda xi: xi[0].copy()] * 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need < peak < need + 2**18
    for got, want in zip(firsts, wants):
        assert np.array_equal(got, want)


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
    if isinstance(payoff, mc.ExponentialPayoff):
        # Re(c beta e^{beta w + beta^2 s^2/2}) with s = sqrt(residual_var)
        root = math.sqrt(residual_var)
        z = np.exp(np.multiply(w, payoff.beta) + payoff.beta**2 / 2 * (root * root))
        return (payoff.c * payoff.beta * z).real
    df = payoff.derivative()
    rule = hermite.gauss_hermite_rule(df.degree // 2 + 1)
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
    mc.ExponentialPayoff(-1j, 1j),
    mc.ExponentialPayoff(1, 1j),
)


def test_sample_paths_worker_independent():
    # streamed estimators are bit-equal to the materialized array's, and
    # never materialize it themselves
    grid = GridSpec(1.0, 3)
    f = mc.coeffs_terminal(mc.DigitalPayoff(0.0), grid, 6)
    tail = co.err_tail(f, 1)
    for n_samples in (100, 3 * mc.SAMPLE_BLOCK + 17):
        serial = mc.sample_paths(grid, n_samples, seed=5)
        hedges = [_hedge_materialized(p, grid, serial) for p in STREAMED_PAYOFFS]
        norm = mc._l2_of_samples(chaos.evaluate(tail, serial.increments))
        occupation = np.sum(serial.brownian_paths() >= 0.0, axis=1) * grid.dt
        batch = mc.sample_paths(grid, n_samples, seed=5)
        for payoff, expected in zip(STREAMED_PAYOFFS, hedges):
            assert mc.tracking_error_hedge(payoff, grid, batch) == expected
        assert mc.mc_err_norm(f, 1, batch) == norm
        assert np.array_equal(oracles.occupation_value(batch), occupation)
        assert "increments" not in vars(batch)
        assert np.array_equal(batch.increments, serial.increments)


def test_tracking_error_hedges_share_one_stream():
    # one sampling pass for a list of grids gives, grid by grid, the estimate
    # of that grid's own pass, at every block remainder
    for n_list in ([1, 3, 16], [5]):
        for n_samples in (100, 3 * mc.SAMPLE_BLOCK + 17):
            batches = [mc.sample_paths(GridSpec(1.0, n), n_samples, 9) for n in n_list]
            for payoff in STREAMED_PAYOFFS:
                expected = [mc.tracking_error_hedge(payoff, b.grid, b) for b in batches]
                assert mc.tracking_error_hedges(payoff, batches) == expected
            assert all("increments" not in vars(b) for b in batches)


def test_streamed_remainders_bit_equal(monkeypatch):
    # every remainder of a slot chunk, a transpose tile and a sample block:
    # each path's residual and each mc_err_norm value is the reference's;
    # the estimators return their pathwise values here
    monkeypatch.setattr(mc, "_l2_of_samples", lambda values: values.copy())
    chunk, tile = mc.HEDGE_CHUNK, mc.TRANSPOSE_ROWS
    norm_grid = GridSpec(1.0, 5)
    f = mc.coeffs_terminal(mc.DigitalPayoff(0.5), norm_grid, 5)
    for n_samples in (1, tile - 1, tile + 1, 3 * mc.SAMPLE_BLOCK + 17):
        assert n_samples % tile
        for n in (1, 2, chunk + 1, 2 * chunk + 3):
            grid = GridSpec(1.0, n)
            serial = mc.sample_paths(grid, n_samples, seed=11)
            expected = [_hedge_residual_materialized(p, grid, serial)
                        for p in STREAMED_PAYOFFS]
            batch = mc.sample_paths(grid, n_samples, 11)
            for payoff, want in zip(STREAMED_PAYOFFS, expected):
                got = mc.tracking_error_hedge(payoff, grid, batch)
                assert got.tobytes() == want.tobytes()
        norms = mc.sample_paths(norm_grid, n_samples, seed=11)
        want = oracles.evaluate_reference(co.err_tail(f, 1), norms.increments)
        batch = mc.sample_paths(norm_grid, n_samples, 11)
        assert mc.mc_err_norm(f, 1, batch).tobytes() == want.tobytes()


def test_sine_hedge_matches_closed_form_error():
    # Gobet & Temam's check, on a smooth payoff: the streamed hedge of sin(W_1)
    # lies within 4 SE of its exact first-order error
    batches = [mc.sample_paths(GridSpec(1.0, n), 200_000, seed=7) for n in (4, 16)]
    hedges = mc.tracking_error_hedges(mc.ExponentialPayoff(-1j, 1j), batches)
    for batch, hedge in zip(batches, hedges):
        exact = oracles.sine_hedge_error(batch.grid)
        assert abs(hedge.estimate - exact) <= 4 * hedge.std_error, (batch.grid.N, hedge, exact)


def test_terminal_payoff_protocol():
    # every terminal payoff carries the protocol, every exported name imports,
    # and no isinstance dispatch on a terminal payoff class is left in the package
    classes = typing.get_args(mc.TerminalPayoff)
    for cls in classes:
        for name in ("label", "hermite_coeffs", "conditional_delta"):
            assert hasattr(cls, name), (cls.__name__, name)
    exported = {}
    exec("from chaosco import *", exported)
    assert set(chaosco.__all__) <= set(exported)
    names = "|".join(cls.__name__ for cls in classes)
    dispatch = re.compile(rf"isinstance\(.*\b({names})\b")
    for path in sorted(Path(mc.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert not dispatch.search(line), f"{path.name}:{number}: {line.strip()}"


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
        mc.DigitalPayoff(strike).conditional_delta()(w, sqrt_var, out)
        for row, v in enumerate(variances):
            z = (strike - w[row]) / math.sqrt(v)
            want = hermite.normal_pdf(z) / math.sqrt(v)
            assert out[row].tobytes() == want.tobytes()
        assert (out == 0.0).any() and (out[(out > 0) & (out < 2.3e-308)]).size


@pytest.mark.parametrize("n_grids", [2, 4])
def test_map_blocks_failure_ends_every_thread(monkeypatch, n_grids):
    # an exception in the sampler or in fn is raised by _map_blocks as it
    # comes, and no thread is started, whether one grid or n_grids grids
    # share each block
    batch = mc.sample_paths(GridSpec(1.0, 3), 10 * mc.SAMPLE_BLOCK, seed=1)
    grids = [mc.sample_paths(GridSpec(1.0, n), 10 * mc.SAMPLE_BLOCK, seed=1)
             for n in (8, 3, 5, 2)[:n_grids]]
    block_generator = mc._block_generator

    class FailingGenerator:
        # block at's stream fails on its first fill, after writing it
        def __init__(self, generator):
            self.generator = generator

        def standard_normal(self, out):
            self.generator.standard_normal(out=out)
            raise LookupError("sampler failed")

    def failing_sampler(at):
        def sampler(seed, block):
            generator = block_generator(seed, block)
            return FailingGenerator(generator) if block == at else generator

        return sampler

    def failing_fn(xi):
        calls.append(None)
        if len(calls) == 3:
            raise ArithmeticError("estimator failed")
        return xi[0].copy()

    def first_slot(xi):
        return xi[0].copy()

    threads = threading.active_count()
    # the first block fails, a block mid-stream fails on n_grids grids, the
    # third fn call fails on one grid and on n_grids grids
    for sampler, batches, fn, error in (
            (failing_sampler(0), [batch], first_slot, LookupError),
            (failing_sampler(5), grids, first_slot, LookupError),
            (block_generator, [batch], failing_fn, ArithmeticError),
            (block_generator, grids, failing_fn, ArithmeticError)):
        calls = []
        monkeypatch.setattr(mc, "_block_generator", sampler)
        with pytest.raises(error, match="failed"):
            mc._map_blocks(batches, [fn] * len(batches))
        assert threading.active_count() == threads
        assert len(calls) == (3 if fn is failing_fn else 0)
    monkeypatch.setattr(mc, "_block_generator", block_generator)
    for got, b in zip(mc._map_blocks(grids, [first_slot] * n_grids), grids):
        assert np.array_equal(got, b.increments[:, 0])
    assert threading.active_count() == threads


def test_map_blocks_in_any_grid_order_bit_equal_across_workers(monkeypatch):
    # grids in non-ascending order, a repeated grid and a single grid: every
    # hedge residual and occupation time is the materialized reference's
    monkeypatch.setattr(mc, "_l2_of_samples", lambda values: values.copy())
    payoff = mc.DigitalPayoff(0.0)
    n_samples = 2 * mc.SAMPLE_BLOCK + 33
    for n_list in ([256, 3, 17, 3], [17]):
        serial = [mc.sample_paths(GridSpec(1.0, n), n_samples, 21) for n in n_list]
        hedges = [_hedge_residual_materialized(payoff, b.grid, b).tobytes() for b in serial]
        occupations = [(np.sum(b.brownian_paths() >= 0.0, axis=1) * b.grid.dt).tobytes()
                       for b in serial]
        batches = [mc.sample_paths(GridSpec(1.0, n), n_samples, 21) for n in n_list]
        got = mc.tracking_error_hedges(payoff, batches)
        assert [r.tobytes() for r in got] == hedges
        assert [oracles.occupation_value(b).tobytes() for b in batches] == occupations


def test_map_blocks_rows_straddling_window_pieces_bit_equal(monkeypatch):
    # a window of a few rows of the largest grid, a multiple of no grid's row:
    # each piece leaves a partial row of some grid to carry over, and every
    # first slot, occupation time and hedge residual is the materialized
    # reference's, at every block remainder
    monkeypatch.setattr(mc, "_l2_of_samples", lambda values: values.copy())
    monkeypatch.setattr(mc, "STREAM_ROWS", 1)
    payoff = mc.DigitalPayoff(0.0)
    n_list = [1000, 3, 17, 256, 3]
    windows = (3 * 1000 + 7, 50 * 1000 + 11)
    assert all(window % n for window in windows for n in n_list)
    for n_samples in (1, mc.SAMPLE_BLOCK - 1, mc.SAMPLE_BLOCK + 1, 2 * mc.SAMPLE_BLOCK + 33):
        serial = [mc.sample_paths(GridSpec(1.0, n), n_samples, 21) for n in n_list]
        firsts = [b.increments[:, 0].tobytes() for b in serial]
        occupations = [(np.sum(b.brownian_paths() >= 0.0, axis=1) * b.grid.dt).tobytes()
                       for b in serial]
        hedges = [_hedge_residual_materialized(payoff, b.grid, b).tobytes() for b in serial]
        del serial
        batches = [mc.sample_paths(GridSpec(1.0, n), n_samples, 21) for n in n_list]
        for window in windows:
            monkeypatch.setattr(mc, "STREAM_WINDOW", window)
            got = mc._map_blocks(batches, [lambda xi: xi[0].copy()] * len(n_list))
            assert [r.tobytes() for r in got] == firsts
            assert [oracles.occupation_value(b).tobytes() for b in batches] == occupations
        # the hedges run at the last window, of 50 rows: at 3 rows per call
        # the 1000-slot hedge alone takes seconds
        got = mc.tracking_error_hedges(payoff, batches)
        assert [r.tobytes() for r in got] == hedges
        assert all("increments" not in vars(b) for b in batches)


def test_empty_batch_list_gives_no_results():
    assert mc._map_blocks([], []) == []
    assert mc.tracking_error_hedges(mc.DigitalPayoff(0.0), []) == []


def test_path_batch_rejects_worker_counts_below_one():
    # a batch is its grid, sample count and seed alone: it takes no worker count
    grid = GridSpec(1.0, 2)
    for n_samples in (0, -1):
        with pytest.raises(ValueError, match="n_samples"):
            mc.sample_paths(grid, n_samples, seed=1)
    assert [f.name for f in dataclasses.fields(mc.PathBatch)] == ["grid", "n_samples", "seed"]
    with pytest.raises(TypeError):
        mc.sample_paths(grid, 10, seed=1, workers=2)


def test_tracking_error_hedges_reject_mismatched_batches():
    grid, fine = GridSpec(1.0, 2), GridSpec(1.0, 4)
    payoff = mc.DigitalPayoff(0.0)
    base = mc.sample_paths(grid, 100, seed=1)
    for other in (mc.sample_paths(fine, 100, seed=2), mc.sample_paths(fine, 101, seed=1)):
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
    # the term integrands live on the first ell - 1 of the five slots; the
    # decomposition evaluates bit for bit as the expansion it regroups
    xi = batch.increments
    for payoff in (mc.PolynomialPayoff((1.0, 0.0, 0.0, -2.0)), mc.DigitalPayoff(0.0)):
        g = mc.coeffs_terminal(payoff, grid, 4)
        values = co.evaluate_decomposition(co.decompose(g), xi)
        assert values.tobytes() == chaos.evaluate(g, xi).tobytes()
        expected = oracles.evaluate_decomposition_reference(co.decompose(g), xi)
        assert np.max(np.abs(values - expected)) < 1e-12


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


def _refined_errors(payoff, n1_list, max_degree):
    """First-order refined error norms of a one-step expansion at s = 0, one per N1."""
    f = mc.coeffs_terminal(payoff, GridSpec(1.0, 1), max_degree)
    return [co.err_norm_refined(f, 1, n1, 0.0) for n1 in n1_list]


def test_rate_sweep_quadratic():
    f = mc.coeffs_terminal(mc.PolynomialPayoff((0.0, 0.0, 1.0)), GridSpec(1.0, 1), 4)
    rows = list(co.verify_bounds(f, [1], [4, 8, 16, 32, 64], [0.0], [1.0]))
    slope, _ = co.fit_loglog_slope([row[1] for row in rows], [row[4] for row in rows])
    assert slope == pytest.approx(-0.5, abs=0.05)
    for _, n1, _, _, err, bound, _, _ in rows:
        assert err <= bound * (1 + 1e-12)


def test_rate_sweep_digital_high_degree_slope():
    # with enough Hermite terms the digital shows its slow rate, well above
    # the -1/2 seen for any fixed polynomial truncation
    n1_list = [4, 8, 16, 32, 64, 128, 256]
    errs = _refined_errors(mc.DigitalPayoff(0.0), n1_list, 1000)
    slope, _ = co.fit_loglog_slope(n1_list, errs)
    assert -0.35 < slope < -0.15


def test_rate_sweep_low_degree_payoff_empty_tail():
    errs = _refined_errors(mc.PolynomialPayoff((0.0, 1.0)), [4, 8, 16], 3)
    slope, used = co.fit_loglog_slope([4, 8, 16], errs)
    assert math.isnan(slope) and used == 0
    assert errs == [0.0] * 3


def test_occupation_rate_sweep():
    n_list = [4, 8, 16, 32, 64]
    errs = [mc.occupation_error_norm(GridSpec(1.0, n), 1, 20) for n in n_list]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    slope, _ = co.fit_loglog_slope(n_list, errs)
    assert -0.65 < slope < -0.35


def test_payoff_label():
    assert mc.payoff_label(mc.PolynomialPayoff((0.0, 1.0))) == "poly:0,1"
    assert mc.payoff_label(mc.DigitalPayoff(1.5)) == "digital:1.5"
    assert mc.payoff_label(mc.OccupationTimePayoff()) == "occupation"
    assert mc.payoff_label(mc.ExponentialPayoff(-1j, 1j)) == "Re((-0-1j)*exp((0+1j)*x))"
    assert mc.payoff_label(mc.ExponentialPayoff(1.0, 0.5)) == "Re((1)*exp((0.5)*x))"
    # payoffs that differ past six digits have distinct labels that read back as c and beta
    for c, beta in ((1, 0.1234567), (1, 0.1234568), (0.1 + 0.2, 1 / 3 - 2j)):
        parts = re.fullmatch(r"Re\(\((.*)\)\*exp\(\((.*)\)\*x\)\)",
                             mc.ExponentialPayoff(c, beta).label).groups()
        assert tuple(map(complex, parts)) == (c, beta)
    assert mc.ExponentialPayoff(1, 0.1234567).label != mc.ExponentialPayoff(1, 0.1234568).label
    # the fewest digits from 6 on that read back as the value
    assert mc.PolynomialPayoff((0.1234567, -1.0, 0.1 + 0.2)).label == (
        "poly:0.1234567,-1,0.30000000000000004")
    assert mc.DigitalPayoff(0.1234568).label == "digital:0.1234568"
    assert mc.DigitalPayoff(-0.0).label == "digital:-0"
    # the benchmark's payoff specs are their payoffs' labels
    for spec in ("poly:0,0,1", "digital:0", "digital:0.5", "occupation"):
        payoff = cli.parse_payoff(spec)
        assert payoff.label == spec and cli.parse_payoff(payoff.label) == payoff


def test_brownian_paths_checked_and_bit_equal(monkeypatch):
    batch = mc.sample_paths(GridSpec(2.0, 4), 10_000, seed=3)
    increments = batch.increments
    expected = np.cumsum(math.sqrt(batch.grid.dt) * increments, axis=1)
    assert np.array_equal(batch.brownian_paths(), expected)
    assert np.array_equal(batch.increments, increments)  # the cached draws stay as drawn
    # with the increments cached, the paths are the next samples * N * 8 bytes:
    # 320,000 of them, against 100 pages of 4096 bytes and then 78
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}
    monkeypatch.setattr(mi.os, "sysconf", pages.__getitem__)
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
