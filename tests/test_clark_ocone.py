import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaosco import chaos, clark_ocone as co
from chaosco import multiindex as mi
from chaosco.chaos import ChaosExpansion, GridSpec

import oracles


#: small, deterministic property runs
PROPERTY = settings(max_examples=40, derandomize=True, deadline=None, database=None)


@st.composite
def _sparse_expansions(draw):
    """Up to 8 coefficients on 1 to 4 slots, entries up to 4."""
    n = draw(st.integers(1, 4))
    keys = st.lists(st.integers(0, 4), max_size=n).map(tuple)
    coeffs = draw(st.dictionaries(keys, st.floats(-2.0, 2.0), max_size=8))
    return ChaosExpansion(GridSpec(draw(st.sampled_from([0.5, 1.0, 3.0])), n), coeffs)


def _refined_h2():
    f = ChaosExpansion(GridSpec(1.0, 1), {(2,): 1.0})
    return chaos.refine(f, 2)


def test_decompose_constant():
    d = co.decompose(oracles.constant(GridSpec(1.0, 2), 4.0))
    assert d.mean == 4.0 and d.terms == ()


def test_decompose_single_coefficient():
    f = ChaosExpansion(GridSpec(1.0, 1), {(1,): 2.0})
    d = co.decompose(f)
    assert d.mean == 0.0
    assert len(d.terms) == 1
    term = d.terms[0]
    assert (term.ell, term.m) == (1, 1)
    assert term.integrand.coeffs == {(): 2.0}


def test_decompose_refined_h2_grouping():
    d = co.decompose(_refined_h2())
    keys = {(t.ell, t.m): t for t in d.terms}
    assert set(keys) == {(1, 2), (2, 1), (2, 2)}
    assert keys[(1, 2)].integrand.coeffs == {(): pytest.approx(0.5)}
    assert keys[(2, 1)].integrand.coeffs == {(1,): pytest.approx(math.sqrt(2) / 2)}
    assert keys[(2, 2)].integrand.coeffs == {(): pytest.approx(0.5)}


def test_reconstruct_round_trip():
    for f in [
        _refined_h2(),
        oracles.constant(GridSpec(1.0, 1), 3.0),
        ChaosExpansion(GridSpec(1.0, 3), {(1, 0, 2): 0.5, (2,): -1.0, (): 0.25}),
    ]:
        assert co.reconstruct(co.decompose(f)).coeffs == f.coeffs


@PROPERTY
@given(_sparse_expansions())
def test_reconstruct_inverts_decompose(f):
    back = co.reconstruct(co.decompose(f))
    assert back.grid == f.grid and back.coeffs == f.coeffs


def test_reconstruct_rejects_overlap():
    g = GridSpec(1.0, 2)
    t1 = co.ClarkOconeTerm(2, 1, oracles.constant(g, 1.0))
    d = co.ClarkOconeDecomposition(g, 0.0, (t1, t1))
    with pytest.raises(ValueError):
        co.reconstruct(d)


def test_decomposition_pathwise_matches_expansion():
    rng = np.random.default_rng(17)
    f = ChaosExpansion(
        GridSpec(1.0, 3), {a: rng.uniform(-1, 1) for a in mi.enumerate_upto(3, 4)}
    )
    d = co.decompose(f)
    xi = rng.standard_normal((50, 3))
    direct = chaos.evaluate(f, xi)
    via_terms = co.evaluate_decomposition(d, xi)
    assert np.max(np.abs(direct - via_terms)) < 1e-12


@PROPERTY
@given(_sparse_expansions(), st.integers(1, 3))
def test_evaluate_decomposition_is_evaluate_bit_for_bit(f, rows):
    xi = np.random.default_rng(rows).standard_normal((rows, f.grid.N))
    on_terms = co.evaluate_decomposition(co.decompose(f), xi)
    assert on_terms.tobytes() == chaos.evaluate(f, xi).tobytes()


def test_evaluate_decomposition_refuses_overlap_and_slots_beyond_the_grid():
    g = GridSpec(1.0, 2)
    xi = np.zeros((4, 2))
    twice = co.ClarkOconeTerm(2, 1, oracles.constant(g, 1.0))
    with pytest.raises(ValueError, match=r"overlapping term key \(0, 1\)"):
        co.evaluate_decomposition(co.ClarkOconeDecomposition(g, 0.0, (twice, twice)), xi)
    beyond = co.ClarkOconeTerm(3, 1, oracles.constant(g, 1.0))
    with pytest.raises(ValueError, match=r"index \(0, 0, 1\) needs 3 slots but grid has 2"):
        co.evaluate_decomposition(co.ClarkOconeDecomposition(g, 0.0, (beyond,)), xi)


def test_evaluate_decomposition_chunks_bit_equal():
    # chunk remainders, one path and a (j, k) batch: chaos.evaluate bit for
    # bit its whole-batch reference, and evaluate_decomposition bit for bit
    # the expansion it regroups, within 1e-12 of the sum of whole-batch
    # evaluations, one per term
    assert chaos.EVALUATE_CHUNK == 4096
    rng = np.random.default_rng(23)
    grid = GridSpec(1.0, 5)
    f = ChaosExpansion(grid, {a: rng.uniform(-1, 1) for a in mi.enumerate_upto(5, 4)
                              if rng.random() < 0.5})
    d = co.decompose(f)
    assert len({term.ell for term in d.terms}) == 5

    def assert_bit_equal(xi):
        values = chaos.evaluate(f, xi)
        assert values.tobytes() == oracles.evaluate_reference(f, xi).tobytes()
        on_terms = co.evaluate_decomposition(d, xi)
        assert on_terms.tobytes() == values.tobytes()
        want = oracles.evaluate_decomposition_reference(d, xi)
        assert np.max(np.abs(on_terms - want)) < 1e-12

    for rows in (1, 4095, 4097, 2 * 4096 + 17):
        assert_bit_equal(rng.standard_normal((rows, 5)))
    # a slot-major view and a (j, k) batch
    assert_bit_equal(rng.standard_normal((5, 4100)).T)
    xi = rng.standard_normal((3, 1500, 5))
    assert co.evaluate_decomposition(d, xi).shape == chaos.evaluate(f, xi).shape == (3, 1500)
    assert_bit_equal(xi)
    single = rng.standard_normal(5)
    value = chaos.evaluate(f, single)
    assert np.float64(value).tobytes() == oracles.evaluate_reference(f, single).tobytes()
    on_terms = co.evaluate_decomposition(d, single)
    assert isinstance(value, float) and isinstance(on_terms, float)
    assert np.float64(on_terms).tobytes() == np.float64(value).tobytes()
    assert abs(on_terms - oracles.evaluate_decomposition_reference(d, single)) < 1e-12
    constant = co.decompose(oracles.constant(grid, 1.5))
    assert np.array_equal(co.evaluate_decomposition(constant, xi), np.full((3, 1500), 1.5))
    with pytest.raises(ValueError, match="expected 5 increments"):
        co.evaluate_decomposition(d, xi[..., :4])


def test_scalar_increments_are_refused():
    # a 0-d xi has no increment axis: both evaluators name the count they expect
    f = ChaosExpansion(GridSpec(1.0, 1), {(): 0.5, (1,): 0.25, (3,): -0.125})
    for evaluate, g in ((chaos.evaluate, f), (co.evaluate_decomposition, co.decompose(f))):
        with pytest.raises(ValueError, match="expected 1 increments"):
            evaluate(g, 0.3)
        assert evaluate(g, [0.3]) == evaluate(g, np.array([[0.3]]))[0]


def test_err_tail():
    fine = _refined_h2()
    tail = co.err_tail(fine, 1)
    assert set(tail.coeffs) == {(2,), (0, 2)}
    assert co.err_tail(fine, 2).coeffs == {}
    assert co.err_tail(oracles.constant(GridSpec(1.0, 1), 9.0), 1).coeffs == {}


def test_tail_mass_examples():
    assert co.tail_mass((2,), 1, 2) == pytest.approx(0.5)
    assert co.tail_mass((3,), 1, 2) == pytest.approx(5 / 8)
    assert co.tail_mass((1,), 1, 7) == 0.0
    with pytest.raises(ValueError):
        co.tail_mass((), 1, 2)


def test_tail_mass_vs_enumeration():
    for a in [(2,), (3,), (2, 2), (1, 3)]:
        for n in (1, 2):
            for n1 in (2, 3):
                brute = sum(
                    oracles.factorial(a) / oracles.factorial(af) / n1 ** oracles.length(a)
                    for af in mi.enumerate_matching(a, len(a), n1)
                    if af and af[-1] > n
                )
                assert co.tail_mass(a, n, n1) == pytest.approx(brute, abs=1e-13)


@lru_cache(maxsize=None)
def _int_power_sum(n1, e):
    """sum_{i=0}^{N1-1} i^e in integers, with 0^0 = 1."""
    return sum(i**e for i in range(n1))


def _exact_tail_mass(v, n, n1):
    """S(v, n, N1) from the integer S N1^v = sum_l sum_{k>n} C(v,k) (l-1)^{v-k}.

    By the binomial theorem the inner sum is l^v - sum_{k<=n} C(v,k) (l-1)^{v-k};
    in integers that subtraction is exact.  The quotient is rounded once.
    """
    tops = _int_power_sum(n1 + 1, v) - 0**v  # sum_{l=1}^{N1} l^v
    heads = sum(math.comb(v, k) * _int_power_sum(n1, v - k) for k in range(min(n, v) + 1))
    return float(Fraction(tops - heads, n1**v))


def test_exact_tail_mass_oracle_matches_double_sum():
    for v in range(7):
        for n in (1, 2, 3):
            for n1 in (1, 2, 3):
                direct = sum(
                    math.comb(v, k) * (l - 1) ** (v - k)
                    for l in range(1, n1 + 1)
                    for k in range(n + 1, v + 1)
                )
                assert _exact_tail_mass(v, n, n1) == float(Fraction(direct, n1**v))


@pytest.mark.parametrize("n1", [1, 2, 4, 64, 1024, 4096])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tail_mass_table_matches_exact_integers(n, n1):
    for v in [*range(41), 60, 61, 400, 1000]:
        got = co.tail_mass((v,), n, n1) if v else co._tail_mass_value(0, n, n1)
        want = _exact_tail_mass(v, n, n1)
        if v <= n:
            assert got == 0.0
        else:
            assert abs(got - want) <= 1e-12 * want, (v, got, want)


def test_tail_mass_small_tail_keeps_precision():
    # the cubic at n=2: a single term N1^{-2}, which a complement would cancel away
    assert co.tail_mass((3,), 2, 4096) == pytest.approx(4096.0**-2, rel=1e-15)


def test_tail_mass_table_independent_of_length():
    for n, n1 in [(1, 2), (2, 3), (3, 64)]:
        long = co._tail_mass_table(n, n1, 1024)
        # the lengths top degree + 1 that err_norm_refined asks for, and the
        # powers of two that tail_mass reads
        for size in (64, *range(1, 20)):
            assert np.array_equal(co._tail_mass_table(n, n1, size), long[:size])
        assert not long.flags.writeable


def test_tail_mass_scan_builds_one_table_per_power_of_two():
    # v = 1..1000 reads the tables of lengths 2, 4, ..., 1024
    co._tail_mass_value.cache_clear()
    co._tail_mass_table.cache_clear()
    for v in range(1, 1001):
        co.tail_mass((v,), 2, 64)
    assert co._tail_mass_table.cache_info().misses <= 11


def test_tail_mass_caches_are_bounded():
    assert co._tail_mass_value.cache_info().maxsize is not None
    assert co._tail_mass_table.cache_info().maxsize == mi.TABLE_CACHE_SIZE


def test_tail_mass_bound_examples():
    assert oracles.tail_mass_bound((2,), 1, 2, 1.0) == pytest.approx(1.0)
    assert oracles.tail_mass_bound((5, 1), 3, 4, 0.0) == 1.0
    assert oracles.tail_mass_bound((3,), 1, 2, 1.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        oracles.tail_mass_bound((2,), 1, 2, 1.5)


def test_err_norm_refined_examples():
    f = ChaosExpansion(GridSpec(1.0, 1), {(2,): 1.0})
    assert co.err_norm_refined(f, 1, 2, 0.0) == pytest.approx(math.sqrt(0.5))
    assert co.err_norm_refined(f, 2, 2, 0.0) == 0.0
    assert co.err_norm_refined(oracles.constant(GridSpec(1.0, 1), 7.0), 1, 4, 0.0) == 0.0


def test_err_norm_refined_matches_materialized_tail():
    rng = np.random.default_rng(23)
    f = ChaosExpansion(
        GridSpec(1.0, 2), {a: rng.uniform(-1, 1) for a in mi.enumerate_upto(2, 5)}
    )
    for n in (1, 2, 3):
        for n1 in (2, 3):
            for s in (-1.0, 0.0, 1.5):
                fine = chaos.refine(f, n1)
                direct = chaos.sobolev_norm(co.err_tail(fine, n), s)
                assert co.err_norm_refined(f, n, n1, s) == pytest.approx(
                    direct, abs=1e-12
                )


def test_err_norm_refined_matches_per_coefficient_sum():
    rng = np.random.default_rng(31)
    for n0, degree in [(1, 40), (3, 6), (4, 5)]:
        f = ChaosExpansion(
            GridSpec(1.0, n0),
            {a: rng.uniform(-1, 1) for a in mi.enumerate_upto(n0, degree)},
        )
        for n in (1, 2, 3):
            for n1 in (1, 2, 5, 64):
                for s in (-1.0, 0.0, 0.5, 2.0):
                    squared = sum(
                        (1.0 + sum(a)) ** s * c * c * _exact_tail_mass(a[-1], n, n1)
                        for a, c in f.coeffs.items()
                        if a
                    )
                    assert co.err_norm_refined(f, n, n1, s) == pytest.approx(
                        math.sqrt(squared), rel=1e-12, abs=0.0
                    )


@st.composite
def _graded_expansions(draw):
    """Up to 12 coefficients on 1 to 3 slots, degree up to 6."""
    n = draw(st.integers(1, 3))
    keys = st.sampled_from(list(mi.enumerate_upto(n, 6)))
    coeffs = draw(st.dictionaries(keys, st.floats(-2.0, 2.0), max_size=12))
    return ChaosExpansion(GridSpec(1.0, n), coeffs)


@PROPERTY
@given(_graded_expansions(), st.floats(-40.0, 40.0), st.integers(1, 3),
       st.sampled_from([1, 2, 5, 64]))
def test_sobolev_class_sum_matches_per_coefficient_sums(f, s, n, n1):
    # the one scaled class sum behind sobolev_norm and err_norm_refined
    # against per-coefficient fsums of (1+|a|)^s c_a^2 (times S for the error)
    norm_sq = math.fsum((1.0 + sum(a)) ** s * c * c for a, c in f.coeffs.items())
    assert chaos.sobolev_norm(f, s) == pytest.approx(math.sqrt(norm_sq), rel=1e-13, abs=0.0)
    error_sq = math.fsum((1.0 + sum(a)) ** s * c * c * co.tail_mass(a, n, n1)
                         for a, c in f.coeffs.items() if a)
    assert co.err_norm_refined(f, n, n1, s) == pytest.approx(
        math.sqrt(error_sq), rel=1e-13, abs=0.0)
    assert all(f.sobolev_classes(s)[1] <= 1.0)
    # at s = 0 the norm is the unscaled dot product, bit for bit
    degree, last, weight = f.degree_classes
    if degree.size:
        table = co._tail_mass_table(n, n1, int(degree[-1]) + 1)
        assert co.err_norm_refined(f, n, n1, 0.0) == math.sqrt(weight @ table[last])


def test_err_norm_monotonicity():
    rng = np.random.default_rng(29)
    f = ChaosExpansion(
        GridSpec(1.0, 2), {a: rng.uniform(-1, 1) for a in mi.enumerate_upto(2, 5)}
    )
    norms_in_n = [co.err_norm_refined(f, n, 4, 0.0) for n in (1, 2, 3, 4)]
    assert all(b <= a + 1e-15 for a, b in zip(norms_in_n, norms_in_n[1:]))
    norms_in_n1 = [co.err_norm_refined(f, 2, n1, 0.0) for n1 in (1, 2, 4, 8, 16)]
    assert all(b <= a + 1e-15 for a, b in zip(norms_in_n1, norms_in_n1[1:]))


def test_error_norm_bound_examples():
    f = ChaosExpansion(GridSpec(1.0, 1), {(2,): 1.0})
    assert co.error_norm_bound(f, 1, 2, 0.0, 1.0) == pytest.approx(
        math.sqrt(3) / math.sqrt(2)
    )
    assert co.error_norm_bound(f, 1, 8, 0.5, 0.0) == pytest.approx(
        chaos.sobolev_norm(f, 0.5)
    )
    assert co.error_norm_bound(f, 1, 1, 0.0, 1.0) == pytest.approx(
        chaos.sobolev_norm(f, 1.0)
    )
    with pytest.raises(ValueError):
        co.error_norm_bound(f, 1, 2, 0.0, -0.1)


def _log_int_ratio(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def test_bounds_at_high_order_stay_finite():
    # n! N1^n and 1001^(s+rn) overflow a float at n = 200; log space does not
    n, n1 = 200, 256
    coeffs = {(1000,): 1e-3, (250,): 0.5, (3,): 2.0}
    f = ChaosExpansion(GridSpec(1.0, 1), coeffs)
    log_den = math.log(math.factorial(n) * n1**n)
    for s, r in [(0.0, 1.0), (1.0, 0.5), (-1.0, 0.25)]:
        order = int(s + r * n)
        norm_sq = sum(Fraction(1 + a[0]) ** order * Fraction(c) ** 2 for a, c in coeffs.items())
        want = math.exp(0.5 * (_log_int_ratio(norm_sq) - r * log_den))
        assert co.error_norm_bound(f, n, n1, s, r) == pytest.approx(want, rel=1e-12)
        assert co.verify_bound(f, n, n1, s, r).holds
    want = math.exp(0.5 * (n * math.log(250) - log_den))
    assert oracles.tail_mass_bound((250,), n, n1, 0.5) == pytest.approx(want, rel=1e-12)


def test_verify_bound():
    f = ChaosExpansion(GridSpec(1.0, 1), {(2,): 1.0})
    check = co.verify_bound(f, 1, 2, 0.0, 1.0)
    assert check.holds
    assert check.lhs == pytest.approx(math.sqrt(0.5))
    assert check.rhs == pytest.approx(math.sqrt(1.5))
    const = oracles.constant(GridSpec(1.0, 2), 2.0)
    check0 = co.verify_bound(const, 1, 4, 0.0, 0.5)
    assert check0.holds and check0.lhs == 0.0


@PROPERTY
@given(_sparse_expansions(), st.integers(1, 3), st.integers(1, 16),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_verify_bound_holds(f, n, n1, s, r):
    assert co.verify_bound(f, n, n1, s, r).holds


def _bound_rows_reference(f, orders, n1_list, s_list, r_list):
    """One row per (n, N1, s, r) from the per-row functions, on a fresh copy of f."""
    rows = []
    for n, n1, s, r in itertools.product(orders, n1_list, s_list, r_list):
        g = ChaosExpansion(f.grid, dict(f.coeffs))
        lhs = co.err_norm_refined(g, n, n1, s)
        rhs = co.error_norm_bound(g, n, n1, s, r)
        rows.append((n, n1, s, r, lhs, rhs, co.bound_holds(lhs, rhs), rhs - lhs))
    return rows


#: orders above every test expansion's degree give lhs 0; s down to -2.5
_BOUND_LISTS = ([1, 2, 9], [1, 3, 16], [-2.5, 0.0, 1.5], [0.0, 0.5, 1.0])


@PROPERTY
@given(_sparse_expansions())
def test_verify_bounds_bit_equal_to_per_row(f):
    rows = list(co.verify_bounds(f, *_BOUND_LISTS))
    assert repr(rows) == repr(_bound_rows_reference(f, *_BOUND_LISTS))
    assert all(lhs == 0.0 for n, *_, lhs, _, _, _ in rows if n == 9)
    # verify_bound is the one-row table
    check = co.verify_bound(f, 2, 3, -2.5, 1.0)
    (row,) = [row for row in rows if row[:4] == (2, 3, -2.5, 1.0)]
    assert (check.lhs, check.rhs, check.holds, check.slack) == row[4:]


def test_verify_bounds_zero_constant_and_random():
    g = GridSpec(1.0, 3)
    rng = np.random.default_rng(11)
    random = ChaosExpansion(g, {a: rng.uniform(-1, 1) for a in mi.enumerate_upto(3, 5)})
    for f in (ChaosExpansion(g, {}), oracles.constant(g, -2.0), random):
        rows = list(co.verify_bounds(f, *_BOUND_LISTS))
        assert repr(rows) == repr(_bound_rows_reference(f, *_BOUND_LISTS))
        assert len(rows) == 81 and all(row[6] for row in rows)
    zero_rows = list(co.verify_bounds(ChaosExpansion(g, {}), *_BOUND_LISTS))
    assert {row[4:] for row in zero_rows} == {(0.0, 0.0, True, 0.0)}
    const_rows = list(co.verify_bounds(oracles.constant(g, -2.0), *_BOUND_LISTS))
    assert {row[4] for row in const_rows} == {0.0}


@pytest.mark.parametrize("lists, message", [
    (([1, 0], [4], [0.0], [0.5]), "n and N1 must be >= 1"),
    (([1], [4, 0], [0.0], [0.5]), "n and N1 must be >= 1"),
    (([1], [4], [0.0], [0.5, 1.5]), "interpolation exponent r must lie in"),
    (([1], [4], [0.0], [-0.5]), "interpolation exponent r must lie in"),
])
def test_verify_bounds_checks_every_list_first(lists, message, monkeypatch):
    f = ChaosExpansion(GridSpec(1.0, 2), {(1, 2): 1.0})
    computed = []
    monkeypatch.setattr(co, "err_norm_refined", lambda *a: computed.append(a))
    with pytest.raises(ValueError, match=message):
        co.verify_bounds(f, *lists)
    assert computed == []
    with pytest.raises(ValueError, match=message):
        co.verify_bound(f, *(values[-1] for values in lists))


def test_zeta_error_bound():
    g = GridSpec(1.0, 1)
    assert co.zeta_error_bound(oracles.constant(g, 5.0), 1) == 0.0
    low = ChaosExpansion(g, {(1,): 2.0})
    assert co.zeta_error_bound(low, 1) == 0.0
    f = ChaosExpansion(g, {(2,): 1.0})
    assert co.zeta_error_bound(f, 1) == pytest.approx(
        math.sqrt(math.pi**2 / 6 * 2.0)
    )
    # bound dominates the exact error at the expansion's own grid
    assert co.zeta_error_bound(f, 1) >= co.err_norm_refined(f, 1, 1, 0.0)


def test_zeta_closed_forms():
    assert co._zeta(2) == pytest.approx(math.pi**2 / 6, rel=1e-15, abs=0.0)
    assert co._zeta(4) == pytest.approx(math.pi**4 / 90, rel=1e-15, abs=0.0)
    assert co._zeta(200) == 1.0
    with pytest.raises(ValueError):
        co._zeta(1)


def test_zeta_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for s in range(2, 41):
        assert co._zeta(s) == pytest.approx(float(special.zeta(s)), rel=1e-15, abs=0.0)


def test_derivative_squared_integral_multislot():
    # F = H_1 x H_1 on two slots of a T=2 grid: D_t F is H_1 of the other
    # slot divided by sqrt(dt); each slot integrates to ||H_1||^2 = 1
    g = GridSpec(2.0, 2)
    f = ChaosExpansion(g, {(1, 1): 1.0})
    assert co.malliavin_derivative_squared_integral(f, 1) == pytest.approx(2.0)


def _slot_by_slot_integral(f, order):
    """The derivative integral as N passes over all coefficients, one per slot."""
    total = 0.0
    for i in range(f.grid.N):
        slot_sum = 0.0
        for a, c in f.coeffs.items():
            ai = a[i] if i < len(a) else 0
            if ai >= order:
                slot_sum += c * c * math.factorial(ai) / math.factorial(ai - order)
        total += slot_sum
    return total * (f.grid.N / f.grid.T) ** (order - 1)


def test_derivative_squared_integral_matches_slot_by_slot_loop(monkeypatch):
    rng = np.random.default_rng(41)
    expansions = [
        ChaosExpansion(GridSpec(1.7, n), {a: rng.uniform(-1, 1) for a in mi.enumerate_upto(n, 5)})
        for n in (1, 3, 5, 8)
    ]
    for f in expansions:
        for order in (1, 2, 3):
            got = co.malliavin_derivative_squared_integral(f, order)
            assert got.hex() == _slot_by_slot_integral(f, order).hex()
    bounds = [co.zeta_error_bound(f, n) for f in expansions for n in (1, 2)]
    monkeypatch.setattr(co, "malliavin_derivative_squared_integral", _slot_by_slot_integral)
    assert [b.hex() for b in bounds] == [
        co.zeta_error_bound(f, n).hex() for f in expansions for n in (1, 2)]


def test_fit_loglog_slope():
    xs = [4, 8, 16, 32]
    ys = [x ** (-0.5) for x in xs]
    slope, used = co.fit_loglog_slope(xs, ys)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert used == 4
    slope_nan, used0 = co.fit_loglog_slope(xs, [0, 0, 0, 1])
    assert used0 == 1 and math.isnan(slope_nan)


def test_bound_table_rate():
    f = ChaosExpansion(GridSpec(1.0, 1), {(2,): 1.0})
    rows = list(co.verify_bounds(f, [1], [4, 8, 16, 32, 64, 128, 256], [0.0], [1.0]))
    slope, _ = co.fit_loglog_slope([row[1] for row in rows], [row[4] for row in rows])
    assert slope == pytest.approx(-0.5, abs=0.1)
    for _, n1, _, _, err, bound, _, _ in rows:
        assert err <= bound * (1 + 1e-12)


@PROPERTY
@given(st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(lambda a: a[-1] > 0),
       st.integers(1, 4), st.integers(1, 4))
def test_tail_mass_partition(a, n, n1):
    # the weights a!/a'! N1^{-|a|} over the matching fine a' sum to one; those
    # whose last entry exceeds n are the tail mass
    a = tuple(a)
    weights = {
        af: Fraction(oracles.factorial(a), oracles.factorial(af) * n1 ** sum(a))
        for af in mi.enumerate_matching(a, len(a), n1)
    }
    assert sum(weights.values()) == 1
    tail = sum(w for af, w in weights.items() if af[-1] > n)
    assert co.tail_mass(a, n, n1) == pytest.approx(float(tail), rel=1e-13, abs=1e-300)


def test_err_norm_refined_remembered_per_expansion(monkeypatch):
    rng = np.random.default_rng(37)
    coeffs = {a: rng.uniform(-1, 1) for a in mi.enumerate_upto(3, 5)}
    f = ChaosExpansion(GridSpec(1.0, 3), coeffs)
    fresh = [co.err_norm_refined(ChaosExpansion(GridSpec(1.0, 3), coeffs), n, n1, s)
             for n, n1, s in [(1, 4, 0.0), (2, 64, -1.0), (1, 4, 1.5)]]
    tables = []
    table = co._tail_mass_table
    monkeypatch.setattr(co, "_tail_mass_table", lambda *key: tables.append(key) or table(*key))
    for (n, n1, s), value in zip([(1, 4, 0.0), (2, 64, -1.0), (1, 4, 1.5)], fresh):
        # row by row, every lhs is bit-equal to a fresh expansion's norm
        assert [co.verify_bound(f, n, n1, s, r).lhs for r in (0.0, 0.5, 1.0)] == [value] * 3
        # a bound table computes it once for the whole r list
        del tables[:]
        rows = list(co.verify_bounds(f, [n], [n1], [s], [0.0, 0.5, 1.0]))
        assert [row[4] for row in rows] == [value] * 3 and len(tables) == 1
