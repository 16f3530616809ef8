import csv
import io
import math
import os
import re
import tracemalloc
from collections import Counter, OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaosco import chaos, cli, clark_ocone as co, hermite, montecarlo as mc
from chaosco import multiindex as mi
from chaosco.chaos import ChaosExpansion, GridSpec

import oracles

#: small, deterministic property runs
PROPERTY = settings(max_examples=40, derandomize=True, deadline=None, database=None)


def _construct_reference(grid, coeffs):
    """The canonicalize-and-merge loop every key goes through, then the prune of each sum."""
    merged = {}
    for key, value in coeffs.items():
        key = mi.canonical(key)
        if len(key) > grid.N:
            raise ValueError(f"index {key} needs {len(key)} slots but grid has {grid.N}")
        merged[key] = merged.get(key, 0.0) + float(value)
    return {key: value for key, value in merged.items() if abs(value) > chaos.COEFF_PRUNE}


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0, 4)
    with pytest.raises(ValueError):
        GridSpec(1.0, 0)
    assert GridSpec(2.0, 4).dt == 0.5


def test_gridspec_rejects_non_finite_horizon():
    for T in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            GridSpec(T, 4)


def test_expansion_canonicalizes_and_prunes():
    f = ChaosExpansion(GridSpec(1.0, 2), {(1, 0): 2.0, (0, 1): 1e-16})
    assert f.coeffs == {(1,): 2.0}
    with pytest.raises(ValueError):
        ChaosExpansion(GridSpec(1.0, 1), {(0, 1): 1.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_expansion_rejects_non_finite_coefficient(value):
    # the prune test abs(c) > COEFF_PRUNE is false for a NaN and true for an
    # infinity: neither may pass as a pruned or a kept coefficient
    with pytest.raises(ValueError, match="not finite"):
        ChaosExpansion(GridSpec(1.0, 2), {(1,): value, (2,): 1.0})


def test_expansion_prunes_merged_sums():
    # keys that canonicalize alike are summed first: a sum that cancels is
    # pruned, and two values below the threshold may sum above it
    g = GridSpec(1.0, 2)
    assert ChaosExpansion(g, {(1,): 1.0, (1, 0): -1.0}).coeffs == {}
    assert ChaosExpansion(g, {(1,): 0.9e-14, (1, 0): 0.9e-14}).coeffs == {(1,): 1.8e-14}
    assert ChaosExpansion(g, {(1,): 1e-15, (2,): 1.0, (1, 0): 1.0}).coeffs == {
        (1,): 1.0 + 1e-15, (2,): 1.0}


def test_expansion_rejects_merged_overflow():
    # two finite values whose keys canonicalize alike merge into an infinity
    with pytest.raises(ValueError, match=r"index \(1,\) is not finite: inf"):
        ChaosExpansion(GridSpec(1.0, 2), {(1,): 1e308, (1, 0): 1e308})


_ENTRY = st.one_of(
    st.integers(0, 3),
    st.integers(-1, 0),
    st.booleans(),
    st.integers(0, 3).map(np.int64),
    st.sampled_from([0.0, 1.0, 2.0]),
)


@PROPERTY
@given(
    st.dictionaries(st.lists(_ENTRY, max_size=4).map(tuple),
                    st.sampled_from([1.0, -0.5, 1e-15, 3]), max_size=6),
    st.integers(1, 4),
)
def test_expansion_bulk_key_check_matches_canonical_loop(coeffs, n):
    # trailing zeros, bools, numpy and float entries, negative entries,
    # overlong and merging keys: the same dict or the same error
    grid = GridSpec(1.0, n)
    try:
        expected = _construct_reference(grid, coeffs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            ChaosExpansion(grid, coeffs)
        return
    got = ChaosExpansion(grid, coeffs).coeffs
    # the same dict, held in graded order whatever the insertion order
    assert list(got.items()) == sorted(expected.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    assert all(type(x) is int for a in got for x in a)


def test_expansion_bulk_key_check_cases():
    g = GridSpec(1.0, 3)
    assert ChaosExpansion(g, {(1, 0): 2.0, (1,): 1.0}).coeffs == {(1,): 3.0}
    assert list(ChaosExpansion(g, {(True,): 2.0}).coeffs) == [(1,)]
    assert type(next(iter(ChaosExpansion(g, {(np.int64(2),): 1.0}).coeffs))[0]) is int
    assert ChaosExpansion(g, {(2.0, 1): 1.0}).coeffs == {(2, 1): 1.0}
    with pytest.raises(ValueError, match="non-negative"):
        ChaosExpansion(g, {(1, -1): 1.0})
    with pytest.raises(ValueError, match="needs 4 slots"):
        ChaosExpansion(g, {(0, 0, 0, 1): 1.0})
    # trailing zeros past the grid are trimmed, as before
    assert ChaosExpansion(g, {(1, 0, 0, 0): 1.0}).coeffs == {(1,): 1.0}
    assert ChaosExpansion(g, {}).coeffs == {}
    assert ChaosExpansion(g, {(): 0.5, (0, 2): 1e-15}).coeffs == {(): 0.5}
    # only the builders' own marker skips the check, not other dict subclasses
    assert ChaosExpansion(g, OrderedDict({(1, 0): 2.0, (1,): 1.0})).coeffs == {(1,): 3.0}
    with pytest.raises(ValueError, match="non-negative"):
        ChaosExpansion(g, Counter({(1, -1): 1}))


def test_sobolev_index_memos():
    g = GridSpec(1.0, 2)
    f = ChaosExpansion(g, {(): 2.0, (1,): 0.5, (0, 3): -1.0})
    for s in (0.0, 1.5, 40.0):
        direct = sum((1 + sum(a)) ** s * c * c for a, c in f.coeffs.items())
        classes = f.sobolev_classes(s)
        scale, ratios, total = classes
        assert math.exp(scale) * total == pytest.approx(direct, rel=1e-14)
        assert classes is f.sobolev_classes(s)
        assert not ratios.flags.writeable and ratios.max() == 1.0
    assert f.sobolev_classes(0.0)[:1] == (0.0,) and set(f.sobolev_classes(0.0)[1]) == {1.0}
    # the largest weight is factored out: nothing overflows where (1+|a|)^s would
    scale, ratios, total = f.sobolev_classes(400.0)
    assert math.isfinite(scale) and ratios.max() == 1.0
    assert scale == pytest.approx(400 * math.log(4), rel=1e-15) and total >= 1.0
    assert ChaosExpansion(g, {}).sobolev_classes(2.0)[::2] == (0.0, 0.0)
    # where even the log of the largest weight is not a float, nothing is returned
    with pytest.raises(OverflowError, match="overflows"):
        f.sobolev_classes(1.7e308)


def test_sobolev_norm_examples():
    g = GridSpec(1.0, 2)
    assert chaos.sobolev_norm(oracles.constant(g, 5.0), 3.0) == 5.0
    f = ChaosExpansion(g, {(2,): 1.0})
    assert chaos.sobolev_norm(f, 2.0) == pytest.approx(3.0)
    f2 = ChaosExpansion(g, {(1,): 3.0, (0, 1): 4.0})
    assert chaos.sobolev_norm(f2, 0.0) == pytest.approx(5.0)
    # 7^(s/2) overflows a float at s = 740, the norm 7^370 * 1e-10 does not
    f6 = ChaosExpansion(g, {(6,): 1e-10})
    assert chaos.sobolev_norm(f6, 740.0) == pytest.approx(
        math.exp(370 * math.log(7) - 10 * math.log(10)), rel=1e-12)
    with pytest.raises(OverflowError, match=r"the Sobolev norm overflows .* s=1000\.0 "):
        chaos.sobolev_norm(ChaosExpansion(g, {(6,): 1.0}), 1000.0)


def test_degree_classes():
    g = GridSpec(1.0, 3)
    f = ChaosExpansion(g, {(): 2.0, (1, 2): 1.0, (3,): 3.0, (0, 1, 2): -2.0, (2, 0, 1): 0.5})
    degree, last, weight = f.degree_classes
    assert degree.tolist() == [0, 3, 3, 3]
    assert last.tolist() == [0, 1, 2, 3]
    assert weight.tolist() == [4.0, 0.25, 5.0, 9.0]
    assert f.degree_classes is f.degree_classes
    empty = ChaosExpansion(g, {}).degree_classes
    assert [x.size for x in empty] == [0, 0, 0]


def test_conditional_expectation_projection():
    g = GridSpec(1.0, 2)
    f = ChaosExpansion(g, {(): 1.0, (1,): 1.0, (0, 1): 2.0})
    assert chaos.conditional_expectation(f, 2).coeffs == f.coeffs
    assert chaos.conditional_expectation(f, 0).coeffs == {(): 1.0}
    assert chaos.conditional_expectation(f, 1).coeffs == {(): 1.0, (1,): 1.0}
    proj = chaos.conditional_expectation(f, 1)
    assert chaos.conditional_expectation(proj, 1).coeffs == proj.coeffs


def test_evaluate():
    g1 = GridSpec(1.0, 1)
    assert chaos.evaluate(oracles.constant(g1, 5.0), [0.3]) == 5.0
    f = ChaosExpansion(g1, {(2,): 1.0})
    assert chaos.evaluate(f, [0.0]) == pytest.approx(-1 / math.sqrt(2))
    # W_T^2 = 1 + sqrt(2) H_2 on a single step
    fsq = ChaosExpansion(g1, {(): 1.0, (2,): math.sqrt(2)})
    assert chaos.evaluate(fsq, [1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        chaos.evaluate(fsq, [1.0, 2.0])


def test_evaluate_refused_beyond_physical_memory(monkeypatch):
    # degree 10 on 4 slots: a chunk's slots, 11-order table and two buffers
    # are 50 doubles a path, 400 bytes, and every result is 8 bytes more
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    f = ChaosExpansion(GridSpec(1.0, 4), {(): 0.5, (0, 0, 0, 10): 1.0})
    xi = np.zeros((51_201, 4))
    # below one chunk, the chunk is the batch
    assert chaos.evaluate(f, xi[:1003]).shape == (1003,)
    chunk = 400 * chaos.EVALUATE_CHUNK
    pages["SC_PHYS_PAGES"] = 500
    # a whole-batch table of 20,000 paths would not fit in 500 pages
    assert 400 * 20_000 > 500 * 4096
    assert chaos.evaluate(f, xi[:20_000]).shape == (20_000,)
    assert chaos.evaluate(f, xi[:51_200]).shape == (51_200,)
    tracemalloc.start()
    try:
        with pytest.raises(mi.PathBatchTooLarge, match=f" {8 * 51_201 + chunk} bytes"):
            chaos.evaluate(f, xi)
        pages["SC_PHYS_PAGES"] = 100
        with pytest.raises(mi.PathBatchTooLarge, match=f" {408 * 1004} bytes"):
            chaos.evaluate(f, xi[:1004])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_evaluate_counts_the_copy_of_a_batch_whose_paths_do_not_merge(monkeypatch):
    # (500, 2, 4) taken from every other row of a (1000, 2, 4) array: its two
    # leading axes cannot be one view, so reshaping it to 1000 paths copies
    # 32 bytes a path besides the 8-byte result and the 400-byte chunk
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 408 * 1000}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    f = ChaosExpansion(GridSpec(1.0, 4), {(): 0.5, (0, 0, 0, 10): 1.0})
    xi = np.random.default_rng(3).standard_normal((1000, 2, 4))[::2]
    merged = np.ascontiguousarray(xi)
    assert chaos.evaluate(f, merged).shape == (500, 2)
    # leading axes whose strides nest merge without a copy, however strided
    wide = np.zeros((500, 2, 9))[..., 1:5]
    assert chaos.evaluate(f, wide).shape == (500, 2)
    pages["SC_PHYS_PAGES"] = 440 * 1000 - 1
    with pytest.raises(mi.PathBatchTooLarge, match=f" {440 * 1000} bytes"):
        chaos.evaluate(f, xi)
    pages["SC_PHYS_PAGES"] = 440 * 1000
    assert chaos.evaluate(f, xi).tobytes() == chaos.evaluate(f, merged).tobytes()


def test_evaluate_memory_grows_only_by_the_results():
    # 200,000 paths of the N = 4, degree-4 digital: 1.6 MB of results and
    # one 4096-path chunk, 2.7 MB in all, where whole-batch tables took 45 MB
    f = mc.coeffs_terminal(mc.DigitalPayoff(0.0), GridSpec(1.0, 4), 4)
    assert len(f.coeffs) == 25
    xi = np.random.default_rng(5).standard_normal((200_000, 4))
    tracemalloc.start()
    try:
        values = chaos.evaluate(f, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (200_000,)
    assert peak < 8 * 2**20


def test_evaluate_converts_another_dtype_chunk_by_chunk():
    # a float32 batch is converted a chunk at a time, never whole: its peak
    # stays near the float64 batch's, and its values are bit-equal to those
    # of the batch converted first
    f = ChaosExpansion(GridSpec(1.0, 4), {(): 0.5, (0, 1, 0, 2): 1.0})
    single = np.random.default_rng(6).standard_normal((200_000, 4)).astype(np.float32)
    double = single.astype(float)
    peaks, values = [], []
    for xi in (double, single):
        tracemalloc.start()
        try:
            values.append(chaos.evaluate(f, xi))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]
    assert values[1].tobytes() == values[0].tobytes()


def _evaluate_per_term(f, xi):
    """Reference evaluation: path-major table, one strided slot column per factor."""
    xi = np.asarray(xi, dtype=float)
    table = hermite.eval_all(f.max_degree(), xi)
    out = np.zeros(xi.shape[:-1])
    for a, c in f.items():
        term = np.full(xi.shape[:-1], c)
        for slot, order in enumerate(a):
            if order:
                term = term * table[order][..., slot]
        out = out + term
    return float(out) if out.ndim == 0 else out


def test_evaluate_slot_major_bit_equal():
    rng = np.random.default_rng(8)
    g = GridSpec(1.0, 3)
    mixed = ChaosExpansion(
        g, {a: rng.uniform(-1, 1) for a in mi.enumerate_upto(3, 5) if rng.random() < 0.6}
    )
    # the projection's keys reach only the first slot of three
    partial = chaos.conditional_expectation(mixed, 1)
    assert max(map(len, partial.coeffs)) == 1
    for f in (oracles.constant(g, 1.25), ChaosExpansion(g, {}), mixed, partial):
        assert list(f.items()) == sorted(f.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        single = rng.standard_normal(3)
        value = chaos.evaluate(f, single)
        assert isinstance(value, float) and value == _evaluate_per_term(f, single)
        for shape in ((17, 3), (4, 6, 3)):
            xi = rng.standard_normal(shape)
            values = chaos.evaluate(f, xi)
            assert values.shape == shape[:-1]
            assert np.array_equal(values, _evaluate_per_term(f, xi))


#: increments with signed zeros and subnormals among ordinary values
_INCREMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309]),
    st.floats(-6.0, 6.0),
)


@st.composite
def _expansions(draw):
    """Expansions on 1 to 4 slots up to degree 4, the empty and the constant-only among them."""
    n = draw(st.integers(1, 4))
    keys = list(mi.enumerate_upto(n, 4))
    chosen = draw(st.one_of(st.just([]), st.just([()]),
                            st.lists(st.sampled_from(keys), unique=True, max_size=40)))
    return ChaosExpansion(GridSpec(1.0, n), {a: draw(st.floats(-2.0, 2.0)) for a in chosen})


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(f=_expansions(), shape=st.sampled_from([(), (3,), (2, 3)]), data=st.data())
def test_evaluate_bit_equal_to_reference(f, shape, data):
    size = math.prod(shape) * f.grid.N
    values = data.draw(st.lists(_INCREMENTS, min_size=size, max_size=size))
    xi = np.array(values, dtype=float).reshape(shape + (f.grid.N,))
    got = np.asarray(chaos.evaluate(f, xi))
    assert got.tobytes() == oracles.evaluate_reference(f, xi).tobytes()


def test_coefficient_recovery_by_quadrature():
    # E[F H_a] recovers c_a: tensor quadrature over a 2-slot grid
    g = GridSpec(1.0, 2)
    f = ChaosExpansion(g, {(): 0.5, (1, 2): -0.75, (2,): 1.25, (0, 3): 0.5})
    rule = hermite.gauss_hermite_rule(8)
    nodes = np.array(np.meshgrid(rule.nodes, rule.nodes)).reshape(2, -1).T
    weights = np.outer(rule.weights, rule.weights).ravel()
    values = chaos.evaluate(f, nodes)
    for a, c in f.coeffs.items():
        basis = oracles.eval_fourier_hermite(a, nodes)
        assert float(np.dot(weights, values * basis)) == pytest.approx(c, abs=1e-12)


def test_coarse_fine_gram_shape():
    g = oracles.coarse_fine_gram(2, 3)
    assert g.shape == (2, 6)
    assert np.all(np.linalg.norm(g, axis=1) <= 1.0 + 1e-12)
    assert np.all(np.linalg.norm(g, axis=0) <= 1.0 + 1e-12)
    assert g[0, 0] == pytest.approx(1 / math.sqrt(3))
    assert g[0, 3] == 0.0


def test_hs_bruteforce_examples():
    eye = np.eye(3)
    assert oracles.hs_bruteforce((1,), (1,), eye) == pytest.approx(1.0)
    gram = oracles.coarse_fine_gram(1, 2)
    assert oracles.hs_bruteforce((2,), (1, 1), gram) == pytest.approx(
        math.sqrt(2) / 2, abs=1e-12
    )
    assert oracles.hs_bruteforce((1,), (2,), eye) == 0.0
    with pytest.raises(ValueError):
        oracles.hs_bruteforce((9,), (9,), eye)


def test_pairing_combinatorial_identical_systems():
    eye = np.eye(3)
    for a in [(1,), (2, 1), (0, 0, 3)]:
        assert oracles.pairing_combinatorial(a, a, eye) == pytest.approx(1.0)
    assert oracles.pairing_combinatorial((2,), (1, 1), eye) == pytest.approx(0.0)
    assert oracles.pairing_combinatorial((1,), (2,), eye) == 0.0


def _random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def test_pairing_combinatorial_vs_bruteforce_random_rotations():
    rng = np.random.default_rng(11)
    for _ in range(5):
        q = _random_orthogonal(rng, 3)
        gram = q.T  # gram[i, j] = <e_i, h'_j> with h'_j the j-th row of q
        for m in range(1, 4):
            for a in mi.enumerate_upto(3, m):
                for a2 in mi.enumerate_upto(3, m):
                    if sum(a) != m or sum(a2) != m:
                        continue
                    expect = oracles.hs_bruteforce(a, a2, gram)
                    got = oracles.pairing_combinatorial(a, a2, gram)
                    assert got == pytest.approx(expect, abs=1e-10)


def test_pairing_vs_monte_carlo():
    rng = np.random.default_rng(5)
    q = _random_orthogonal(rng, 2)
    gram = q.T
    n = 400_000
    z = rng.standard_normal((n, 2))
    y = z @ q.T  # W(h'_j) samples
    for a, a2 in [((2,), (1, 1)), ((1, 1), (2,)), ((2, 1), (3,))]:
        ha = oracles.eval_fourier_hermite(a, z)
        ha2 = oracles.eval_fourier_hermite(a2, y)
        prod = ha * ha2
        estimate = float(np.mean(prod))
        se = float(np.std(prod, ddof=1)) / math.sqrt(n)
        exact = oracles.pairing_combinatorial(a, a2, gram)
        assert abs(estimate - exact) < 3 * se + 1e-12


def test_coarse_fine_hs_examples():
    assert oracles.coarse_fine_hs((2,), (1, 1), 1, 2) == pytest.approx(math.sqrt(2) / 2)
    assert oracles.coarse_fine_hs((2,), (2,), 1, 2) == pytest.approx(0.5)
    assert oracles.coarse_fine_hs((1, 1), (2,), 2, 2) == 0.0
    with pytest.raises(ValueError):
        oracles.coarse_fine_hs((1,), (2,), 1, 2)


def test_refine_examples_and_isometry():
    g1 = GridSpec(1.0, 1)
    const = oracles.constant(g1, 3.0)
    assert chaos.refine(const, 4).coeffs == {(): 3.0}
    f = ChaosExpansion(g1, {(2,): 1.0})
    fine = chaos.refine(f, 2)
    assert fine.coeffs[(2,)] == pytest.approx(0.5)
    assert fine.coeffs[(1, 1)] == pytest.approx(math.sqrt(2) / 2)
    assert fine.coeffs[(0, 2)] == pytest.approx(0.5)
    assert chaos.refine(f, 1).coeffs == f.coeffs
    rng = np.random.default_rng(3)
    g2 = GridSpec(2.0, 2)
    rand = ChaosExpansion(
        g2, {a: rng.uniform(-1, 1) for a in mi.enumerate_upto(2, 5)}
    )
    for n1 in (2, 3):
        refined = chaos.refine(rand, n1)
        assert chaos.sobolev_norm(refined, 0.0) == pytest.approx(
            chaos.sobolev_norm(rand, 0.0), abs=1e-12
        )
        for a_fine, c in refined.coeffs.items():
            a = oracles.coarsen(a_fine, 2, n1)
            expect = rand.coeffs[a] * oracles.coarse_fine_hs(a, a_fine, 2, n1)
            assert c == pytest.approx(expect, abs=1e-13)


def _refine_reference(f, n1):
    """The per-fine-index loop the matching tables replaced."""
    n0 = f.grid.N
    out = {}
    for a, c in f.coeffs.items():
        m = sum(a)
        scale = c * n1 ** (-m / 2.0)
        for a_fine in mi.enumerate_matching(a, n0, n1):
            out[a_fine] = out.get(a_fine, 0.0) + scale * oracles._sqrt_factorial_ratio(a, a_fine)
    return ChaosExpansion(GridSpec(f.grid.T, n0 * n1), out)


@PROPERTY
@given(st.integers(1, 3), st.integers(0, 6), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_refine_bit_equal_to_loop(n0, max_degree, n1, seed):
    rng = np.random.default_rng(seed)
    keys = [a for a in mi.enumerate_upto(n0, max_degree) if rng.random() < 0.7]
    rng.shuffle(keys)  # not graded; both outputs are, whatever the input's order
    f = ChaosExpansion(GridSpec(1.0, n0), {a: rng.uniform(-1, 1) for a in keys})
    got = chaos.refine(f, n1)
    assert list(got.coeffs.items()) == list(_refine_reference(f, n1).coeffs.items())


def test_refine_digital_bit_equal_to_loop():
    from chaosco import montecarlo as mc

    coarse = mc.coeffs_terminal(mc.DigitalPayoff(0.0), GridSpec(1.0, 4), 9)
    got = chaos.refine(coarse, 2)
    assert list(got.coeffs.items()) == list(_refine_reference(coarse, 2).coeffs.items())


def test_refine_preserves_distribution_pathwise():
    # F and refine(F) describe the same functional: compare E[F^2] via quadrature
    g1 = GridSpec(1.0, 1)
    f = ChaosExpansion(g1, {(): 1.0, (1,): 0.5, (2,): math.sqrt(2)})
    fine = chaos.refine(f, 2)
    rule = hermite.gauss_hermite_rule(10)
    nodes = np.array(np.meshgrid(rule.nodes, rule.nodes)).reshape(2, -1).T
    weights = np.outer(rule.weights, rule.weights).ravel()
    vals = chaos.evaluate(fine, nodes)
    # W_T = (xi_1 + xi_2)/sqrt(2) on the fine grid
    coarse_vals = chaos.evaluate(f, ((nodes[:, 0] + nodes[:, 1]) / math.sqrt(2))[:, None])
    assert float(np.dot(weights, (vals - coarse_vals) ** 2)) < 1e-24


def test_csv_round_trip():
    g = GridSpec(1.0, 3)
    f = ChaosExpansion(
        g, {(): 0.1, (1, 0, 2): -1.2345678901234567, (3,): 1e-7}
    )
    buf = io.StringIO()
    chaos.write_expansion_csv(f, buf, header_lines=["T=1.0", "N=3"])
    text = buf.getvalue()
    assert text.startswith("# T=1.0\n# N=3\n")
    back = oracles.read_expansion_csv(io.StringIO(text), g)
    assert back.coeffs == f.coeffs
    # byte-identical re-serialization
    buf2 = io.StringIO()
    chaos.write_expansion_csv(back, buf2, header_lines=["T=1.0", "N=3"])
    assert buf2.getvalue() == text


def test_refine_refused_before_allocating(monkeypatch):
    f = ChaosExpansion(GridSpec(1.0, 4), {(12, 12, 12, 12): 1.0})
    tracemalloc.start()
    try:
        with pytest.raises(mi.IndexSetTooLarge, match="indexes on 256 slots needs"):
            chaos.refine(f, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # every coarse key's matching table fits, the whole fine expansion does not
    g = ChaosExpansion(GridSpec(1.0, 2), {(0, 2): 1.0, (2,): 0.5, (2, 2): 0.25})
    assert len(chaos.refine(g, 2).coeffs) == 15
    monkeypatch.setattr(mi, "MAX_TABLE_BYTES", 15 * 4 - 1)
    with pytest.raises(mi.IndexSetTooLarge, match="15 indexes"):
        chaos.refine(g, 2)


@PROPERTY
@given(st.integers(1, 3), st.integers(0, 5), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_refine_isometry_at_sobolev_zero(n0, max_degree, n1, seed):
    rng = np.random.default_rng(seed)
    f = ChaosExpansion(GridSpec(1.0, n0),
                       {a: rng.uniform(-1, 1) for a in mi.enumerate_upto(n0, max_degree)})
    assert chaos.sobolev_norm(chaos.refine(f, n1), 0.0) == pytest.approx(
        chaos.sobolev_norm(f, 0.0), rel=1e-13, abs=0.0)


def _sorted_items(f):
    """The graded sort every expansion's items() used to go through."""
    return tuple(sorted(f.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])))


@PROPERTY
@given(st.integers(1, 4), st.integers(0, 5), st.booleans(), st.integers(0, 2**32 - 1))
def test_graded_items_equal_sorted_route(n, max_degree, shuffle, seed):
    rng = np.random.default_rng(seed)
    keys = [a for a in mi.enumerate_upto(n, max_degree) if rng.random() < 0.7]
    if shuffle:
        rng.shuffle(keys)
    f = ChaosExpansion(GridSpec(1.0, n), {a: rng.uniform(-1, 1) for a in keys})
    assert f.items() == _sorted_items(f)
    # refine sorts each coarse degree's fine keys
    fine = chaos.refine(f, 2)
    assert fine.items() == _sorted_items(fine)


@PROPERTY
@given(st.integers(1, 3), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_every_construction_path_holds_graded_order(n, max_degree, seed):
    rng = np.random.default_rng(seed)
    grid = GridSpec(1.0, n)
    f = cli._random_expansion(np.random.Generator(np.random.Philox(key=seed)), grid, max_degree)
    keys = [a for a in f.coeffs if rng.random() < 0.8]
    rng.shuffle(keys)
    shuffled = ChaosExpansion(grid, {a: rng.uniform(-1, 1) for a in keys})
    d = co.decompose(shuffled)
    built = [
        f,
        shuffled,
        mc.coeffs_terminal(mc.DigitalPayoff(0.0), grid, max_degree),
        mc.coeffs_terminal(mc.PolynomialPayoff((0.5, -1.0, 0.0, 2.0)), grid, max_degree),
        mc.coeffs_occupation_time(grid, max_degree),
        *(chaos.refine(shuffled, n1) for n1 in (1, 2, 3)),
        co.err_tail(shuffled, 1),
        *(chaos.conditional_expectation(shuffled, ell) for ell in range(n + 1)),
        *(term.integrand for term in d.terms),
        co.reconstruct(d),
    ]
    for g in built:
        # held in graded order, as items() returns it
        assert tuple(g.coeffs.items()) == g.items() == _sorted_items(g)
        assert g.max_degree() == max(map(sum, g.coeffs), default=0)


def _write_expansion_csv_reference(f, header_lines):
    """The csv.writer rendering the bulk writer must reproduce byte for byte."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["multiindex", "coefficient"])
    writer.writerows((oracles.format_canonical(a), format(c, ".17g")) for a, c in _sorted_items(f))
    return buf.getvalue()


def test_write_expansion_csv_matches_csv_writer():
    rng = np.random.default_rng(5)
    keys = [(), (1,), (0, 3), (130,), (0, 0, 255), (1, 128, 0, 4000), (2, 1), (1, 0, 1)]
    rng.shuffle(keys)  # insertion order is not graded; the output is
    f = ChaosExpansion(GridSpec(1.0, 4), {a: rng.uniform(-1, 1) for a in keys})
    # values that construction prunes or refuses, such as -0.0 and nan, must format alike
    odd = dict(f.coeffs)
    odd.update({(1,): math.nan, (0, 3): math.inf, (2, 1): -math.inf, (130,): -0.0,
                (): 1e-300, (1, 0, 1): -1.2345678901234567e-10})
    object.__setattr__(f, "coeffs", odd)
    for header in ([], ["T=1.0", "label=poly:0,0,1"]):
        buf = io.StringIO()
        chaos.write_expansion_csv(f, buf, header)
        assert buf.getvalue() == _write_expansion_csv_reference(f, header)
    empty = ChaosExpansion(GridSpec(1.0, 2), {})
    buf = io.StringIO()
    chaos.write_expansion_csv(empty, buf)
    assert buf.getvalue() == _write_expansion_csv_reference(empty, []) == "multiindex,coefficient\n"


def test_csv_field_template_matches_csv_writer():
    keys = [(), (3,), (200,), (1, 2), (0, 0, 7), (128, 0, 1000, 5)]
    for a in keys:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([oracles.format_canonical(a), "x"])
        assert chaos.csv_field_template(len(a)) % a + ",x\n" == buf.getvalue()


def test_sobolev_classes_remembered_per_s():
    f = ChaosExpansion(GridSpec(1.0, 2), {(1,): 2.0, (0, 2): 1.0})
    first = f.sobolev_classes(1.5)
    assert f.sobolev_classes(1.5) is first
    assert f.sobolev_classes(2.5) is not first and f.sobolev_classes(2.5)[0] != first[0]
    assert f.sobolev_classes(1.5) is first
