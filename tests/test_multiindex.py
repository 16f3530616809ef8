import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaosco import multiindex as mi

import oracles

#: small, deterministic property runs
PROPERTY = settings(max_examples=60, derandomize=True, deadline=None, database=None)


def _compositions(total, parts):
    """Reference: the stars-and-bars generator the composition tables replaced."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cut:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def _enumerate_upto_reference(dimension, max_degree):
    for deg in range(max_degree + 1):
        yield from sorted(mi.canonical(c) for c in _compositions(deg, dimension))


def _enumerate_matching_reference(a_coarse, n0, n1):
    padded = a_coarse + (0,) * (n0 - len(a_coarse))
    for blocks in itertools.product(*[_compositions(ai, n1) for ai in padded]):
        yield mi.canonical(itertools.chain.from_iterable(blocks))


def test_canonical_trims_trailing_zeros():
    assert mi.canonical((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert mi.canonical(()) == ()
    assert mi.canonical((0, 0)) == ()


def test_canonical_idempotent():
    for a in [(1, 0, 2, 0), (0,), (3, 1), ()]:
        assert mi.canonical(mi.canonical(a)) == mi.canonical(a)


def test_canonical_rejects_negative():
    with pytest.raises(ValueError):
        mi.canonical((1, -1))


def test_length():
    assert oracles.length(()) == 0
    assert oracles.length((2, 0, 3)) == 5
    assert oracles.length((0, 1)) == 1


def test_factorial():
    assert oracles.factorial(()) == 1
    assert oracles.factorial((2, 0, 3)) == 12
    assert oracles.factorial((1, 1, 1)) == 1


def test_log_factorial_matches_exact():
    for a in [(2, 0, 3), (5, 4), (10, 10, 10)]:
        assert mi.log_factorial(a) == pytest.approx(math.log(oracles.factorial(a)), rel=1e-13)


def test_last_nonzero():
    assert oracles.last_nonzero(()) is None
    assert oracles.last_nonzero((2, 0, 3)) == (3, 3)
    assert oracles.last_nonzero((0, 1)) == (2, 1)


def test_coarsen_block_sums():
    assert oracles.coarsen((1, 0, 2, 1), 2, 2) == (1, 3)
    assert oracles.coarsen((), 3, 2) == ()
    assert oracles.coarsen((0, 0, 0, 5), 2, 2) == (0, 5)


def test_coarsen_rejects_overlong_index():
    with pytest.raises(ValueError):
        oracles.coarsen((1, 0, 0, 0, 1), 2, 2)


def test_matches():
    assert oracles.matches((2, 0, 1), (2, 1), 2, 2)
    assert not oracles.matches((1, 0, 1, 1), (2, 1), 2, 2)
    assert oracles.matches((), (), 2, 2)


def test_enumerate_matching_examples():
    assert set(mi.enumerate_matching((1,), 1, 2)) == {(1,), (0, 1)}
    assert set(mi.enumerate_matching((2,), 1, 2)) == {(2,), (1, 1), (0, 2)}
    got = set(mi.enumerate_matching((1, 1), 2, 2))
    assert got == {(1, 0, 1), (1, 0, 0, 1), (0, 1, 1), (0, 1, 0, 1)}


def test_enumerate_matching_count_and_consistency():
    for a in [(2, 1), (3,), (0, 2)]:
        for n1 in (2, 3):
            fine = list(mi.enumerate_matching(a, 2, n1))
            expected = 1
            padded = a + (0,) * (2 - len(a))
            for ai in padded:
                expected *= math.comb(ai + n1 - 1, n1 - 1)
            assert len(fine) == len(set(fine)) == expected
            for af in fine:
                assert oracles.matches(af, a, 2, n1)
                assert oracles.coarsen(af, 2, n1) == mi.canonical(a)
                assert oracles.length(af) == oracles.length(a)


def test_matching_sets_partition_fine_indexes():
    n0, n1, deg = 2, 2, 3
    union = set()
    for a in mi.enumerate_upto(n0, deg):
        fine = set(mi.enumerate_matching(a, n0, n1))
        assert not (union & fine)
        union |= fine
    assert union == set(mi.enumerate_upto(n0 * n1, deg))


def test_enumerate_upto():
    assert list(mi.enumerate_upto(1, 2)) == [(), (1,), (2,)]
    assert set(mi.enumerate_upto(2, 1)) == {(), (1,), (0, 1)}
    assert len(list(mi.enumerate_upto(2, 2))) == 6
    degs = [oracles.length(a) for a in mi.enumerate_upto(3, 4)]
    assert degs == sorted(degs)


def test_text_round_trip():
    for a in [(), (1,), (2, 0, 3)]:
        assert oracles.parse_multiindex(oracles.format_multiindex(a)) == a
    assert oracles.format_multiindex(()) == "()"
    assert oracles.parse_multiindex("") == ()


@PROPERTY
@given(st.integers(0, 9), st.integers(0, 6))
def test_composition_table_matches_reference(total, parts):
    table = mi.composition_table(total, parts)
    assert table.tolist() == [list(c) for c in _compositions(total, parts)]
    assert table.shape == (len(table), parts)
    assert table.dtype == np.int8
    assert not table.flags.writeable
    assert mi.composition_table(total, parts) is table


def test_composition_table_wide_entries():
    assert mi.composition_table(300, 1).tolist() == [[300]]
    assert mi.composition_table(300, 1).dtype == np.int16
    table = mi.composition_table(130, 2)
    assert table.dtype == np.int16
    assert table.tolist() == [[f, 130 - f] for f in range(131)]
    # more parts than the recursion limit allows frames: built bottom-up
    table = mi.composition_table(1, 1500)
    assert np.array_equal(table, np.eye(1500, dtype=np.int8)[::-1])


@PROPERTY
@given(st.integers(0, 5), st.integers(0, 7))
def test_enumerate_upto_matches_reference(dimension, max_degree):
    got = list(mi.enumerate_upto(dimension, max_degree))
    assert got == list(_enumerate_upto_reference(dimension, max_degree))
    assert all(type(x) is int for a in got for x in a)


@PROPERTY
@given(st.lists(st.integers(0, 4), max_size=3), st.integers(0, 2), st.integers(1, 3))
def test_enumerate_matching_matches_reference(entries, extra_slots, n1):
    a = mi.canonical(entries)
    n0 = len(entries) + extra_slots
    got = list(mi.enumerate_matching(a, n0, n1))
    assert got == list(_enumerate_matching_reference(a, n0, n1))
    table = mi.matching_table(a, n0, n1)
    assert table.shape == (len(got), n0 * n1)
    assert mi.row_lengths(table).tolist() == [len(af) for af in got]


def test_log_factorial_rows_bit_equal():
    log_factorials = mi.log_factorial_table(9)
    for total, parts in [(0, 3), (5, 1), (9, 4), (7, 6)]:
        table = mi.composition_table(total, parts)
        rows = mi.log_factorial_rows(table, log_factorials)
        assert rows.tolist() == [mi.log_factorial(mi.canonical(r)) for r in table.tolist()]


def test_index_set_size_guard():
    # C(76, 12) indexes on 64 slots: refused before the first row is built
    stream = mi.enumerate_upto(64, 12)
    with pytest.raises(mi.IndexSetTooLarge, match="bytes"):
        next(stream)
    with pytest.raises(mi.IndexSetTooLarge):
        mi.composition_table(12, 64)
    with pytest.raises(mi.IndexSetTooLarge):
        mi.matching_table((12, 12, 12), 3, 64)
    with pytest.raises(ValueError):
        mi.composition_table(-1, 2)


def test_check_refinement_size(monkeypatch):
    # one coarse key whose matching set alone is far beyond the limit
    rows = math.comb(12 + 63, 63) ** 4
    with pytest.raises(mi.IndexSetTooLarge, match=f"{rows} indexes on 256 slots"):
        mi.check_refinement_size([(12, 12, 12, 12)], 4, 64)
    # keys that each fit, but not together: 3 + 3 + 9 rows of 4 int8 slots
    keys = [(0, 2), (2,), (2, 2)]
    mi.check_refinement_size(keys, 2, 2)
    monkeypatch.setattr(mi, "MAX_TABLE_BYTES", 15 * 4 - 1)
    for a in keys:
        mi.check_refinement_size([a], 2, 2)
    with pytest.raises(mi.IndexSetTooLarge, match="15 indexes on 4 slots needs 60 bytes"):
        mi.check_refinement_size(keys, 2, 2)
