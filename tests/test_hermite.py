import math
import os

import numpy as np
import pytest

from chaosco import hermite
from chaosco import multiindex as mi

import oracles


def _logistic(z):
    """1 / (1 + exp(-z)), without overflow for large |z|."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def test_low_orders_closed_forms():
    assert oracles.eval_normalized(0, 3.7) == 1.0
    assert oracles.eval_normalized(1, 1.5) == pytest.approx(1.5, abs=1e-15)
    assert oracles.eval_normalized(2, 0.0) == pytest.approx(-1 / math.sqrt(2), abs=1e-15)
    xs = np.linspace(-10, 10, 41)
    h2 = oracles.eval_normalized(2, xs)
    h3 = oracles.eval_normalized(3, xs)
    assert np.max(np.abs(h2 - (xs**2 - 1) / math.sqrt(2))) < 1e-13 * np.max(np.abs(h2))
    assert np.max(np.abs(h3 - (xs**3 - 3 * xs) / math.sqrt(6))) < 1e-12


def test_eval_all_consistent():
    xs = np.linspace(-4, 4, 17)
    table = hermite.eval_all(8, xs)
    for m in range(9):
        assert np.allclose(table[m], oracles.eval_normalized(m, xs), atol=1e-13)


def test_eval_normalized_is_row_of_eval_all():
    xs = np.array([0.0, -0.0, 0.3, -1.7, 4.2, 11.0, -25.0, 1e-300])
    for m in (0, 1, 2, 5, 40, 200):
        assert oracles.eval_normalized(m, xs).tobytes() == hermite.eval_all(m, xs)[m].tobytes()
        for x in (0.0, -0.0, 2.5, -7.25):
            got = oracles.eval_normalized(m, x)
            assert type(got) is float
            assert np.float64(got).tobytes() == hermite.eval_all(m, x)[m].tobytes()
    grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert oracles.eval_normalized(7, grid).tobytes() == hermite.eval_all(7, grid)[7].tobytes()
    with pytest.raises(ValueError):
        oracles.eval_normalized(-1, 0.5)


def test_gauss_rule_refused_beyond_physical_memory(monkeypatch):
    # 100 pages of 4096 bytes: three 130 x 130 matrices of doubles fit, 131 do not
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert hermite.gauss_hermite_rule(130).nodes.size == 130
    with pytest.raises(mi.PathBatchTooLarge, match=f"order-131 .* {3 * 131 * 131 * 8} bytes"):
        hermite.gauss_hermite_rule(131)


def test_fourier_hermite_products():
    assert oracles.eval_fourier_hermite((), [1.0, 2.0]) == 1.0
    assert oracles.eval_fourier_hermite((1, 1), [2.0, 0.5]) == pytest.approx(1.0)
    assert oracles.eval_fourier_hermite((2,), [0.0]) == pytest.approx(-1 / math.sqrt(2))
    with pytest.raises(ValueError):
        oracles.eval_fourier_hermite((1, 1), [2.0])


def test_quadrature_small_rules():
    # exact, not close: the Monte Carlo hedge of W_T^2 uses these rules and
    # its output is compared byte for byte
    r1 = hermite.gauss_hermite_rule(1)
    assert r1.nodes.tolist() == [0.0] and r1.weights.tolist() == [1.0]
    r2 = hermite.gauss_hermite_rule(2)
    assert r2.nodes.tolist() == [-1.0, 1.0] and r2.weights.tolist() == [0.5, 0.5]
    assert oracles.integrate(r2, lambda x: x**2) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        hermite.gauss_hermite_rule(0)


@pytest.mark.parametrize("q", [3, 10, 30, 60, 100, 150])
def test_quadrature_gram_of_all_exact_orders(q):
    # orders <= q-1 pair to degree <= 2q-2, inside the rule's exactness
    rule = hermite.gauss_hermite_rule(q)
    table = hermite.eval_all(q - 1, rule.nodes)
    gram = table @ (table * rule.weights).T
    assert np.max(np.abs(gram - np.eye(q))) < 1e-14


@pytest.mark.parametrize("q", [2, 3, 4, 15, 16, 99, 400])
def test_quadrature_exact_symmetry(q):
    rule = hermite.gauss_hermite_rule(q)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])


def test_quadrature_high_order_weights_finite():
    rule = hermite.gauss_hermite_rule(400)
    assert np.all(np.isfinite(rule.nodes)) and np.all(np.diff(rule.nodes) > 0)
    assert np.all(np.isfinite(rule.weights)) and np.all(rule.weights >= 0.0)
    assert abs(math.fsum(rule.weights) - 1.0) < 1e-14


def test_quadrature_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for q in (1, 2, 3, 5, 8, 20, 41, 64, 100, 150):
        rule = hermite.gauss_hermite_rule(q)
        nodes, weights = special.roots_hermitenorm(q)
        weights = weights / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(rule.nodes - nodes)) < 1e-13
        assert np.max(np.abs(rule.weights / weights - 1.0)) < 1e-11


def test_quadrature_properties():
    for q in (3, 7, 16):
        rule = hermite.gauss_hermite_rule(q)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert abs(np.sum(rule.weights) - 1.0) < 1e-14
        # odd-degree moment at the exactness edge
        assert abs(oracles.integrate(rule, lambda x: x ** (2 * q - 1))) < 1e-10


def test_quadrature_normal_moments():
    rule = hermite.gauss_hermite_rule(10)
    # E[Z^{2k}] = (2k-1)!!
    for k, expect in [(1, 1.0), (2, 3.0), (3, 15.0), (4, 105.0)]:
        assert oracles.integrate(rule, lambda x: x ** (2 * k)) == pytest.approx(expect, rel=1e-13)


def test_orthonormality_via_quadrature():
    rule = hermite.gauss_hermite_rule(20)
    table = hermite.eval_all(10, rule.nodes)
    gram = table @ (table * rule.weights).T
    assert np.max(np.abs(gram - np.eye(11))) < 1e-12


def test_normal_pdf_in_place_bit_equal():
    # against the plain formula on finite inputs whose square does not
    # overflow: +-0, subnormals, and tails underflowing to subnormals and to 0
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -2.5e-308, 0.3, -1.5, 37.7, -40.0, 1e150])
    x = np.concatenate([x, np.linspace(0.5, 40.0, 1001), -np.linspace(0.5, 40.0, 77)])
    want = np.exp(-x**2 / 2) / math.sqrt(2 * math.pi)
    assert hermite.normal_pdf(x).tobytes() == want.tobytes()
    assert [hermite.normal_pdf(v) for v in x.tolist()] == want.tolist()
    z = x.copy()
    assert hermite.normal_pdf(z, out=z) is z
    assert z.tobytes() == want.tobytes()
    assert 0.0 in want and ((want > 0) & (want < 2.3e-308)).any()


def test_indicator_integral_examples():
    assert hermite.hermite_indicator_integral(0, 0.0) == pytest.approx(0.5)
    assert hermite.hermite_indicator_integral(1, 0.0) == pytest.approx(
        1 / math.sqrt(2 * math.pi)
    )
    assert hermite.hermite_indicator_integral(2, 0.0) == pytest.approx(0.0, abs=1e-16)


def test_indicator_integral_limits():
    for m in range(6):
        assert abs(hermite.hermite_indicator_integral(m, 40.0)) < 1e-300
        expect = 1.0 if m == 0 else 0.0
        assert hermite.hermite_indicator_integral(m, -12.0) == pytest.approx(
            expect, abs=1e-12
        )


def test_indicator_integral_against_mollified_quadrature():
    # smooth ramp approximation of the step, integrated by quadrature,
    # approaches the closed form as the ramp sharpens
    rule = hermite.gauss_hermite_rule(400)
    k_threshold = 0.3
    for m in range(5):
        closed = hermite.hermite_indicator_integral(m, k_threshold)
        for width, tol in [(0.1, 0.05), (0.02, 0.01)]:
            smooth = oracles.integrate(
                rule,
                lambda x: oracles.eval_normalized(m, x)
                * _logistic((x - k_threshold) / width)
            )
            assert abs(smooth - closed) < tol
