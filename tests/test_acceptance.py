"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion exercises a documented guarantee end to end at its stated
tolerance.  The print lines give a single-glance summary when run with -s.
"""

import math
import time

import numpy as np

from chaosco import cli, clark_ocone as co, hermite
from chaosco import montecarlo as mc
from chaosco import multiindex as mi
from chaosco.chaos import ChaosExpansion, GridSpec

import oracles


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{status}]: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def _tensor_rule(dim, order):
    rule = hermite.gauss_hermite_rule(order)
    grids = np.meshgrid(*([rule.nodes] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    w = rule.weights
    for _ in range(dim - 1):
        w = np.multiply.outer(w, rule.weights)
    return nodes, w.ravel()


def _degree_indexes(dim, degree):
    return [a for a in mi.enumerate_upto(dim, degree) if sum(a) == degree]


def test_criterion_01_hermite_orthonormality():
    start = time.time()
    rule = hermite.gauss_hermite_rule(30)
    table = hermite.eval_all(12, rule.nodes)
    gram = table @ (table * rule.weights).T
    err = float(np.max(np.abs(gram - np.eye(13))))
    elapsed = time.time() - start
    _report(
        1,
        "orthonormal Hermite gram (orders <= 12, order-30 rule)",
        err < 1e-12 and elapsed < 1.0,
        f"max dev {err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_pairing_oracle_equivalence():
    start = time.time()
    worst_pair = 0.0
    worst_quad = 0.0
    # coarse/fine bases, N0 <= 2, N1 <= 3
    for n0, n1 in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        dim = n0 * n1
        gram = oracles.coarse_fine_gram(n0, n1)
        nodes, weights = _tensor_rule(dim, 6)
        coarse = nodes.reshape(-1, n0, n1).sum(axis=2) / math.sqrt(n1)
        for degree in range(1, 5):
            for a in _degree_indexes(n0, degree):
                ha = oracles.eval_fourier_hermite(a, coarse)
                for a2 in _degree_indexes(dim, degree):
                    bf = oracles.hs_bruteforce(a, a2, gram)
                    pc = oracles.pairing_combinatorial(a, a2, gram)
                    worst_pair = max(worst_pair, abs(pc - bf))
                    quad = float(
                        np.dot(weights, ha * oracles.eval_fourier_hermite(a2, nodes))
                    )
                    worst_quad = max(worst_quad, abs(quad - pc))
    # 20 random rotation gram matrices
    rng = np.random.default_rng(12345)
    nodes, weights = _tensor_rule(2, 8)
    for _ in range(20):
        q, r = np.linalg.qr(rng.standard_normal((2, 2)))
        q = q * np.sign(np.diag(r))
        gram = q.T  # gram[i, j] = <e_i, row j of q>
        rotated = nodes @ q.T
        for degree in range(1, 5):
            for a in _degree_indexes(2, degree):
                ha = oracles.eval_fourier_hermite(a, nodes)
                for a2 in _degree_indexes(2, degree):
                    bf = oracles.hs_bruteforce(a, a2, gram)
                    pc = oracles.pairing_combinatorial(a, a2, gram)
                    worst_pair = max(worst_pair, abs(pc - bf))
                    quad = float(
                        np.dot(
                            weights, ha * oracles.eval_fourier_hermite(a2, rotated)
                        )
                    )
                    worst_quad = max(worst_quad, abs(quad - pc))
    elapsed = time.time() - start
    _report(
        2,
        "pairing oracles agree (combinatorial = brute force = quadrature)",
        worst_pair < 1e-10 and worst_quad < 1e-8 and elapsed < 30.0,
        f"pair dev {worst_pair:.2e}, quad dev {worst_quad:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_coarse_fine_closed_form():
    worst = 0.0
    nonmatch_exact = True
    for n0, n1 in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        dim = n0 * n1
        gram = oracles.coarse_fine_gram(n0, n1)
        for degree in range(1, 5):
            for a in _degree_indexes(n0, degree):
                for a2 in _degree_indexes(dim, degree):
                    closed = oracles.coarse_fine_hs(a, a2, n0, n1)
                    brute = oracles.hs_bruteforce(a, a2, gram)
                    worst = max(worst, abs(closed - brute))
                    if not oracles.matches(a2, a, n0, n1):
                        nonmatch_exact = nonmatch_exact and closed == 0.0
    _report(
        3,
        "coarse/fine pairing closed form vs brute force (m <= 4, N1 <= 3)",
        worst < 1e-12 and nonmatch_exact,
        f"max dev {worst:.2e}",
    )


def test_criterion_04_partition_and_tail_bound():
    worst = 0.0
    bound_ok = True
    for n0 in (1, 2):
        for n1 in (1, 2, 3, 4):
            for a in mi.enumerate_upto(n0, 6):
                if not a:
                    continue
                total = sum(
                    oracles.factorial(a) / oracles.factorial(af) / n1 ** oracles.length(a)
                    for af in mi.enumerate_matching(a, n0, n1)
                )
                worst = max(worst, abs(total - 1.0))
                for n in range(1, 7):
                    mass = co.tail_mass(a, n, n1)
                    for r in (0.0, 0.25, 0.5, 0.75, 1.0):
                        if mass > oracles.tail_mass_bound(a, n, n1, r) * (1 + 1e-12):
                            bound_ok = False
    _report(
        4,
        "refinement mass partition of unity and interpolated tail bound",
        worst < 1e-12 and bound_ok,
        f"partition dev {worst:.2e}",
    )


def test_criterion_05_tail_mass_closed_form():
    worst = 0.0
    for n0 in (1, 2):
        for n1 in (1, 2, 3, 4):
            for a in mi.enumerate_upto(n0, 6):
                if not a:
                    continue
                for n in range(1, 7):
                    brute = sum(
                        oracles.factorial(a) / oracles.factorial(af) / n1 ** oracles.length(a)
                        for af in mi.enumerate_matching(a, n0, n1)
                        if af and af[-1] > n
                    )
                    worst = max(worst, abs(co.tail_mass(a, n, n1) - brute))
    _report(
        5,
        "tail-mass closed form vs matching-set enumeration (|a| <= 6, N1 <= 4)",
        worst < 1e-12,
        f"max dev {worst:.2e}",
    )


def test_criterion_06_error_bound_and_rate():
    start = time.time()
    rng = np.random.default_rng(777)
    all_hold = True
    min_slack = math.inf
    for case in range(100):
        n0 = 1 + case % 3
        f = ChaosExpansion(
            GridSpec(1.0, n0),
            {a: rng.uniform(-1.0, 1.0) for a in mi.enumerate_upto(n0, 6)},
        )
        for n in (1, 2, 3):
            for n1 in (1, 2, 4, 8):
                for s in (-1.0, 0.0, 1.0):
                    for r in (0.0, 0.5, 1.0):
                        check = co.verify_bound(f, n, n1, s, r)
                        all_hold = all_hold and check.holds
                        min_slack = min(min_slack, check.slack)
    slopes_ok = True
    slope_detail = []
    n1_list = [4, 8, 16, 32, 64, 128, 256]
    for m in (3, 4, 5):
        f = ChaosExpansion(GridSpec(1.0, 1), {(m,): 1.0})
        for n in range(1, m):
            errs = [co.err_norm_refined(f, n, n1, 0.0) for n1 in n1_list]
            slope, _ = co.fit_loglog_slope(n1_list, errs)
            if abs(slope - (-n / 2.0)) > 0.1:
                slopes_ok = False
                slope_detail.append(f"m={m},n={n}:{slope:.3f}")
    elapsed = time.time() - start
    _report(
        6,
        "refinement error bound holds on 10800 randomized cases with rate -n/2",
        all_hold and slopes_ok and elapsed < 60.0,
        f"min slack {min_slack:.2e}, {elapsed:.1f}s"
        + ("; bad slopes " + ",".join(slope_detail) if slope_detail else ""),
    )


def test_criterion_07_decompose_reconstruct_identity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for case in range(1000):
        n0 = 1 + case % 3
        f = ChaosExpansion(
            GridSpec(1.0, n0),
            {a: rng.uniform(-1.0, 1.0) for a in mi.enumerate_upto(n0, 4)},
        )
        back = co.reconstruct(co.decompose(f))
        assert set(back.coeffs) == set(f.coeffs)
        for a, c in f.coeffs.items():
            worst = max(worst, abs(back.coeffs[a] - c))
    _report(
        7,
        "decompose/reconstruct identity on 1000 random expansions",
        worst <= 1e-14,
        f"max dev {worst:.2e}",
    )


def test_criterion_08_quadratic_tracking_error():
    grid = GridSpec(1.0, 4)
    batch = mc.sample_paths(grid, 100_000, seed=20240824)
    est = mc.tracking_error_hedge(mc.PolynomialPayoff((0.0, 0.0, 1.0)), grid, batch)
    target = math.sqrt(2) / 2
    dev = abs(est.estimate - target)
    _report(
        8,
        "quadratic payoff tracking error sqrt(2)/2 within 3 SE at 1e5 paths",
        dev < 3 * est.std_error,
        f"estimate {est.estimate:.5f}, SE {est.std_error:.2e}",
    )


def test_criterion_09_digital_rate_band():
    start = time.time()
    n1_list = [4, 8, 16, 32, 64, 128, 256]
    f = mc.coeffs_terminal(mc.DigitalPayoff(0.0), GridSpec(1.0, 1), 20)
    slope, _ = co.fit_loglog_slope(n1_list, [co.err_norm_refined(f, 1, n1, 0.0) for n1 in n1_list])
    elapsed = time.time() - start
    _report(
        9,
        "digital payoff first-order rate slope in [-0.35, -0.15] at degree 20",
        -0.35 <= slope <= -0.15 and elapsed < 60.0,
        f"slope {slope:.4f}, {elapsed:.1f}s",
    )


def test_criterion_10_occupation_rate_band():
    n_list = [4, 8, 16, 32, 64]
    errs = [mc.occupation_error_norm(GridSpec(1.0, n), 1, 20) for n in n_list]
    slope, _ = co.fit_loglog_slope(n_list, errs)
    _report(
        10,
        "occupation-time first-order rate slope in [-0.65, -0.35]",
        -0.65 <= slope <= -0.35,
        f"slope {slope:.4f}",
    )


def test_criterion_11_perfect_control_variate():
    grid = GridSpec(1.0, 4)
    batch = mc.sample_paths(grid, 10_000, seed=5150)
    w_t = batch.brownian_paths()[:, -1]
    worst = 0.0
    for coeffs in [(0.0, 1.0), (1.0, 0.0, 0.5), (0.0, 2.0, 0.0, -1.0),
                   (1.0, 0.0, 0.0, 0.0, 0.25)]:
        payoff = mc.PolynomialPayoff(coeffs)
        f = mc.coeffs_terminal(payoff, grid, payoff.degree)
        d = co.decompose(f)
        residual = payoff(w_t) - co.evaluate_decomposition(d, batch.increments)
        worst = max(worst, float(np.var(residual)))
    _report(
        11,
        "full decomposition is a perfect control variate for polynomials",
        worst < 1e-12,
        f"max residual variance {worst:.2e}",
    )


def test_criterion_12_cli_determinism(tmp_path):
    out = tmp_path / "sweep.csv"
    args = [
        "rate-sweep",
        "--payoff",
        "digital:0",
        "--max-degree",
        "8",
        "--N1-list",
        "4,8,16",
        "--out",
        str(out),
    ]
    assert cli.main(args) == cli.EXIT_OK
    first = out.read_bytes()
    assert cli.main(args) == cli.EXIT_OK
    rerun_identical = out.read_bytes() == first

    hedge = [
        "simulate-hedge",
        "--payoff",
        "poly:0,0,1",
        "--N-list",
        "4,8",
        "--samples",
        "10000",
        "--seed",
        "1",
    ]
    out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    assert cli.main(hedge + ["--workers", "1", "--out", str(out1)]) == cli.EXIT_OK
    assert cli.main(hedge + ["--workers", "4", "--out", str(out4)]) == cli.EXIT_OK
    workers_identical = out1.read_bytes() == out4.read_bytes()
    _report(
        12,
        "CLI outputs byte-identical across reruns and worker counts {1, 4}",
        rerun_identical and workers_identical,
    )
