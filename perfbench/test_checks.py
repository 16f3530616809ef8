"""Tests of the benchmark's own checks and bookkeeping.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import lzma
import subprocess
import sys

import pytest

import checks
import run
from workloads import DEFAULT_SEED, WORKLOADS

OPS = {op.name: op for ops in WORKLOADS.values() for op in ops}


def ref_text(name: str) -> str:
    with lzma.open(checks.REFS / f"{name}.csv.xz", "rt", encoding="utf-8") as fh:
        return fh.read()


def replace_cell(text: str, row: int, column: str, value) -> str:
    """``text`` with one CSV cell replaced; ``value`` maps the old cell to the new."""
    table = checks.parse(text)
    old = table.rows[row][table.header.index(column)]
    lines = text.split("\n")
    first = len(table.comments) + 1 + row
    assert old in lines[first]
    lines[first] = lines[first].replace(old, value(old))
    return "\n".join(lines)


def scale(factor: float):
    return lambda cell: repr(float(cell) * factor)


@pytest.mark.parametrize("name", sorted(n for n, op in OPS.items() if op.ref))
def test_reference_outputs_pass_at_default_seed(name):
    op = OPS[name]
    assert checks.check(op, ref_text(op.ref), DEFAULT_SEED, {}) == []


def test_perturbed_coefficient_is_flagged():
    op = OPS["expand-digital"]
    text = ref_text("expand-digital")
    assert checks.check(op, replace_cell(text, 3000, "coefficient", scale(1 + 1e-14)),
                        DEFAULT_SEED, {}) == []
    problems = checks.check(op, replace_cell(text, 3000, "coefficient", scale(1 + 1e-10)),
                            DEFAULT_SEED, {})
    assert problems and "row 3001" in problems[0]


def test_dropped_row_and_changed_echo_are_flagged():
    op = OPS["decompose-occupation"]
    text = ref_text("decompose-occupation")
    assert checks.check(op, text.rsplit("\n", 2)[0] + "\n", DEFAULT_SEED, {})
    assert checks.check(op, text.replace("# N0=6", "# N0=7"), DEFAULT_SEED, {})
    assert checks.check(op, text.replace("# mean=", "# mean=1"), DEFAULT_SEED, {})
    # an added comment line is not a difference
    assert checks.check(op, "# method=exact\n" + text, DEFAULT_SEED, {}) == []


def test_failed_bound_is_flagged_at_every_seed():
    op = OPS["verify-digital"]
    text = replace_cell(ref_text("verify-digital"), 5, "holds", lambda _: "false")
    assert checks.check(op, text, DEFAULT_SEED, {})
    assert checks.check(op, text.replace(f"seed={DEFAULT_SEED}", "seed=3"), 3, {})


def test_seed_is_substituted_in_the_echo():
    op = OPS["hedge-occupation"]
    text = ref_text("hedge-occupation")
    assert checks.check(op, text.replace(f"seed={DEFAULT_SEED}", "seed=3"), 3, {}) == []
    assert checks.check(op, text, 3, {})


def test_monte_carlo_rows_are_exact_at_default_seed():
    op = OPS["hedge-digital-w1"]
    text = ref_text("hedge-digital")
    nudged = replace_cell(text, 2, "l2_estimate", scale(1 + 1e-15))
    assert nudged != text
    assert checks.check(op, nudged, DEFAULT_SEED, {})
    # at another seed the oracle, not the reference, decides
    other = nudged.replace(f"seed={DEFAULT_SEED}", "seed=3")
    assert checks.check(op, other, 3, {}) == []
    far = replace_cell(other, 2, "l2_estimate", lambda c: repr(float(c) + 0.05))
    assert "N=16" in checks.check(op, far, 3, {})[0]


def test_worker_count_must_not_change_output():
    text = ref_text("hedge-digital")
    op = OPS["hedge-digital-w2"]
    assert checks.check(op, text, DEFAULT_SEED, {"hedge-digital-w1": text}) == []
    assert checks.check(op, text + "\n", DEFAULT_SEED, {"hedge-digital-w1": text})


def test_quadratic_hedge_oracle():
    op = OPS["hedge-quadratic"]
    text = ref_text("hedge-quadratic").replace(f"seed={DEFAULT_SEED}", "seed=3")
    assert checks.check(op, text, 3, {}) == []
    assert checks.check(op, replace_cell(text, 0, "l2_estimate", scale(1.1)), 3, {})


def refine_output(coefficients=None, coarse_norm=None) -> str:
    expand = checks.reference("expand-digital")
    rows = expand.rows if coefficients is None else coefficients
    if coarse_norm is None:
        coarse_norm = repr(sum(float(c) ** 2 for _, c in expand.rows) ** 0.5)
    lines = ["# script=refine-digital", f"# coarse_norm={coarse_norm}",
             "multiindex,coefficient"]
    lines += [f'"{k}",{c}' if "," in k else f"{k},{c}" for k, c in rows]
    return "\n".join(lines) + "\n"


def test_refine_oracle():
    op = OPS["refine-digital"]
    assert checks.check(op, refine_output(), DEFAULT_SEED, {}) == []
    rows = [list(r) for r in checks.reference("expand-digital").rows]
    rows[10][1] = repr(float(rows[10][1]) * (1 + 1e-9))
    assert checks.check(op, refine_output(rows), DEFAULT_SEED, {})
    assert checks.check(op, refine_output(coarse_norm="0.7"), DEFAULT_SEED, {})


def test_mc_norms_oracle():
    op = OPS["mc-norms"]
    text = ref_text("mc-norms")
    other = text.replace(f"seed={DEFAULT_SEED}", "seed=3")
    assert checks.check(op, other, 3, {}) == []
    assert checks.check(op, replace_cell(other, 0, "value", lambda c: "0.2"), 3, {})
    assert checks.check(op, replace_cell(other, 2, "value", scale(1 + 1e-9)), 3, {})
    assert checks.check(op, replace_cell(other, 3, "value", lambda c: "1e-6"), 3, {})


def test_digital_first_order_error_matches_seed_values():
    # exact errors at N = 4, 16, 64, 256 quoted in ROADMAP item 3
    got = [checks.digital_first_order_error(n, 1.0) for n in (4, 16, 64, 256)]
    assert got == pytest.approx([0.25104, 0.19028, 0.13897, 0.09981], abs=1e-5)


def test_tail_has_ten_samples_beyond():
    op_a, op_b = OPS["expand-digital"], OPS["decompose-occupation"]
    passes = [run.Pass(False, [run.OpRun(op_a, 1.0 + i / 100, 0, 0, []),
                               run.OpRun(op_b, 2.0, 0, 0, [])], True) for i in range(8)]
    value, percentile, n = run.tail(passes)
    assert n == 16 and percentile == pytest.approx(100 * 6 / 16)
    # a's four fastest runs lie below the median pass, b's eight runs on it
    assert value == pytest.approx(3.035)


def test_benchmark_json_matches_runner():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_traced_operation_reports_spans(tmp_path):
    out, trace = tmp_path / "out.csv", tmp_path / "trace.json"
    argv = [sys.executable, str(run.HERE / "trace.py"), str(trace), "cli", "expand",
            "--payoff", "digital:0", "--N0", "3", "--max-degree", "4", "--out", str(out)]
    subprocess.run(argv, env=run.child_env(), check=True, timeout=60)
    result = json.loads(trace.read_text())
    assert result["counts"]["multiindex.enumerate_upto.indexes"] == 35  # C(3+4, 4)
    assert result["counts"]["montecarlo.coeffs_terminal.enumerated"] == 35
    assert result["counts"]["cli.output_bytes"] == out.stat().st_size
    assert all(span["self_s"] >= 0.0 for span in result["spans"].values())
    assert result["spans"]["cli.handler"]["calls"] == 1
