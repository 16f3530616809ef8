"""Correctness checks for every output the benchmark's operations write.

An output is compared with its reference in ``refs/``, recorded from the seed
commit by ``make_refs.py``:

* exact quantities (coefficients, norms, bounds) within REL_TOL relative, the
  gate ROADMAP item 2 sets for closed forms; ``slack = rhs - lhs`` within
  REL_TOL of the larger side;
* integer, boolean and text columns exactly;
* Monte Carlo columns of a seed-dependent operation exactly, at the seed the
  references were recorded at.  At any other seed only the configuration
  echo and the schema are compared, and the oracles in ORACLES carry the
  check.

Reference comment lines must appear in the output in order; an output may
add comment lines of its own.  Each check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import lzma
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional

from workloads import DEFAULT_SEED, Op

REL_TOL = 1e-12
#: z-score beyond which a Monte Carlo estimate disagrees with its exact value
HEDGE_Z = 6.0
MC_NORM_Z = 4.0
#: criterion 11: the full decomposition of a polynomial is a perfect control variate
CV_RESIDUAL_VAR_MAX = 1e-12

REFS = Path(__file__).resolve().parent / "refs"

FLOAT_COLUMNS = {"coefficient", "lhs", "rhs", "error_norm", "bound", "l2_estimate",
                 "std_error"}
MC_COLUMNS = {"l2_estimate", "std_error"}
NUMERIC_KEYS = {"mean", "slope", "coarse_norm"}
#: "quantity,value" rows compared with the reference; the rest are checked by
#: the mc_norms oracle alone (exact values against the reference at every
#: seed, round-off residuals against a threshold)
MC_QUANTITIES = {"mc_err_norm.estimate", "mc_err_norm.std_error"}


@dataclass
class Table:
    """A CLI-style CSV: "# key=value" comments, a header, rows, trailer lines."""

    comments: List[str]
    header: List[str]
    rows: List[List[str]]
    trailer: List[str]

    def column(self, name: str) -> List[str]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]

    def comment(self, key: str) -> Optional[str]:
        for line in self.comments:
            k, _, v = line.partition("=")
            if k == key:
                return v
        return None


def parse(text: str) -> Table:
    lines = text.splitlines()
    i = 0
    comments = []
    while i < len(lines) and lines[i].startswith("#"):
        comments.append(lines[i][1:].strip())
        i += 1
    if i == len(lines):
        raise ValueError("no CSV header")
    header = next(csv.reader([lines[i]]))
    body = lines[i + 1 :]
    rows = list(csv.reader(line for line in body if "," in line))
    trailer = [line for line in body if "," not in line]
    return Table(comments, header, rows, trailer)


@lru_cache(maxsize=None)
def reference(name: str) -> Table:
    with lzma.open(REFS / f"{name}.csv.xz", "rt", encoding="utf-8") as fh:
        return parse(fh.read())


def close(a: str, b: str, scale: Optional[float] = None) -> bool:
    """Equal strings, or floats within REL_TOL of ``scale`` (default: the larger)."""
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if scale is None:
        scale = max(abs(x), abs(y))
    return abs(x - y) <= REL_TOL * scale


def _compare_keyed(out: List[str], ref: List[str], seed: int, what: str) -> List[str]:
    """Reference "key=value" lines must appear in ``out`` in order."""
    problems = []
    pos = 0
    for line in ref:
        key, _, want = line.partition("=")
        if key == "seed":
            want = str(seed)
        for j in range(pos, len(out)):
            if out[j].partition("=")[0] == key:
                break
        else:
            problems.append(f"{what} line {line!r} missing")
            continue
        got = out[j].partition("=")[2]
        ok = close(got, want) if key in NUMERIC_KEYS else got == want
        if not ok:
            problems.append(f"{what} {key}={got}, reference {want}")
        pos = j + 1
    return problems


def _cell_ok(column: str, got: str, want: str, row: List[str], header: List[str],
             random: bool) -> bool:
    if column == "slack":
        lhs, rhs = (abs(float(row[header.index(c)])) for c in ("lhs", "rhs"))
        return close(got, want, max(lhs, rhs))
    if column in FLOAT_COLUMNS and not (random and column in MC_COLUMNS):
        return close(got, want)
    return got == want


def compare(out: Table, ref: Table, seed: int, random: bool, rows: bool = True) -> List[str]:
    """Problems of ``out`` against ``ref``; ``rows=False`` checks the echo and schema only."""
    problems = _compare_keyed(out.comments, ref.comments, seed, "comment")
    if out.header != ref.header:
        return problems + [f"header {out.header}, reference {ref.header}"]
    if not rows:
        return problems
    if len(out.rows) != len(ref.rows):
        return problems + [f"{len(out.rows)} rows, reference {len(ref.rows)}"]
    quantity_table = out.header[0] == "quantity"
    for n, (got_row, want_row) in enumerate(zip(out.rows, ref.rows), start=1):
        if len(got_row) != len(want_row):
            problems.append(f"row {n}: {len(got_row)} cells, reference {len(want_row)}")
        elif quantity_table:
            if got_row[0] != want_row[0]:
                problems.append(f"row {n}: quantity {got_row[0]}, reference {want_row[0]}")
            elif got_row[0] in MC_QUANTITIES and got_row[1] != want_row[1]:
                problems.append(f"row {n}: {got_row[0]}={got_row[1]}, reference {want_row[1]}")
        else:
            for column, got, want in zip(out.header, got_row, want_row):
                if not _cell_ok(column, got, want, want_row, ref.header, random):
                    problems.append(f"row {n}: {column}={got}, reference {want}")
        if len(problems) >= 5:
            return problems
    return problems + _compare_keyed(out.trailer, ref.trailer, seed, "trailer")


# ---------------------------------------------------------------------------
# Oracles: properties that hold at every seed


def _holds(t: Table) -> List[str]:
    if not t.rows:
        return ["no rows"]
    bad = [n for n, v in enumerate(t.column("holds"), start=1) if v != "true"]
    return [f"bound fails on {len(bad)} rows, first row {bad[0]}"] if bad else []


def _verify_random(t: Table) -> List[str]:
    problems = _holds(t)
    cases = int(t.comment("cases"))
    per_case = 1
    for key in ("order_n_list", "N1_list", "sobolev_s_list", "interp_r_list"):
        per_case *= len(t.comment(key).split(","))
    if len(t.rows) != cases * per_case:
        problems.append(f"{len(t.rows)} rows, expected {cases} x {per_case}")
    labels = set(t.column("payoff"))
    if labels != {f"random-{i:03d}" for i in range(cases)}:
        problems.append(f"{len(labels)} distinct case labels, expected {cases}")
    return problems


def digital_first_order_error(n_steps: int, T: float) -> float:
    """Exact L2 norm of the delta-hedge error of 1{W_T >= 0} over n_steps.

    ||Err_1||^2 = Var F - sum_l E[u_l^2], with
    E[u_l^2] = dt / (2 pi sigma sqrt(sigma^2 + 2 t_{l-1})) and sigma^2 = T - t_{l-1}.
    """
    dt = T / n_steps
    captured = 0.0
    for ell in range(1, n_steps + 1):
        t = (ell - 1) * dt
        sigma2 = T - t
        captured += dt / (2.0 * math.pi * math.sqrt(sigma2) * math.sqrt(sigma2 + 2.0 * t))
    return math.sqrt(0.25 - captured)


def _hedge_rows(t: Table, exact) -> List[str]:
    problems = []
    expected_n = t.comment("N_list").split(",")
    if t.column("N") != expected_n:
        problems.append(f"N column {t.column('N')}, expected {expected_n}")
    T = float(t.comment("T"))
    for n, est, se in zip(t.column("N"), t.column("l2_estimate"), t.column("std_error")):
        target, est, se = exact(int(n), T), float(est), float(se)
        if not (se > 0.0 and abs(est - target) <= HEDGE_Z * se):
            problems.append(f"N={n}: estimate {est} +- {se}, exact {target}")
    return problems


def _hedge_digital(t: Table) -> List[str]:
    return _hedge_rows(t, digital_first_order_error)


def _hedge_quadratic(t: Table) -> List[str]:
    # W_T^2: the residual is sum_l (dW_l^2 - dt), of norm T sqrt(2/N)
    return _hedge_rows(t, lambda n, T: T * math.sqrt(2.0 / n))


def _refine(t: Table) -> List[str]:
    ref = reference("expand-digital")
    problems = []
    if len(t.rows) != len(ref.rows):
        return [f"{len(t.rows)} fine coefficients, expected {len(ref.rows)}"]
    for (key, c), (want_key, want) in zip(t.rows, ref.rows):
        if key != want_key or not close(c, want):
            problems.append(f"fine coefficient {key}={c}, expand gives {want_key}={want}")
            break
    fine_norm = math.sqrt(math.fsum(float(c) ** 2 for _, c in t.rows))
    coarse_norm = t.comment("coarse_norm")
    if coarse_norm is None or not close(repr(fine_norm), coarse_norm):
        problems.append(f"refinement isometry: fine norm {fine_norm}, coarse {coarse_norm}")
    return problems


def _mc_norms(t: Table) -> List[str]:
    values = {row[0]: float(row[1]) for row in t.rows}
    problems = []
    try:
        est = values.pop("mc_err_norm.estimate")
        se = values.pop("mc_err_norm.std_error")
        exact = values.pop("err_norm_refined")
    except KeyError as exc:
        return [f"missing quantity {exc}"]
    want = dict(reference("mc-norms").rows)["err_norm_refined"]
    if not close(repr(exact), want):
        problems.append(f"err_norm_refined {exact!r}, reference {want}")
    if not (se > 0.0 and abs(est - exact) <= MC_NORM_Z * se):
        problems.append(f"mc_err_norm {est} +- {se} is not within {MC_NORM_Z} SE of {exact}")
    residuals = {k: v for k, v in values.items() if k.startswith("cv_residual_var.")}
    if len(residuals) != 4:
        problems.append(f"{len(residuals)} control-variate residuals, expected 4")
    problems += [f"{k}={v}" for k, v in residuals.items() if not v < CV_RESIDUAL_VAR_MAX]
    return problems


ORACLES = {
    "holds": _holds,
    "verify_random": _verify_random,
    "hedge_digital": _hedge_digital,
    "hedge_quadratic": _hedge_quadratic,
    "refine": _refine,
    "mc_norms": _mc_norms,
}


def check(op: Op, text: str, seed: int, pass_outputs: Dict[str, str]) -> List[str]:
    """All problems of one operation's output; ``pass_outputs`` holds earlier ones."""
    if op.same_as is not None and text != pass_outputs.get(op.same_as):
        return [f"output differs from {op.same_as}'s"]
    try:
        table = parse(text)
        problems = []
        if op.ref is not None:
            problems += compare(table, reference(op.ref), seed, op.random,
                                rows=not op.random or seed == DEFAULT_SEED)
        if op.oracle is not None:
            problems += ORACLES[op.oracle](table)
    except (ValueError, TypeError, AttributeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems
