"""Command-line front end emitting reproducible CSV batch runs.

Subcommands: expand | decompose | verify-bound | rate-sweep | simulate-hedge.
Parameter precedence is flag > environment (CHAOSCO_<NAME>) > config file
(--config, JSON) > default.  The resolved configuration is echoed as
"#"-prefixed header lines into every output file, which is written via a
temporary file and an atomic rename so partial outputs never appear.

Exit codes: 0 success, 1 numerical failure (or failed bound rows), 2 invalid
configuration, including an index set too large to build or an array sized
by the input, such as Monte Carlo results or a Gauss rule, too large for
physical memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import math
import os
import shutil
import sys
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import multiindex as mi
from .chaos import ChaosExpansion, GridSpec, csv_field_template, write_expansion_csv
from .clark_ocone import bound_holds, decompose, verify_bounds
from .montecarlo import (
    DigitalPayoff,
    OccupationTimePayoff,
    PolynomialPayoff,
    coeffs_occupation_time,
    coeffs_terminal,
    occupation_rate_sweep,
    rate_sweep,
    sample_paths,
    tracking_error_hedges,
)

ENV_PREFIX = "CHAOSCO_"

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INVALID = 2


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


def parse_payoff(text: str):
    """Payoff spec: "poly:c0,c1,...", "digital:K", or "occupation"."""
    text = text.strip()
    if text == "occupation":
        return OccupationTimePayoff()
    if text.startswith("poly:"):
        try:
            coeffs = tuple(float(x) for x in text[len("poly:") :].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad polynomial coefficients in {text!r}") from exc
        if not coeffs:
            raise ConfigError("polynomial payoff needs at least one coefficient")
        if not all(map(math.isfinite, coeffs)):
            raise ConfigError(f"polynomial coefficients must be finite in {text!r}")
        return PolynomialPayoff(coeffs)
    if text.startswith("digital:"):
        try:
            strike = float(text[len("digital:") :])
        except ValueError as exc:
            raise ConfigError(f"bad digital strike in {text!r}") from exc
        if not math.isfinite(strike):
            raise ConfigError(f"digital strike must be finite in {text!r}")
        return DigitalPayoff(strike)
    raise ConfigError(f"unknown payoff spec {text!r}")


def _parse_int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _parse_float_list(text: str) -> List[float]:
    return [float(x) for x in text.split(",") if x != ""]


def _in_unit_interval(x: float) -> bool:
    return 0.0 <= x <= 1.0


def _all_of(test):
    """Requirement on a list option: nonempty, with ``test`` true of every entry."""
    return lambda values: bool(values) and all(map(test, values))


def _increasing_from_one(values: List[int]) -> bool:
    return bool(values) and values[0] >= 1 and all(b > a for a, b in zip(values, values[1:]))


#: option name -> (converter from string, default, requirement on the
#: converted value or None, its wording); a None default means required
_OPTIONS = {
    "payoff": (str, None, None, None),
    "T": (float, 1.0, lambda x: math.isfinite(x) and x > 0, "positive and finite"),
    "N0": (int, 1, lambda x: x >= 1, ">= 1"),
    "N1_list": (_parse_int_list, [4, 8, 16, 32, 64, 128, 256], _increasing_from_one,
                "strictly increasing and >= 1"),
    "N_list": (_parse_int_list, [4, 8, 16, 32, 64], _increasing_from_one,
               "strictly increasing and >= 1"),
    "max_degree": (int, 20, lambda x: x >= 0, ">= 0"),
    "order_n": (int, 1, lambda x: x >= 1, ">= 1"),
    "sobolev_s": (float, 0.0, math.isfinite, "finite"),
    "interp_r": (float, 1.0, _in_unit_interval, "in [0, 1]"),
    "order_n_list": (_parse_int_list, [1, 2, 3], _all_of(lambda n: n >= 1),
                     "nonempty and all >= 1"),
    "sobolev_s_list": (_parse_float_list, [-1.0, 0.0, 1.0], _all_of(math.isfinite),
                       "nonempty and all finite"),
    "interp_r_list": (_parse_float_list, [0.0, 0.5, 1.0], _all_of(_in_unit_interval),
                      "nonempty and all in [0, 1]"),
    "cases": (int, 100, lambda x: x >= 1, ">= 1"),
    "seed": (int, 20240824, lambda x: 0 <= x < 2**128, "a Philox key in [0, 2**128)"),
    "samples": (int, 100_000, lambda x: x >= 1, ">= 1"),
    "workers": (int, 1, lambda x: x >= 1, ">= 1"),
    "out": (str, None, None, None),
}

_COMMAND_OPTIONS = {
    "expand": ["payoff", "T", "N0", "max_degree", "out"],
    "decompose": ["payoff", "T", "N0", "max_degree", "out"],
    "verify-bound": [
        "payoff",
        "T",
        "N0",
        "max_degree",
        "cases",
        "order_n_list",
        "N1_list",
        "sobolev_s_list",
        "interp_r_list",
        "seed",
        "out",
    ],
    "rate-sweep": [
        "payoff",
        "T",
        "N0",
        "max_degree",
        "order_n",
        "sobolev_s",
        "interp_r",
        "N1_list",
        "out",
    ],
    "simulate-hedge": [
        "payoff",
        "T",
        "N_list",
        "max_degree",
        "samples",
        "seed",
        "workers",
        "out",
    ],
}


def _flag_name(option: str) -> str:
    return "--" + option.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaosco",
        description="Chaos-coefficient expansions, decomposition error bounds, "
        "and hedging-rate experiments over Brownian increment grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, names in _COMMAND_OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="JSON config file")
        for name in names:
            p.add_argument(_flag_name(name), dest=name, default=None, type=str)
    return parser


def resolve_config(command: str, args: argparse.Namespace) -> Dict[str, object]:
    """Layer defaults, config file, environment, and flags; convert and check.

    Every value given, from any source, must meet its option's requirement.
    A JSON array in the config file is read as its comma-joined entries.
    """
    file_values = {}
    if getattr(args, "config", None):
        import json  # only runs with a config file pay for it

        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must contain a JSON object")
    resolved: Dict[str, object] = {}
    for name in _COMMAND_OPTIONS[command]:
        convert, default, requirement, wording = _OPTIONS[name]
        raw = getattr(args, name, None)
        if raw is None:
            raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is None:
            raw = file_values.get(name)
        if raw is None:
            if default is None and name != "out":
                raise ConfigError(f"missing required option {_flag_name(name)}")
            resolved[name] = default
            continue
        text = ",".join(map(str, raw)) if isinstance(raw, list) else str(raw)
        try:
            value = convert(text)
        except ValueError as exc:
            raise ConfigError(f"invalid value for {_flag_name(name)}: {text!r}") from exc
        if requirement is not None and not requirement(value):
            raise ConfigError(f"{_flag_name(name)} must be {wording}: {text!r}")
        resolved[name] = value
    return resolved


#: execution details excluded from output headers so byte-identical results
#: stay byte-identical regardless of where or how parallel the run was
_NON_CONFIG_OPTIONS = frozenset({"out", "workers"})


def _header_lines(command: str, cfg: Dict[str, object]) -> List[str]:
    lines = [f"command={command}"]
    for name in sorted(cfg):
        if name in _NON_CONFIG_OPTIONS:
            continue
        value = cfg[name]
        if isinstance(value, list):
            value = ",".join(format(v, "g") if isinstance(v, float) else str(v) for v in value)
        lines.append(f"{name}={value}")
    return lines


def _write_lines(path: Optional[str], lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path`` as they come, or to stdout; all or nothing.

    The lines go into a temporary file in the target's directory, which is
    renamed over ``path`` once the last line is written and deleted if any
    line fails.  With no path the temporary file is anonymous and is copied
    to stdout on success.
    """
    if path is None:
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
            fh.seek(0)
            shutil.copyfileobj(fh, sys.stdout)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _write_atomic(path: Optional[str], text: str) -> None:
    """:func:`_write_lines` of one piece of text, as ``expand`` writes it."""
    _write_lines(path, [text])


def _write_table(command: str, cfg: Dict[str, object], columns: List[str], template: str,
                 rows: Iterable[tuple], comments: Sequence[str] = (),
                 trailer: Sequence[str] = ()) -> None:
    """Header and extra "#" lines, the CSV table, then trailer lines, written atomically.

    Each row is ``template % row``, one line, written as ``rows`` yields it.
    Templates write floats as ``%.17g`` (every double round-trips, so
    outputs are byte-stable) and text with ``%s``; text that csv.writer
    would quote goes in as :func:`_csv_field` gives it.
    """
    lines = itertools.chain(
        [f"# {line}\n" for line in [*_header_lines(command, cfg), *comments]],
        [",".join(columns) + "\n"],
        map(template.__mod__, rows),
        [f"{line}\n" for line in trailer],
    )
    _write_lines(cfg["out"], lines)


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it as a field of a row: quoted where needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[: -len(",\n")]


_HOLDS = {True: "true", False: "false"}


def _payoff_expansion(cfg: Dict[str, object]) -> ChaosExpansion:
    payoff = parse_payoff(cfg["payoff"])
    grid = GridSpec(cfg["T"], cfg["N0"])
    if isinstance(payoff, OccupationTimePayoff):
        return coeffs_occupation_time(grid, cfg["max_degree"])
    return coeffs_terminal(payoff, grid, cfg["max_degree"])


def cmd_expand(cfg: Dict[str, object]) -> int:
    expansion = _payoff_expansion(cfg)
    buf = io.StringIO()
    write_expansion_csv(expansion, buf, _header_lines("expand", cfg))
    _write_atomic(cfg["out"], buf.getvalue())
    return EXIT_OK


def cmd_decompose(cfg: Dict[str, object]) -> int:
    d = decompose(_payoff_expansion(cfg))
    rows = (
        (term.ell, term.m, csv_field_template(len(a)) % a, c)
        for term in d.terms
        for a, c in term.integrand.items()
    )
    _write_table("decompose", cfg, ["ell", "m", "multiindex", "coefficient"],
                 "%d,%d,%s,%.17g\n", rows, comments=[f"mean={d.mean:.17g}"])
    return EXIT_OK


def _random_expansion(rng: np.random.Generator, grid: GridSpec, max_degree: int) -> ChaosExpansion:
    keys = list(mi.enumerate_upto(grid.N, max_degree))
    # one draw per key in enumeration order: the same doubles as scalar draws
    values = rng.uniform(-1.0, 1.0, size=len(keys))
    return ChaosExpansion(grid, dict(zip(keys, values.tolist())))


def cmd_verify_bound(cfg: Dict[str, object]) -> int:
    grid = GridSpec(cfg["T"], cfg["N0"])
    if cfg["payoff"] == "random":
        rng = np.random.Generator(np.random.Philox(key=cfg["seed"]))
        # drawn one case at a time, as the rows reach it: the same draws in
        # the same order as drawing every case first
        cases = (
            (f"random-{i:03d}", _random_expansion(rng, grid, cfg["max_degree"]))
            for i in range(cfg["cases"])
        )
    else:
        cases = [(cfg["payoff"], _payoff_expansion(cfg))]
    lists = [cfg[name] for name in ("order_n_list", "N1_list", "sobolev_s_list", "interp_r_list")]
    all_hold = True

    def rows():
        nonlocal all_hold
        for label, expansion in cases:
            label = _csv_field(label)
            for n, n1, s, r, lhs, rhs, holds, slack in verify_bounds(expansion, *lists):
                all_hold = all_hold and holds
                yield label, n, n1, s, r, lhs, rhs, _HOLDS[holds], slack

    _write_table("verify-bound", cfg,
                 ["payoff", "n", "N1", "s", "r", "lhs", "rhs", "holds", "slack"],
                 "%s,%d,%d,%g,%g,%.17g,%.17g,%s,%.17g\n", rows())
    return EXIT_OK if all_hold else EXIT_NUMERICAL


def cmd_rate_sweep(cfg: Dict[str, object]) -> int:
    payoff = parse_payoff(cfg["payoff"])
    if isinstance(payoff, OccupationTimePayoff):
        raise ConfigError("rate-sweep requires a terminal payoff; "
                          "use simulate-hedge for the occupation functional")
    report = rate_sweep(payoff, cfg["order_n"], cfg["sobolev_s"], cfg["interp_r"],
                        cfg["N1_list"], cfg["N0"], cfg["T"], cfg["max_degree"])
    rows = (
        (n1, err, bound, _HOLDS[bound_holds(err, bound)])
        for n1, err, bound in report.rows
    )
    _write_table("rate-sweep", cfg, ["N1", "error_norm", "bound", "holds"],
                 "%d,%.17g,%.17g,%s\n", rows, trailer=[f"slope={report.fitted_slope:.17g}"])
    return EXIT_OK


def cmd_simulate_hedge(cfg: Dict[str, object]) -> int:
    payoff = parse_payoff(cfg["payoff"])
    if isinstance(payoff, OccupationTimePayoff):
        # l2_estimate is the exact norm of the degree-truncated expansion's
        # first-order error, not a hedge simulation; std_error is 0
        comments = ["method=truncated-chaos"]
        sweep = occupation_rate_sweep(1, cfg["N_list"], cfg["T"], cfg["max_degree"])
        rows = [(n_steps, err, 0.0) for n_steps, err in sweep]
    else:
        comments = []
        # one batch per N, all hedged from one sampling pass at the largest N
        batches = [
            sample_paths(GridSpec(cfg["T"], n_steps), cfg["samples"], cfg["seed"], cfg["workers"])
            for n_steps in cfg["N_list"]
        ]
        rows = [
            (batch.grid.N, result.estimate, result.std_error)
            for batch, result in zip(batches, tracking_error_hedges(payoff, batches))
        ]
    _write_table("simulate-hedge", cfg, ["N", "l2_estimate", "std_error"], "%d,%.17g,%.17g\n",
                 rows, comments)
    return EXIT_OK


_HANDLERS = {
    "expand": cmd_expand,
    "decompose": cmd_decompose,
    "verify-bound": cmd_verify_bound,
    "rate-sweep": cmd_rate_sweep,
    "simulate-hedge": cmd_simulate_hedge,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](resolve_config(args.command, args))
    except (ConfigError, mi.IndexSetTooLarge, mi.PathBatchTooLarge) as exc:
        print(f"chaosco: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ArithmeticError, ValueError, FloatingPointError) as exc:
        print(f"chaosco: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
