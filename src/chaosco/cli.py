"""Command-line front end emitting reproducible CSV batch runs.

Subcommands: expand | decompose | verify-bound | rate-sweep | simulate-hedge.
Parameter precedence is flag > environment (CHAOSCO_<NAME>) > config file
(--config, JSON) > default.  The resolved configuration is echoed as
"#"-prefixed header lines into every output file, which is written via a
temporary file and an atomic rename so partial outputs never appear.

Exit codes: 0 success, 1 numerical failure (or failed bound rows), 2 invalid
configuration, including an index set too large to build.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from typing import Dict, List, Optional

import numpy as np

from . import multiindex as mi
from .chaos import ChaosExpansion, GridSpec, write_expansion_csv
from .clark_ocone import BOUND_REL_SLACK, decompose, verify_bound
from .montecarlo import (
    DigitalPayoff,
    OccupationTimePayoff,
    PolynomialPayoff,
    coeffs_occupation_time,
    coeffs_terminal,
    occupation_rate_sweep,
    payoff_label,
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
    try:
        return [int(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def _parse_float_list(text: str) -> List[float]:
    try:
        return [float(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc


#: option name -> (converter from string, default); None default means required
_OPTIONS = {
    "payoff": (str, None),
    "T": (float, 1.0),
    "N0": (int, 1),
    "N1_list": (_parse_int_list, [4, 8, 16, 32, 64, 128, 256]),
    "N_list": (_parse_int_list, [4, 8, 16, 32, 64]),
    "max_degree": (int, 20),
    "order_n": (int, 1),
    "sobolev_s": (float, 0.0),
    "interp_r": (float, 1.0),
    "order_n_list": (_parse_int_list, [1, 2, 3]),
    "sobolev_s_list": (_parse_float_list, [-1.0, 0.0, 1.0]),
    "interp_r_list": (_parse_float_list, [0.0, 0.5, 1.0]),
    "cases": (int, 100),
    "seed": (int, 20240824),
    "samples": (int, 100_000),
    "workers": (int, 1),
    "out": (str, None),
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
    """Layer defaults, config file, environment, and flags; validate types."""
    file_values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must contain a JSON object")
    resolved: Dict[str, object] = {}
    for name in _COMMAND_OPTIONS[command]:
        convert, default = _OPTIONS[name]
        raw = getattr(args, name, None)
        if raw is None:
            raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is None and name in file_values:
            raw = file_values[name]
        if raw is None:
            if default is None and name != "out":
                raise ConfigError(f"missing required option {_flag_name(name)}")
            resolved[name] = default
            continue
        try:
            resolved[name] = convert(raw) if isinstance(raw, str) else convert(str(raw))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid value for {_flag_name(name)}: {raw!r}") from exc
    _validate(command, resolved)
    return resolved


def _validate(command: str, cfg: Dict[str, object]) -> None:
    if cfg.get("T") is not None and not (math.isfinite(cfg["T"]) and cfg["T"] > 0):
        raise ConfigError("T must be positive and finite")
    if cfg.get("sobolev_s") is not None and not math.isfinite(cfg["sobolev_s"]):
        raise ConfigError("sobolev-s must be finite")
    slist = cfg.get("sobolev_s_list")
    if slist is not None and not all(map(math.isfinite, slist)):
        raise ConfigError("sobolev-s-list entries must be finite")
    if cfg.get("N0") is not None and cfg["N0"] < 1:
        raise ConfigError("N0 must be >= 1")
    if cfg.get("max_degree") is not None and cfg["max_degree"] < 0:
        raise ConfigError("max-degree must be non-negative")
    if cfg.get("order_n") is not None and cfg["order_n"] < 1:
        raise ConfigError("order-n must be >= 1")
    if cfg.get("order_n_list") is not None and any(n < 1 for n in cfg["order_n_list"]):
        raise ConfigError("order-n-list entries must be >= 1")
    if cfg.get("cases") is not None and cfg["cases"] < 1:
        raise ConfigError("cases must be >= 1")
    if cfg.get("interp_r") is not None and not 0.0 <= cfg["interp_r"] <= 1.0:
        raise ConfigError("interp-r must lie in [0, 1]")
    if cfg.get("samples") is not None and cfg["samples"] < 1:
        raise ConfigError("samples must be >= 1")
    if cfg.get("workers") is not None and cfg["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    for key in ("N1_list", "N_list"):
        values = cfg.get(key)
        if values is not None:
            if not values or any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError(f"{key.replace('_', '-')} must be strictly increasing")
            if values[0] < 1:
                raise ConfigError(f"{key.replace('_', '-')} entries must be >= 1")
    rlist = cfg.get("interp_r_list")
    if rlist is not None and any(not 0.0 <= r <= 1.0 for r in rlist):
        raise ConfigError("interp-r-list entries must lie in [0, 1]")


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


def _write_atomic(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


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
    buf = io.StringIO()
    for line in _header_lines("decompose", cfg):
        buf.write(f"# {line}\n")
    buf.write(f"# mean={format(d.mean, '.17g')}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ell", "m", "multiindex", "coefficient"])
    for term in d.terms:
        writer.writerows(
            (term.ell, term.m, mi.format_canonical(a), format(c, ".17g"))
            for a, c in term.integrand.items()
        )
    _write_atomic(cfg["out"], buf.getvalue())
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
        cases = [
            (f"random-{i:03d}", _random_expansion(rng, grid, cfg["max_degree"]))
            for i in range(cfg["cases"])
        ]
    else:
        cases = [(cfg["payoff"], _payoff_expansion(cfg))]
    buf = io.StringIO()
    for line in _header_lines("verify-bound", cfg):
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["payoff", "n", "N1", "s", "r", "lhs", "rhs", "holds", "slack"])
    any_failed = False
    for label, expansion in cases:
        for n in cfg["order_n_list"]:
            for n1 in cfg["N1_list"]:
                for s in cfg["sobolev_s_list"]:
                    for r in cfg["interp_r_list"]:
                        check = verify_bound(expansion, n, n1, s, r)
                        any_failed = any_failed or not check.holds
                        writer.writerow(
                            [
                                label,
                                n,
                                n1,
                                format(s, "g"),
                                format(r, "g"),
                                format(check.lhs, ".17g"),
                                format(check.rhs, ".17g"),
                                str(check.holds).lower(),
                                format(check.slack, ".17g"),
                            ]
                        )
    _write_atomic(cfg["out"], buf.getvalue())
    return EXIT_NUMERICAL if any_failed else EXIT_OK


def cmd_rate_sweep(cfg: Dict[str, object]) -> int:
    payoff = parse_payoff(cfg["payoff"])
    if isinstance(payoff, OccupationTimePayoff):
        raise ConfigError("rate-sweep requires a terminal payoff; "
                          "use simulate-hedge for the occupation functional")
    report = rate_sweep(
        payoff,
        cfg["order_n"],
        cfg["sobolev_s"],
        cfg["interp_r"],
        cfg["N1_list"],
        cfg["N0"],
        cfg["T"],
        cfg["max_degree"],
    )
    buf = io.StringIO()
    for line in _header_lines("rate-sweep", cfg):
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N1", "error_norm", "bound", "holds"])
    for n1, err, bound in report.rows:
        holds = err <= bound * (1.0 + BOUND_REL_SLACK)
        writer.writerow(
            [n1, format(err, ".17g"), format(bound, ".17g"), str(holds).lower()]
        )
    slope = report.fitted_slope
    buf.write(f"slope={'nan' if math.isnan(slope) else format(slope, '.17g')}\n")
    _write_atomic(cfg["out"], buf.getvalue())
    return EXIT_OK


def cmd_simulate_hedge(cfg: Dict[str, object]) -> int:
    payoff = parse_payoff(cfg["payoff"])
    buf = io.StringIO()
    for line in _header_lines("simulate-hedge", cfg):
        buf.write(f"# {line}\n")
    occupation = isinstance(payoff, OccupationTimePayoff)
    if occupation:
        # l2_estimate is the exact norm of the degree-truncated expansion's
        # first-order error, not a hedge simulation; std_error is 0
        buf.write("# method=truncated-chaos\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "l2_estimate", "std_error"])
    if occupation:
        for n_steps, err in occupation_rate_sweep(
            1, cfg["N_list"], cfg["T"], cfg["max_degree"]
        ):
            writer.writerow([n_steps, format(err, ".17g"), format(0.0, ".17g")])
    else:
        # one batch per N, all hedged from one sampling pass at the largest N
        batches = [
            sample_paths(GridSpec(cfg["T"], n_steps), cfg["samples"], cfg["seed"], cfg["workers"])
            for n_steps in cfg["N_list"]
        ]
        for batch, result in zip(batches, tracking_error_hedges(payoff, batches)):
            writer.writerow(
                [
                    batch.grid.N,
                    format(result.estimate, ".17g"),
                    format(result.std_error, ".17g"),
                ]
            )
    _write_atomic(cfg["out"], buf.getvalue())
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
        cfg = resolve_config(args.command, args)
    except ConfigError as exc:
        print(f"chaosco: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return _HANDLERS[args.command](cfg)
    except (ConfigError, mi.IndexSetTooLarge) as exc:
        print(f"chaosco: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ArithmeticError, ValueError, FloatingPointError) as exc:
        print(f"chaosco: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
