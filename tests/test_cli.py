import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from chaosco import cli, clark_ocone
from chaosco.chaos import GridSpec
from chaosco.clark_ocone import decompose, verify_bound
from chaosco.cli import EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, main
from chaosco.montecarlo import (
    DigitalPayoff,
    OccupationTimePayoff,
    PolynomialPayoff,
    coeffs_terminal,
)

import oracles


def _rows(path):
    """Non-comment CSV rows of an output file."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(lines))


def test_parse_payoff():
    assert cli.parse_payoff("poly:1,0,2") == PolynomialPayoff((1.0, 0.0, 2.0))
    assert cli.parse_payoff("digital:1.5") == DigitalPayoff(1.5)
    assert isinstance(cli.parse_payoff("occupation"), OccupationTimePayoff)
    for bad in ("poly:a,b", "digital:x", "gamma:1"):
        with pytest.raises(cli.ConfigError):
            cli.parse_payoff(bad)


def test_expand_golden_digital(tmp_path):
    out = tmp_path / "digital.csv"
    code = main(
        [
            "expand",
            "--payoff",
            "digital:0",
            "--N0",
            "1",
            "--max-degree",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    text = out.read_text()
    assert "# command=expand\n" in text
    assert "# payoff=digital:0\n" in text
    rows = _rows(str(out))
    assert rows[0] == ["multiindex", "coefficient"]
    values = {r[0]: float(r[1]) for r in rows[1:]}
    assert values["()"] == pytest.approx(0.5)
    assert values["1"] == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert values["3"] == pytest.approx(-1 / math.sqrt(12 * math.pi))
    assert "2" not in values


def test_expand_constant_payoff(tmp_path):
    out = tmp_path / "const.csv"
    assert main(["expand", "--payoff", "poly:5", "--out", str(out)]) == EXIT_OK
    rows = _rows(str(out))
    assert rows[1:] == [["()", "5"]]


def test_expand_stdout(capsys):
    assert main(["expand", "--payoff", "poly:5", "--max-degree", "0"]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "multiindex,coefficient" in captured
    assert "(),5" in captured


def test_expand_reruns_byte_identical(tmp_path):
    out = tmp_path / "a.csv"
    args = [
        "expand",
        "--payoff",
        "digital:0.5",
        "--N0",
        "4",
        "--max-degree",
        "6",
        "--out",
        str(out),
    ]
    assert main(args) == EXIT_OK
    first = out.read_bytes()
    assert main(args) == EXIT_OK
    assert out.read_bytes() == first


def test_decompose_output(tmp_path):
    out = tmp_path / "dec.csv"
    code = main(
        [
            "decompose",
            "--payoff",
            "poly:0,0,1",
            "--N0",
            "2",
            "--max-degree",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    mean_line = [
        line for line in out.read_text().splitlines() if line.startswith("# mean=")
    ]
    assert len(mean_line) == 1
    assert float(mean_line[0].split("=")[1]) == pytest.approx(1.0)
    rows = _rows(str(out))
    assert rows[0] == ["ell", "m", "multiindex", "coefficient"]
    table = {(int(r[0]), int(r[1]), r[2]): float(r[3]) for r in rows[1:]}
    assert table[(1, 2, "()")] == pytest.approx(math.sqrt(2) / 2)
    assert table[(2, 1, "1")] == pytest.approx(1.0)
    assert table[(2, 2, "()")] == pytest.approx(math.sqrt(2) / 2)
    assert len(table) == 3


def test_verify_bound_random_suite(tmp_path):
    out = tmp_path / "vb.csv"
    code = main(
        [
            "verify-bound",
            "--payoff",
            "random",
            "--N0",
            "2",
            "--max-degree",
            "4",
            "--cases",
            "5",
            "--N1-list",
            "1,2,4",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    rows = _rows(str(out))
    assert rows[0] == ["payoff", "n", "N1", "s", "r", "lhs", "rhs", "holds", "slack"]
    body = rows[1:]
    # 5 cases x 3 orders x 3 N1 x 3 s x 3 r
    assert len(body) == 5 * 3 * 3 * 3 * 3
    assert all(r[7] == "true" for r in body)
    assert body[0][0] == "random-000"
    for r in body:
        assert float(r[5]) <= float(r[6]) * (1 + 1e-12)


def test_rate_sweep_output_and_slope(tmp_path):
    out = tmp_path / "rs.csv"
    code = main(
        [
            "rate-sweep",
            "--payoff",
            "poly:0,0,1",
            "--max-degree",
            "4",
            "--N1-list",
            "4,8,16,32",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[-1].startswith("slope=")
    slope = float(lines[-1].split("=")[1])
    assert slope == pytest.approx(-0.5, abs=0.05)
    rows = _rows(str(out))
    assert rows[0] == ["N1", "error_norm", "bound", "holds"]
    data = [r for r in rows[1:] if not r[0].startswith("slope=")]
    assert [r[0] for r in data] == ["4", "8", "16", "32"]
    assert all(r[3] == "true" for r in data)


def test_rate_sweep_rejects_occupation(tmp_path):
    code = main(
        ["rate-sweep", "--payoff", "occupation", "--out", str(tmp_path / "x.csv")]
    )
    assert code == EXIT_INVALID


def test_simulate_hedge_occupation_exact(tmp_path):
    out = tmp_path / "occ.csv"
    code = main(
        [
            "simulate-hedge",
            "--payoff",
            "occupation",
            "--N-list",
            "4,8",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    rows = _rows(str(out))
    assert rows[0] == ["N", "l2_estimate", "std_error"]
    first = rows[1]
    assert first[0] == "4"
    assert float(first[1]) == pytest.approx(0.14006300242748623, abs=1e-13)
    assert float(first[2]) == 0.0
    assert "# method=truncated-chaos\n" in out.read_text().splitlines(keepends=True)


def test_simulate_hedge_terminal_and_worker_independence(tmp_path):
    base = [
        "simulate-hedge",
        "--payoff",
        "poly:0,0,1",
        "--N-list",
        "4",
        "--samples",
        "20000",
        "--seed",
        "7",
    ]
    out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    assert main(base + ["--workers", "1", "--out", str(out1)]) == EXIT_OK
    assert main(base + ["--workers", "4", "--out", str(out4)]) == EXIT_OK
    rows1 = [r for r in _rows(str(out1))[1:]]
    est, se = float(rows1[0][1]), float(rows1[0][2])
    assert abs(est - math.sqrt(2) / 2) < 4 * se
    # byte-identical regardless of worker count
    assert out1.read_bytes() == out4.read_bytes()


def test_simulate_hedge_rows_match_single_grid_runs(tmp_path):
    # one sampling pass for the whole N-list: each row is the row that N
    # gives when run on its own
    base = ["simulate-hedge", "--payoff", "digital:0", "--samples", "5000", "--seed", "3"]
    out = tmp_path / "list.csv"
    assert main(base + ["--N-list", "4,16,64", "--out", str(out)]) == EXIT_OK
    rows = out.read_text().splitlines()[-3:]
    for n_steps, row in zip(("4", "16", "64"), rows):
        single = tmp_path / f"n{n_steps}.csv"
        assert main(base + ["--N-list", n_steps, "--out", str(single)]) == EXIT_OK
        assert single.read_text().splitlines()[-1] == row
        assert row.startswith(n_steps + ",")


def test_config_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"payoff": "poly:5", "max_degree": 2}))
    out = tmp_path / "o.csv"
    # file value used when nothing else is set
    assert main(["expand", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert "# max_degree=2\n" in out.read_text()
    # environment beats the file
    monkeypatch.setenv("CHAOSCO_MAX_DEGREE", "3")
    assert main(["expand", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert "# max_degree=3\n" in out.read_text()
    # flag beats the environment
    assert (
        main(
            [
                "expand",
                "--config",
                str(cfg),
                "--max-degree",
                "4",
                "--out",
                str(out),
            ]
        )
        == EXIT_OK
    )
    assert "# max_degree=4\n" in out.read_text()


def test_config_file_json_arrays(tmp_path):
    # a JSON array reads as its comma-joined entries: the same file as the flag
    by_flag, by_file = tmp_path / "flag.csv", tmp_path / "file.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"payoff": "poly:0,0,1", "N1_list": [4, 8, 16],
                               "sobolev_s_list": [0, 0.5], "interp_r_list": [1]}))
    assert main(["verify-bound", "--config", str(cfg), "--out", str(by_file)]) == EXIT_OK
    assert main(["verify-bound", "--payoff", "poly:0,0,1", "--N1-list", "4,8,16",
                 "--sobolev-s-list", "0,0.5", "--interp-r-list", "1",
                 "--out", str(by_flag)]) == EXIT_OK
    assert "# N1_list=4,8,16\n" in by_file.read_text()
    assert by_file.read_bytes() == by_flag.read_bytes()
    cfg.write_text(json.dumps({"payoff": "poly:0,0,1", "N1_list": [8, 4]}))
    assert main(["verify-bound", "--config", str(cfg), "--out", str(by_file)]) == EXIT_INVALID


def test_every_source_is_checked(tmp_path, monkeypatch, capsys):
    out, cfg = tmp_path / "o.csv", tmp_path / "cfg.json"
    argv = ["simulate-hedge", "--payoff", "poly:0,0,1", "--config", str(cfg), "--out", str(out)]
    cfg.write_text(json.dumps({"N_list": [4]}))
    monkeypatch.setenv("CHAOSCO_SAMPLES", "0")
    assert main(argv) == EXIT_INVALID
    assert "--samples must be >= 1: '0'" in capsys.readouterr().err
    monkeypatch.delenv("CHAOSCO_SAMPLES")
    cfg.write_text(json.dumps({"N_list": [4], "workers": 0}))
    assert main(argv) == EXIT_INVALID
    assert "--workers must be >= 1: '0'" in capsys.readouterr().err
    cfg.write_text(json.dumps({"N_list": [0, 4]}))
    assert main(argv) == EXIT_INVALID
    assert "--N-list must be strictly increasing and >= 1: '0,4'" in capsys.readouterr().err
    assert not out.exists()


def test_option_table_is_consistent():
    for name, (convert, default, requirement, wording) in cli._OPTIONS.items():
        assert (requirement is None) == (wording is None), name
        if default is not None and requirement is not None:
            assert requirement(default), name
    for command, names in cli._COMMAND_OPTIONS.items():
        assert set(names) <= set(cli._OPTIONS), command


def test_invalid_configuration_exit_codes(tmp_path):
    assert main(["expand", "--payoff", "poly:1", "--T", "-1"]) == EXIT_INVALID
    assert main(["expand", "--payoff", "poly:1", "--max-degree", "-2"]) == EXIT_INVALID
    assert main(["expand"]) == EXIT_INVALID  # payoff is required
    assert main(["rate-sweep", "--payoff", "poly:1", "--interp-r", "1.5"]) == EXIT_INVALID
    assert (
        main(["rate-sweep", "--payoff", "poly:1", "--N1-list", "8,4"]) == EXIT_INVALID
    )
    assert main(["expand", "--payoff", "poly:1", "--config", str(tmp_path / "missing.json")]) == EXIT_INVALID
    assert main(["no-such-command"]) == EXIT_INVALID
    assert main(["verify-bound", "--payoff", "poly:0,0,1", "--order-n-list", "0"]) == EXIT_INVALID
    assert main(["verify-bound", "--payoff", "random", "--cases", "-3"]) == EXIT_INVALID
    assert main(["verify-bound", "--payoff", "random", "--cases", "0"]) == EXIT_INVALID
    # non-finite numbers
    out = tmp_path / "nonfinite.csv"
    for argv in (
        ["verify-bound", "--payoff", "poly:0,0,1", "--T", "nan", "--sobolev-s-list", "nan"],
        ["verify-bound", "--payoff", "poly:0,0,1", "--sobolev-s-list", "0,nan"],
        ["verify-bound", "--payoff", "poly:0,0,1", "--T", "inf"],
        ["rate-sweep", "--payoff", "poly:0,0,1", "--sobolev-s", "inf"],
        ["expand", "--payoff", "digital:nan"],
        ["expand", "--payoff", "poly:inf"],
        ["expand", "--payoff", "poly:1,nan"],
        ["simulate-hedge", "--payoff", "digital:nan", "--samples", "100"],
        # each option's requirement
        ["expand", "--payoff", "poly:1", "--N0", "0"],
        ["rate-sweep", "--payoff", "poly:1", "--order-n", "0"],
        ["simulate-hedge", "--payoff", "poly:1", "--samples", "0"],
        ["simulate-hedge", "--payoff", "poly:1", "--workers", "0"],
        ["simulate-hedge", "--payoff", "poly:1", "--N-list", "0,4"],
        ["rate-sweep", "--payoff", "poly:1", "--N1-list", ""],
        ["verify-bound", "--payoff", "poly:1", "--interp-r-list", "2"],
        ["verify-bound", "--payoff", "poly:1", "--order-n-list", ","],
        ["verify-bound", "--payoff", "poly:1", "--sobolev-s-list", ","],
        ["verify-bound", "--payoff", "poly:1", "--interp-r-list", ","],
        ["verify-bound", "--payoff", "random", "--cases", "1", "--seed", "-1"],
        ["simulate-hedge", "--payoff", "poly:1", "--samples", "10", "--seed", str(2**128)],
    ):
        assert main(argv + ["--out", str(out)]) == EXIT_INVALID
        assert not out.exists()
    # an empty list from a config file
    for name in ("order_n_list", "sobolev_s_list", "interp_r_list"):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({name: []}))
        argv = ["verify-bound", "--payoff", "poly:1", "--config", str(config)]
        assert main(argv + ["--out", str(out)]) == EXIT_INVALID
        assert not out.exists()


def test_oversized_index_set_refused_before_allocating(tmp_path, capsys):
    # C(76, 12) ~ 1.7e13 indexes on 64 slots: refused at once, naming the size
    out = tmp_path / "big.csv"
    argv = ["expand", "--payoff", "digital:0", "--N0", "64", "--max-degree", "12",
            "--out", str(out)]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert str(math.comb(76, 12)) + " indexes" in err and "bytes" in err
    assert not out.exists()
    code, peak_mb = _child_peak_rss(["-m", "chaosco.cli", *argv])
    assert code == EXIT_INVALID
    assert peak_mb < 64.0


def test_oversized_one_step_tables_refused_before_allocating(tmp_path, capsys, monkeypatch):
    out = tmp_path / "big.csv"
    # 2*10^7 + 1 indexes on one int64 slot: refused before the one-step
    # coefficients or the log-factorial table are computed
    argv = ["expand", "--payoff", "digital:0", "--N0", "1", "--max-degree", str(2 * 10**7)]
    start = time.perf_counter()
    assert main(argv + ["--out", str(out)]) == EXIT_INVALID
    assert time.perf_counter() - start < 1.0
    assert f"{(2 * 10**7 + 1) * 8} bytes" in capsys.readouterr().err
    # poly:0,0,1 at degree 10^6: a (10^6 + 1) x 500002 Hermite table, refused
    # against a physical memory of 1 GiB before the Gauss rule is built
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**18}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    argv = ["rate-sweep", "--payoff", "poly:0,0,1", "--max-degree", str(10**6)]
    start = time.perf_counter()
    assert main(argv + ["--out", str(out)]) == EXIT_INVALID
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "invalid configuration" in err and f"{(10**6 + 1) * 500002 * 8} bytes" in err
    assert not out.exists()


def test_oversized_hedge_refused_before_allocating(tmp_path, capsys):
    # 10^12 paths: their residuals alone would need 8 TB
    out = tmp_path / "hedge.csv"
    argv = ["simulate-hedge", "--payoff", "digital:0", "--samples", str(10**12),
            "--N-list", "4", "--out", str(out)]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "invalid configuration" in err and f"{8 * 10**12} bytes" in err
    assert not out.exists()


def test_atomic_write_no_partial_files(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["expand", "--payoff", "poly:1,1", "--out", str(out)]) == EXIT_OK
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    assert out.exists()


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only oracle; importing it would add ~0.3 s to every run
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run(
        [sys.executable, "-c",
         "import chaosco.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True,
    )


#: spawns its arguments and prints their exit code and peak RSS in KiB
_LAUNCHER = """
import os, sys
pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _child_peak_rss(args):
    """Exit code and peak RSS in MB of ``python args``, spawned from a bare interpreter.

    A child started by vfork and exec starts from its parent's RSS high-water
    mark, so a child spawned from the test process would report at least the
    test process's peak.  The bare launcher stays far below every bound.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", _LAUNCHER, sys.executable, *args],
                            env=env, capture_output=True, text=True, check=True, timeout=120)
    code, kib = result.stdout.split()
    return int(code), int(kib) / 1024.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is KiB on Linux")
def test_simulate_hedge_peak_memory(tmp_path):
    # the hedge streams one 4096-path block per thread; the whole
    # 50000 x 256 batch alone would be 102 MB
    code, peak_mb = _child_peak_rss(
        ["-m", "chaosco.cli", "simulate-hedge", "--payoff", "digital:0", "--N-list", "256",
         "--samples", "50000", "--out", str(tmp_path / "hedge.csv")])
    assert code == EXIT_OK
    assert peak_mb < 100.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is KiB on Linux")
def test_simulate_hedge_two_lanes_peak_memory(tmp_path):
    # a sampler thread's stream buffer, the slot buffer and per-call
    # buffers of a few slots, where one (N + 1) x 4096 table per call gives
    # 85.7 MB
    code, peak_mb = _child_peak_rss(
        ["-m", "chaosco.cli", "simulate-hedge", "--payoff", "digital:0", "--N-list", "256",
         "--samples", "50000", "--workers", "2", "--out", str(tmp_path / "hedge.csv")])
    assert code == EXIT_OK
    assert peak_mb < 78.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is KiB on Linux")
def test_simulate_hedge_sampler_pipeline_peak_memory(tmp_path):
    # the benchmark's seven-grid hedge on two threads holds two 8 MB block
    # buffers: 54.6 MB measured, where a ring of two stream buffers and the
    # slot buffer took 63.2 MB and two lanes of two buffers 71.9 MB
    code, peak_mb = _child_peak_rss(
        ["-m", "chaosco.cli", "simulate-hedge", "--payoff", "digital:0",
         "--N-list", "4,8,16,32,64,128,256", "--samples", "50000", "--workers", "2",
         "--out", str(tmp_path / "hedge.csv")])
    assert code == EXIT_OK
    assert peak_mb < 67.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is KiB on Linux")
def test_simulate_hedge_peak_memory_same_at_one_and_two_threads(tmp_path):
    # one stream buffer and one slot buffer at every --workers: the sampler
    # thread adds no block buffer (54.1 MB on one thread, 54.6 MB on two)
    peaks = {}
    for workers in ("1", "2"):
        code, peaks[workers] = _child_peak_rss(
            ["-m", "chaosco.cli", "simulate-hedge", "--payoff", "digital:0",
             "--N-list", "4,8,16,32,64,128,256", "--samples", "50000", "--workers", workers,
             "--out", str(tmp_path / f"hedge{workers}.csv")])
        assert code == EXIT_OK
    assert peaks["2"] < 57.0
    assert abs(peaks["2"] - peaks["1"]) <= 1.5


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is KiB on Linux")
def test_decomposition_evaluation_peak_memory():
    # 400,000 paths on 4 slots (12.8 MB of increments) evaluated 4096 at a
    # time: 53 MB measured, where whole-batch tables per term took 134 MB
    script = "\n".join([
        "from chaosco import clark_ocone as co, montecarlo as mc",
        "grid = mc.GridSpec(1.0, 4)",
        "xi = mc.sample_paths(grid, 400_000, seed=3).increments",
        "payoff = mc.PolynomialPayoff((1.0, 0.0, 0.0, 0.0, 0.25))",
        "d = co.decompose(mc.coeffs_terminal(payoff, grid, payoff.degree))",
        "assert co.evaluate_decomposition(d, xi).shape == (400_000,)",
    ])
    code, peak_mb = _child_peak_rss(["-c", script])
    assert code == 0
    assert peak_mb < 64.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is KiB on Linux")
def test_expand_peak_memory(tmp_path):
    # 125,970 indexes: the composition tables are built one degree at a time
    # and turned into tuples 4096 rows at a time
    code, peak_mb = _child_peak_rss(
        ["-m", "chaosco.cli", "expand", "--payoff", "digital:0", "--N0", "8",
         "--max-degree", "12", "--out", str(tmp_path / "expand.csv")])
    assert code == EXIT_OK
    assert peak_mb < 64.0


def _csv_rendering(command, cfg, columns, rows, comments=(), trailer=()):
    """The csv.writer rendering of a table that the CLI must reproduce byte for byte."""
    buf = io.StringIO()
    for line in [*cli._header_lines(command, cfg), *comments]:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    for line in trailer:
        buf.write(f"{line}\n")
    return buf.getvalue()


def _resolved(argv):
    args = cli.build_parser().parse_args(argv)
    return cli.resolve_config(args.command, args)


def test_verify_bound_and_decompose_bytes_match_csv_module(tmp_path):
    out = tmp_path / "out.csv"
    common = ["--payoff", "poly:0,0,1", "--N0", "3", "--max-degree", "4", "--out", str(out)]
    f = coeffs_terminal(PolynomialPayoff((0.0, 0.0, 1.0)), GridSpec(1.0, 3), 4)

    argv = ["verify-bound", *common]
    assert main(argv) == EXIT_OK
    cfg = _resolved(argv)
    rows = []
    for n, n1, s, r in itertools.product(cfg["order_n_list"], cfg["N1_list"],
                                         cfg["sobolev_s_list"], cfg["interp_r_list"]):
        check = verify_bound(f, n, n1, s, r)
        rows.append(("poly:0,0,1", n, n1, format(s, "g"), format(r, "g"),
                     format(check.lhs, ".17g"), format(check.rhs, ".17g"),
                     str(check.holds).lower(), format(check.slack, ".17g")))
    columns = ["payoff", "n", "N1", "s", "r", "lhs", "rhs", "holds", "slack"]
    text = out.read_text()
    assert text == _csv_rendering("verify-bound", cfg, columns, rows)
    assert '\n"poly:0,0,1",1,4,-1,0,' in text

    argv = ["decompose", *common]
    assert main(argv) == EXIT_OK
    d = decompose(f)
    rows = [(term.ell, term.m, oracles.format_canonical(a), format(c, ".17g"))
            for term in d.terms for a, c in term.integrand.items()]
    assert any(len(row[2].split(",")) > 1 for row in rows)
    assert out.read_text() == _csv_rendering(
        "decompose", _resolved(argv), ["ell", "m", "multiindex", "coefficient"], rows,
        comments=[f"mean={format(d.mean, '.17g')}"])


def _verify_random_rendering(cfg):
    """verify-bound --payoff random as it was written: every case drawn first,
    then one ``verify_bound`` per row, rendered by csv.writer."""
    rng = np.random.Generator(np.random.Philox(key=cfg["seed"]))
    grid = GridSpec(cfg["T"], cfg["N0"])
    cases = [(f"random-{i:03d}", cli._random_expansion(rng, grid, cfg["max_degree"]))
             for i in range(cfg["cases"])]
    rows = []
    for (label, f), n, n1, s, r in itertools.product(
            cases, cfg["order_n_list"], cfg["N1_list"], cfg["sobolev_s_list"],
            cfg["interp_r_list"]):
        check = verify_bound(f, n, n1, s, r)
        rows.append((label, n, n1, format(s, "g"), format(r, "g"), format(check.lhs, ".17g"),
                     format(check.rhs, ".17g"), str(check.holds).lower(),
                     format(check.slack, ".17g")))
    columns = ["payoff", "n", "N1", "s", "r", "lhs", "rhs", "holds", "slack"]
    return _csv_rendering("verify-bound", cfg, columns, rows)


def test_verify_bound_memory_does_not_grow_with_cases(tmp_path):
    # cases are drawn and their rows written one at a time: the peak at 400
    # cases stays near the peak at 100 (it was 4x, about 0.1 MB per case)
    def run(cases):
        out = tmp_path / f"vb{cases}.csv"
        argv = ["verify-bound", "--payoff", "random", "--N0", "2", "--max-degree", "4",
                "--cases", str(cases), "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, out.read_text(), _resolved(argv)

    run(2)  # the tail-mass tables and other per-process caches
    peak100, text100, cfg100 = run(100)
    peak400, text400, _ = run(400)
    assert peak400 < 1.5 * peak100
    assert text100 == _verify_random_rendering(cfg100)
    # the first 100 cases are the same draws, so the same rows
    body100 = text100.split("slack\n", 1)[1]
    assert text400.split("slack\n", 1)[1].startswith(body100)


def test_verify_bound_failed_row_exits_numerical(tmp_path, monkeypatch):
    # no bound of this suite fails, so the rule is forced to fail every
    # s = 400 row: their lhs is above 1e100, every s = 0 lhs below 1
    holds = clark_ocone.bound_holds
    monkeypatch.setattr(clark_ocone, "bound_holds",
                        lambda lhs, rhs: lhs < 1e100 and holds(lhs, rhs))
    out = tmp_path / "vb.csv"
    argv = ["verify-bound", "--payoff", "digital:0", "--N0", "1", "--max-degree", "6",
            "--sobolev-s-list", "0,400", "--out", str(out)]
    assert main(argv) == EXIT_NUMERICAL
    body = _rows(str(out))[1:]
    assert len(body) == 3 * 7 * 2 * 3
    assert [r[7] for r in body] == [{"0": "true", "400": "false"}[r[3]] for r in body]
    # every row of a random suite is written before the failed one decides the exit
    assert main(["verify-bound", "--payoff", "random", "--N0", "1", "--max-degree", "6",
                 "--cases", "2", "--sobolev-s-list", "400,0", "--out", str(out)]
                ) == EXIT_NUMERICAL
    assert len(_rows(str(out))) == 1 + 2 * 3 * 7 * 2 * 3


def _exact_refined_norm(coeffs, n, n1, s):
    """err_norm_refined of an N0 = 1 expansion at an integer s, per coefficient in Fractions.

    S(v, n, N1) N1^v = sum_{j<v-n} C(v, j) sum_{l<N1} l^j (tail_mass's sum);
    the square root of the exact sum is taken once, after an exact power-of-4
    rescaling into float range.
    """
    squared = Fraction(0)
    for a, c in coeffs.items():
        v = sum(a)
        mass = sum(math.comb(v, j) * sum(l**j for l in range(n1)) for j in range(v - n))
        squared += Fraction(1 + v) ** s * Fraction(c) ** 2 * Fraction(mass, n1**v)
    half = (squared.numerator.bit_length() - squared.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(squared / Fraction(4) ** half), half)


def test_verify_bound_large_sobolev_index_stays_finite(tmp_path):
    # (1 + |a|)^400 overflows a float at degree 5; the scaled class sum does not
    out = tmp_path / "vb.csv"
    argv = ["verify-bound", "--payoff", "digital:0", "--N0", "1", "--max-degree", "6",
            "--sobolev-s-list", "0,400", "--out", str(out)]
    with np.errstate(over="raise", invalid="raise"):
        assert main(argv) == EXIT_OK
    body = _rows(str(out))[1:]
    assert len(body) == 3 * 7 * 2 * 3 and all(r[7] == "true" for r in body)
    coeffs = coeffs_terminal(DigitalPayoff(0.0), GridSpec(1.0, 1), 6).coeffs
    for _, n, n1, s, _, lhs, _, _, _ in body:
        want = _exact_refined_norm(coeffs, int(n), int(n1), int(s))
        assert math.isfinite(float(lhs)) and float(lhs) == pytest.approx(want, rel=1e-12)
    assert max(float(r[5]) for r in body) > 1e150
    # at s = 1000 the norm itself is not a float: a numerical failure
    argv[argv.index("0,400")] = "1000"
    assert main(argv) == EXIT_NUMERICAL


def test_sobolev_overflow_names_quantity_row_and_index(tmp_path, capsys):
    # 6^(s/2) overflows a float from s = 792.3 on, but the error norm and
    # its r = 0 bound at s = 793 are floats: both are taken in log space there
    out, failed = tmp_path / "vb.csv", tmp_path / "failed.csv"
    base = ["verify-bound", "--payoff", "digital:0", "--N0", "1", "--max-degree", "6"]
    argv = base + ["--sobolev-s-list", "793", "--interp-r-list", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    coeffs = coeffs_terminal(DigitalPayoff(0.0), GridSpec(1.0, 1), 6).coeffs
    body = _rows(str(out))[1:]
    assert len(body) == 3 * 7
    for _, n, n1, _, _, lhs, rhs, holds, _ in body:
        want = _exact_refined_norm(coeffs, int(n), int(n1), 793)
        assert float(lhs) == pytest.approx(want, rel=1e-12) and want > 1e300
        assert holds == "true" and float(rhs) < math.inf
    # beyond, the failure names the quantity, its row and s, and writes nothing
    cases = [
        (["--sobolev-s-list", "1000"], "(1, 4, 1000.0, 0.0): the error norm", "1000.0"),
        (["--sobolev-s-list", "0,1e308"], "(1, 4, 1e+308, 0.0): the error norm", "1e+308"),
        (["--sobolev-s-list", "794", "--interp-r-list", "0,1", "--order-n-list", "1",
          "--N1-list", "1"], "(1, 1, 794.0, 1.0): the bound", "794.0"),
    ]
    for extra, row, s in cases:
        assert main(base + extra + ["--out", str(failed)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"chaosco: numerical failure: row (n, N1, s, r) = {row} overflows a float: "
            f"Sobolev index s={s} is too large\n")
        assert not failed.exists()


@pytest.mark.parametrize("argv, what", [
    (["rate-sweep", "--payoff", "digital:0", "--N1-list", f"4,{2**40}"],
     f"power sums over {2**40} fine slots need {3 * 8 * 2**40} bytes"),
    (["simulate-hedge", "--payoff", "digital:0", "--N-list", f"4,{2**40}", "--samples", "1"],
     f"block buffers of 1 paths on {2**40} slots need {2 * 8 * 2**40} bytes"),
    (["simulate-hedge", "--payoff", "occupation", "--N-list", f"4,{2**40}"],
     f"slot powers of degree 20 on {2**40} slots need {42 * 8 * 2**40} bytes"),
])
def test_slot_sized_arrays_refused_before_allocating(tmp_path, capsys, argv, what):
    # each would hold terabytes; if the check were missing, the allocation
    # would fail at once rather than fill memory
    out = tmp_path / "big.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "invalid configuration" in err and what in err
    assert not out.exists()


def test_startup_imports_no_thread_pool_or_json():
    # concurrent.futures is imported for a multi-threaded run and json for a
    # config file; importing the CLI pays for neither
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, chaosco.cli; "
            "print(sorted({'concurrent.futures', 'json'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


def test_write_table_matches_csv_module(tmp_path):
    out = tmp_path / "table.csv"
    cfg = {"payoff": "poly:0,0,1", "N1_list": [4, 8], "out": str(out)}
    values = [0.1, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]
    rows = [(n1, x, -x, n1 % 2 == 0) for n1, x in enumerate(values, start=1)]
    cli._write_table("rate-sweep", cfg, ["N1", "error_norm", "bound", "holds"],
                     "%d,%.17g,%.17g,%s\n",
                     [(n1, x, y, cli._HOLDS[holds]) for n1, x, y, holds in rows],
                     comments=["method=a,b"], trailer=["slope=nan"])
    expected = [(n1, format(x, ".17g"), format(y, ".17g"), str(holds).lower())
                for n1, x, y, holds in rows]
    assert out.read_text() == _csv_rendering(
        "rate-sweep", cfg, ["N1", "error_norm", "bound", "holds"], expected,
        comments=["method=a,b"], trailer=["slope=nan"])


def test_csv_field_matches_csv_module():
    labels = ["random-000", "poly:0,0,1", "digital:0.5", 'say "hi"', "a\nb", "a\rb",
              " lead", "tab\there", "", "quote\",\"comma"]
    for label in labels:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([label, 1])
        assert cli._csv_field(label) + ",1\n" == buf.getvalue()
