"""The benchmark's output gate, run with the tests.

Every operation of every workload in ``perfbench/workloads.py`` runs once
in-process at the default seed, with no ``CHAOSCO_*`` variable set, and its
output must pass ``checks.check`` as it must in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chaosco import cli

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import checks  # noqa: E402
import libops  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_outputs_pass_their_checks(workload, tmp_path, monkeypatch):
    for name in [k for k in os.environ if k.startswith("CHAOSCO_")]:
        monkeypatch.delenv(name)
    outputs = {}
    for op in WORKLOADS[workload]:
        out = tmp_path / f"{op.name}.csv"
        run = cli.main if op.kind == "cli" else libops.main
        assert run(list(op.argv(DEFAULT_SEED, str(out)))) == 0, op.name
        text = out.read_text(encoding="utf-8")
        assert checks.check(op, text, DEFAULT_SEED, outputs) == [], op.name
        outputs[op.name] = text  # what later same_as operations must reproduce


@pytest.mark.parametrize("args", [
    ["expand", "--payoff", "poly:0,0,1", "--N0", "2", "--max-degree", "4"],
    ["simulate-hedge", "--payoff", "digital:0", "--N-list", "2,4", "--samples", "100"],
])
def test_trace_sees_terminal_expansions(args, tmp_path):
    # coeffs_terminal and the hedge's mean reach hermite_expand_terminal through
    # the module, where trace.py's span wraps it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHAOSCO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    trace = tmp_path / "trace.json"
    subprocess.run([sys.executable, str(Path(PERFBENCH) / "trace.py"), str(trace), "cli",
                    *args, "--out", str(tmp_path / "out.csv")], env=env, check=True)
    spans = json.loads(trace.read_text(encoding="utf-8"))["spans"]
    assert spans["montecarlo.hermite_expand_terminal"]["calls"] >= 1
