"""The benchmark's output gate, run with the tests.

Every operation of every workload in ``perfbench/workloads.py`` runs once
in-process at the default seed, with no ``CHAOSCO_*`` variable set, and its
output must pass ``checks.check`` as it must in a benchmark run.
"""

import os
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
