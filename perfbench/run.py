"""chaosco's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is not installed, so
every child runs with PYTHONPATH=src.  Each operation of a workload (see
workloads.py) runs in a fresh interpreter, one at a time: a closed loop with
one client, start-up included, as users run chaosco's batch jobs.  BLAS and
OpenMP thread counts are pinned to 1.

A run first imports the package once, untimed, so that .pyc compilation is
not timed, then times SETUP_SAMPLES fresh imports of ``chaosco.cli``.  It then
runs whole passes over the workload until the next pass would end after
``--seconds`` (at least MIN_PASSES), checking every output (checks.py).  With
``--trace 1`` untraced and traced passes alternate; the traced ones run each
operation under trace.py and give the per-layer metrics.

End-to-end metrics, over the untraced passes of a run:

* ``wall_s``: median wall time of a pass (see ``median_pass``);
* ``wall_tail_s``: see ``tail``; the percentile and sample count are printed;
* ``setup_s``: median time for a fresh interpreter to import ``chaosco.cli``;
* ``cpu_s``: median user plus system time of a pass's children;
* ``peak_rss_mb``: the largest peak RSS of any one operation;
* ``success_ratio``: operations that passed every check over those
  attempted; one minus the failure ratio, which would read 0.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import checks
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

SETUP_SAMPLES = 5
#: at least 11 operation samples per run, so wall_tail_s has ten beyond it
MIN_PASSES = 3
TAIL_BEYOND = 10
OP_TIMEOUT_S = 60.0
#: no operation starts or runs past this; a run must end within 180 s
RUN_DEADLINE_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
IMPORT_CLI = "import chaosco.cli"
#: what the installed ``chaosco`` console script runs
RUN_CLI = "import sys; from chaosco.cli import main; sys.exit(main())"

END_TO_END = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

_SELF_S = [
    "multiindex.enumerate_upto", "multiindex.enumerate_matching",
    "hermite.gauss_hermite_rule", "hermite.eval_all", "hermite.indicator_integral",
    "chaos.construct", "chaos.sobolev_norm", "chaos.refine", "chaos.evaluate",
    "chaos.write_expansion_csv",
    "clark_ocone.decompose", "clark_ocone.err_norm_refined", "clark_ocone.tail_mass",
    "clark_ocone.error_norm_bound", "clark_ocone.evaluate_decomposition",
    "montecarlo.hermite_expand_terminal", "montecarlo.coeffs_terminal",
    "montecarlo.coeffs_occupation_time", "montecarlo.occupation_error_norm",
    "montecarlo.sample_paths", "montecarlo.tracking_error_hedge", "montecarlo.mc_err_norm",
    "cli.resolve_config", "cli.handler", "cli.write",
]
_COUNTS = [
    "multiindex.enumerate_upto.indexes", "multiindex.enumerate_matching.indexes",
    "hermite.gauss_hermite_rule.calls", "hermite.eval_all.values",
    "hermite.indicator_integral.calls",
    "chaos.construct.coeffs", "chaos.sobolev_norm.calls",
    "chaos.sobolev_norm.coeffs_visited", "chaos.refine.fine_coeffs",
    "chaos.evaluate.term_paths", "chaos.write_expansion_csv.rows",
    "clark_ocone.decompose.terms", "clark_ocone.err_norm_refined.calls",
    "clark_ocone.err_norm_refined.coeffs_visited", "clark_ocone.tail_mass.calls",
    "clark_ocone.error_norm_bound.calls", "clark_ocone.verify_bound.rows",
    "clark_ocone.verify_bound.failed",
    "montecarlo.coeffs_terminal.coeffs", "montecarlo.sample_paths.normals",
    "montecarlo.sample_paths.blocks", "montecarlo.tracking_error_hedge.path_steps",
    "cli.output_bytes",
]
#: ratio metric -> (numerator, denominator), useful outcomes over attempts
_RATIOS = {
    "clark_ocone.err_norm_refined.nonzero_ratio":
        ("clark_ocone.tail_mass.nonzero", "clark_ocone.err_norm_refined.coeffs_visited"),
    "clark_ocone.tail_mass.cache_hit_ratio":
        ("clark_ocone.tail_mass.cache_hits", "clark_ocone.tail_mass.cache_lookups"),
    "clark_ocone.error_norm_bound.distinct_ratio":
        ("clark_ocone.error_norm_bound.distinct", "clark_ocone.error_norm_bound.calls"),
    "montecarlo.coeffs_terminal.kept_ratio":
        ("montecarlo.coeffs_terminal.coeffs", "montecarlo.coeffs_terminal.enumerated"),
}
PER_LAYER = {
    **{f"{span}.self_s": "s" for span in _SELF_S},
    **{name: "count" for name in _COUNTS},
    **{name: "ratio" for name in _RATIOS},
    "bench.trace_overhead_ratio": "ratio",
}


@dataclass
class OpRun:
    op: Op
    wall: float
    cpu: float
    rss_mb: float
    problems: List[str]
    trace: Optional[dict] = None


@dataclass
class Pass:
    traced: bool
    runs: List[OpRun] = field(default_factory=list)
    complete: bool = False

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHAOSCO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


@dataclass
class Usage:
    wall: float
    cpu: float
    rss_mb: float
    exit_code: Optional[int]  # None: killed at the timeout


def spawn(argv: List[str], env, log: Path, timeout: float) -> Usage:
    """Run ``python3 argv`` in its own session; wall, CPU and peak RSS of that child."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, setsid=True,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fh.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, fh.fileno(), 2)])
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
        finally:
            os.close(pidfd)
        if timed_out:
            _kill(pid)
        # the child's own rusage: RUSAGE_CHILDREN would be a running maximum
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reaped = True
    finally:
        if not reaped:
            _kill(pid)
            os.wait4(pid, 0)
    return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 None if timed_out else os.waitstatus_to_exitcode(status))


def _kill(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def op_argv(op: Op, seed: int, out: Path, trace_path: Optional[Path] = None) -> List[str]:
    """Interpreter arguments that run ``op``, under trace.py if ``trace_path`` is given."""
    args = list(op.argv(seed, str(out)))
    if trace_path is not None:
        return [str(HERE / "trace.py"), str(trace_path), op.kind, *args]
    if op.kind == "cli":
        return ["-c", RUN_CLI, *args]
    return [str(HERE / "libops.py"), *args]


class Runner:
    def __init__(self, ops, seed: int, work: Path, deadline: float):
        self.ops = ops
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.verdicts: Dict[tuple, List[str]] = {}

    def timeout(self) -> float:
        return min(OP_TIMEOUT_S, self.deadline - time.perf_counter())

    def python(self, argv: List[str], name: str) -> Usage:
        return spawn(argv, self.env, self.work / f"{name}.log", self.timeout())

    def run_pass(self, traced: bool) -> Pass:
        result = Pass(traced)
        outputs: Dict[str, str] = {}
        for op in self.ops:
            if self.timeout() <= 0.0:
                return result
            result.runs.append(self.run_op(op, traced, outputs))
        result.complete = True
        return result

    def run_op(self, op: Op, traced: bool, outputs: Dict[str, str]) -> OpRun:
        out = self.work / f"{op.name}.out"
        trace_path = self.work / f"{op.name}.trace.json"
        for path in (out, trace_path):
            path.unlink(missing_ok=True)
        argv = op_argv(op, self.seed, out, trace_path if traced else None)
        usage = self.python(argv, op.name)
        run = OpRun(op, usage.wall, usage.cpu, usage.rss_mb, [])
        if usage.exit_code is None:
            run.problems = ["timed out"]
        elif usage.exit_code != 0:
            log = (self.work / f"{op.name}.log").read_text(errors="replace")
            run.problems = [f"exit code {usage.exit_code}: {log[-500:]}"]
        elif not out.is_file():
            run.problems = ["no output file"]
        else:
            text = out.read_text(encoding="utf-8")
            outputs[op.name] = text
            run.problems = self.verdict(op, text, outputs)
            if traced:
                run.trace = json.loads(trace_path.read_text())
        return run

    def verdict(self, op: Op, text: str, outputs: Dict[str, str]) -> List[str]:
        """Check an output; an output already seen is not parsed again."""
        if op.same_as is not None:
            return checks.check(op, text, self.seed, outputs)
        key = (op.name, hashlib.sha256(text.encode("utf-8")).digest())
        if key not in self.verdicts:
            self.verdicts[key] = checks.check(op, text, self.seed, outputs)
        return self.verdicts[key]


def measure_passes(runner: Runner, seconds: float, trace: bool) -> List[Pass]:
    """Whole passes until the next would end after ``seconds``; MIN_PASSES untraced."""
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        cycle = [runner.run_pass(traced=False)]
        if trace and cycle[0].complete:
            cycle.append(runner.run_pass(traced=True))
        passes += cycle
        if not all(p.complete for p in cycle):
            break
        untraced = sum(not p.traced for p in passes)
        elapsed = time.perf_counter() - start
        if (trace or untraced >= MIN_PASSES) and elapsed + sum(p.wall for p in cycle) > seconds:
            break
    return passes


def _by_op(passes: List[Pass], attr: str) -> Dict[str, List[float]]:
    by_op: Dict[str, List[float]] = {}
    for p in passes:
        for r in p.runs:
            by_op.setdefault(r.op.name, []).append(getattr(r, attr))
    return by_op


def median_pass(passes: List[Pass], attr: str = "wall") -> float:
    """A pass's median time: the sum of its operations' median times.

    On a host whose speed drifts from pass to pass, this is steadier than
    the median of whole-pass sums.
    """
    return sum(statistics.median(v) for v in _by_op(passes, attr).values())


def tail(passes: List[Pass]):
    """Pass time at the highest percentile with TAIL_BEYOND samples beyond it.

    One sample per operation run: the pass time had that run taken the time
    it did and every other operation its median time.  Returns the value, its
    percentile and the sample count.
    """
    by_op = _by_op(passes, "wall")
    medians = {name: statistics.median(walls) for name, walls in by_op.items()}
    total = sum(medians.values())
    samples = sorted(total + w - medians[name] for name, walls in by_op.items() for w in walls)
    rank = max(len(samples) - TAIL_BEYOND, 1)
    return samples[rank - 1], 100.0 * rank / len(samples), len(samples)


def per_layer(p: Pass) -> Dict[str, float]:
    """Per-layer metrics of one traced pass: spans and counts summed over its operations."""
    totals: Dict[str, float] = {}
    for r in p.runs:
        for span, v in r.trace["spans"].items():
            totals[f"{span}.calls"] = totals.get(f"{span}.calls", 0) + v["calls"]
            totals[f"{span}.self_s"] = totals.get(f"{span}.self_s", 0.0) + v["self_s"]
        for key, n in r.trace["counts"].items():
            totals[key] = totals.get(key, 0) + n
    out = {}
    for name in PER_LAYER:
        if name in _RATIOS:
            num, den = (totals.get(k, 0) for k in _RATIOS[name])
            out[name] = num / den if den else 0.0
        elif name != "bench.trace_overhead_ratio":
            out[name] = totals.get(name, 0)
    return out


def environment() -> dict:
    def read(path: Path) -> str:
        try:
            return path.read_text().strip()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip()
                  for line in read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = read(index / "size")

    head = read(ROOT / ".git" / "HEAD")
    rev = head
    if head.startswith("ref: "):
        ref = head[5:]
        rev = read(ROOT / ".git" / ref) or next(
            (line.split()[0] for line in read(ROOT / ".git" / "packed-refs").splitlines()
             if line.endswith(" " + ref)), "")
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_rev": rev or "unavailable",
        "src_sha256": src.hexdigest()[:16],
    }


def measure(args, work: Path) -> int:
    ops = WORKLOADS[args.workload]
    runner = Runner(ops, args.seed, work, time.perf_counter() + RUN_DEADLINE_S)
    # untimed: compiles the .pyc files every later interpreter loads
    setup = [runner.python(["-c", IMPORT_CLI], "setup") for _ in range(SETUP_SAMPLES + 1)]
    if any(u.exit_code != 0 for u in setup):
        log = (work / "setup.log").read_text(errors="replace")
        print(f"perfbench: `{IMPORT_CLI}` failed:\n{log}", file=sys.stderr)
        return 1
    setup_s = statistics.median(u.wall for u in setup[1:])

    passes = measure_passes(runner, args.seconds, args.trace)
    runs = [r for p in passes for r in p.runs]
    failed = [r for r in runs if r.problems]
    for op in ops:
        bad = [r for r in failed if r.op is op]
        if bad:
            print(f"FAILED {op.name} in {len(bad)} runs, first: " + "; ".join(bad[0].problems),
                  file=sys.stderr)
    untraced = [p for p in passes if p.complete and not p.traced]
    traced = [p for p in passes if p.complete and p.traced]

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {len(runs)} operations, {len(failed)} failed")
    for op in ops:
        done = [r for p in untraced for r in p.runs if r.op is op]
        if done:
            print(f"  {op.name:24s} median {statistics.median(r.wall for r in done):8.4f} s, "
                  f"peak {max(r.rss_mb for r in done):8.1f} MB, over {len(done)}")

    metrics: Dict[str, dict] = {}
    if untraced and not args.trace:
        tail_s, pct, n = tail(untraced)
        print(f"wall_tail_s is the p{pct:.0f} of {n} operation samples")
        values = {
            "wall_s": median_pass(untraced),
            "wall_tail_s": tail_s,
            "setup_s": setup_s,
            "cpu_s": median_pass(untraced, "cpu"),
            # the run's largest: the --workers 2 peak varies with thread timing
            "peak_rss_mb": max(r.rss_mb for p in untraced for r in p.runs),
            "success_ratio": (len(runs) - len(failed)) / len(runs),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    elif untraced and traced:
        layers = [per_layer(p) for p in traced]
        metrics = {k: {"value": statistics.median(layer[k] for layer in layers), "unit": u}
                   for k, u in PER_LAYER.items() if k != "bench.trace_overhead_ratio"}
        overhead = median_pass(traced) / median_pass(untraced)
        metrics["bench.trace_overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": not failed and bool(metrics),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chaosco" / "cli.py").is_file():
        print(f"perfbench: no chaosco source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run still kills and reaps its current child (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
