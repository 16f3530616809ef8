"""Record the reference outputs in refs/ from the current source tree.

    python3 perfbench/make_refs.py

Run it only at a commit whose outputs are the reference; the references in
refs/ were recorded at the seed commit of this benchmark.  Seed-dependent
operations are recorded at workloads.DEFAULT_SEED.
"""

from __future__ import annotations

import lzma
import sys
import tempfile
from pathlib import Path

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    env = run.child_env()
    refs = run.HERE / "refs"
    refs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        out, log = Path(tmp) / "out.csv", Path(tmp) / "log"
        for op in (op for ops in WORKLOADS.values() for op in ops if op.ref):
            usage = run.spawn(run.op_argv(op, DEFAULT_SEED, out), env, log, run.OP_TIMEOUT_S)
            if usage.exit_code != 0:
                print(f"{op.name} failed:\n{log.read_text()}", file=sys.stderr)
                return 1
            with lzma.open(refs / f"{op.ref}.csv.xz", "wb", preset=9) as fh:
                fh.write(out.read_bytes())
            print(f"{op.ref}: {out.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
