"""The benchmark's workloads: fixed lists of operations, one pass each.

Every operation is what a chaosco user runs as a batch job: one CLI command
(``kind="cli"``) or one short library script from ``libops.py``
(``kind="lib"``).  Each runs in a fresh interpreter, so start-up and the
per-process tail-mass caches are paid on every run, as users pay them.

Each workload is carried by a different layer, so that an optimisation of
one layer moves one workload and leaves the others unchanged:

* ``sparse-wall``: the combinatorial wall.  Index sets grow like C(N+d, d);
  the time goes to ``multiindex`` enumeration, coefficient construction,
  Sobolev norms, refinement and the ``clark_ocone`` per-coefficient loops.
  Tail masses stay at v <= 12.
* ``high-degree``: tiny index sets (N0 = 1) at degrees up to 1000.  The time
  goes to ``clark_ocone`` tail masses and ``hermite`` half-line integrals,
  and start-up is the largest share of any workload.
* ``mc-hedge``: Philox path sampling, the delta-hedge loop and pathwise
  ``chaos.evaluate`` on small expansions; no large index set is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: the CLI's default --seed; seed-dependent references were recorded at it
DEFAULT_SEED = 20240824

DIGITAL_HEDGE_N = "4,8,16,32,64,128,256"


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``args`` follow the program name (CLI) or name the ``libops`` operation.
    ``seeded`` operations receive ``--seed``; ``random`` ones also draw their
    values from it.  ``ref`` names the reference in ``refs/`` the output is
    compared with, for a ``random`` operation only at DEFAULT_SEED.
    ``oracle`` names a check in ``checks.ORACLES`` that holds at every seed.
    ``same_as`` names an earlier operation of the pass whose output this one
    must reproduce byte for byte.
    """

    name: str
    kind: str
    args: Tuple[str, ...]
    seeded: bool = False
    random: bool = False
    ref: Optional[str] = None
    oracle: Optional[str] = None
    same_as: Optional[str] = None

    def argv(self, seed: int, out: str) -> Tuple[str, ...]:
        seed_args = ("--seed", str(seed)) if self.seeded else ()
        return self.args + seed_args + ("--out", out)


def _cli(name, *args, **kw) -> Op:
    return Op(name, "cli", tuple(args), **kw)


WORKLOADS = {
    "sparse-wall": (
        _cli("expand-digital", "expand", "--payoff", "digital:0", "--N0", "8",
             "--max-degree", "12", ref="expand-digital"),
        _cli("decompose-occupation", "decompose", "--payoff", "occupation",
             "--N0", "6", "--max-degree", "12", ref="decompose-occupation"),
        _cli("verify-digital", "verify-bound", "--payoff", "digital:0", "--N0", "6",
             "--max-degree", "10", seeded=True, ref="verify-digital",
             oracle="holds"),
        _cli("verify-random", "verify-bound", "--payoff", "random", "--N0", "2",
             "--max-degree", "4", "--cases", "100", seeded=True,
             random=True, ref="verify-random", oracle="verify_random"),
        # N0=4, d=12: 785 coarse coefficients refined by N1=2 into the 47,617
        # of the N0=8 expansion, so expand-digital's reference checks it
        Op("refine-digital", "lib", ("refine-digital",), oracle="refine"),
    ),
    "high-degree": (
        _cli("sweep-digital-1000", "rate-sweep", "--payoff", "digital:0",
             "--max-degree", "1000", ref="sweep-digital-1000", oracle="holds"),
        _cli("sweep-digital-shifted", "rate-sweep", "--payoff", "digital:0.5",
             "--max-degree", "400", "--N1-list", "4,16,64,256,1024",
             ref="sweep-digital-shifted", oracle="holds"),
        # the criterion-09 configuration
        _cli("sweep-digital-20", "rate-sweep", "--payoff", "digital:0",
             "--max-degree", "20", ref="sweep-digital-20", oracle="holds"),
        _cli("sweep-cubic", "rate-sweep", "--payoff", "poly:0,0,0,1", "--order-n", "2",
             "--sobolev-s", "1", "--interp-r", "0.5",
             "--N1-list", "4,16,64,256,1024,4096", ref="sweep-cubic", oracle="holds"),
        _cli("hedge-occupation", "simulate-hedge", "--payoff", "occupation",
             "--max-degree", "60", "--N-list", "16,64,256,1024", seeded=True,
             ref="hedge-occupation"),
    ),
    "mc-hedge": (
        # the largest paths array of any operation: samples x 256 doubles
        _cli("hedge-digital-w1", "simulate-hedge", "--payoff", "digital:0",
             "--N-list", DIGITAL_HEDGE_N, "--samples", "50000", "--workers", "1",
             seeded=True, random=True, ref="hedge-digital", oracle="hedge_digital"),
        _cli("hedge-digital-w2", "simulate-hedge", "--payoff", "digital:0",
             "--N-list", DIGITAL_HEDGE_N, "--samples", "50000", "--workers", "2",
             seeded=True, random=True, same_as="hedge-digital-w1"),
        _cli("hedge-quadratic", "simulate-hedge", "--payoff", "poly:0,0,1",
             seeded=True, random=True, ref="hedge-quadratic", oracle="hedge_quadratic"),
        Op("mc-norms", "lib", ("mc-norms",), seeded=True, random=True, ref="mc-norms",
           oracle="mc_norms"),
    ),
}
