"""A fixed Fraction loop that gauges how fast the CPU runs right now.

On a shared host the same op takes from one to about two times its quiet
wall time, in phases of one to a few seconds that follow other tenants'
load.  A median over a run then depends on how much of the run fell in
slow phases, and moved by 10-35% from run to run.  Timing this loop next
to each op and rescaling the op's wall time to a CPU on which the loop
takes ``REFERENCE_S`` cancels most of the host's load.

The loop is exact rational arithmetic, like the program: small-integer
gcds, allocation and method dispatch.  Measured on the sandbox, its slow
phases slowed it by the same factor as the ops of every workload, to
within 3%; a loop of plain integer arithmetic slowed less than the ops,
and rescaling by it left the slow phases 16-19% slower.  The loop imports
nothing of the program, so it can also gauge the program's import.
"""

import time
from fractions import Fraction

#: The rescaled times are those of a CPU on which the loop takes this long;
#: it takes about this long on an idle 2-core Xeon sandbox.
REFERENCE_S = 1e-3
_TERMS = 450
#: The loop runs this many times per gauge, which halves the jitter of
#: one gauge against one 1 ms run.
_REPEATS = 2


def yardstick() -> float:
    """Mean wall time of one run of the fixed loop, in seconds."""
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        acc = Fraction(0)
        for i in range(1, _TERMS + 1):
            acc += Fraction(i, i + 7)
    return (time.perf_counter() - t0) / _REPEATS


def rescale(wall: float, before: float, after: float) -> float:
    """``wall`` at the reference speed, from the yardstick times around it."""
    return wall * 2 * REFERENCE_S / (before + after)
