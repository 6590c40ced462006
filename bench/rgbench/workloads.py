"""The benchmark's workloads: inputs from a seed, one op, and its check.

Every workload is a closed loop with one client: the next op starts when
the previous one returns.  Inputs are drawn from ``random.Random`` seeded
with the workload name and the seed, so a seed gives the same inputs in
every run.  Each check raises :class:`Mismatch` when an op's output is
wrong and otherwise returns the names of the oracles it applied.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from rgdwpf import bethe, cli, partition

from .oracles import (
    PRIMES,
    det_mod,
    j_spin_half_mod,
    quad_residual_max,
    residue,
    z_permanent_mod,
)


class Mismatch(Exception):
    """An op's output disagrees with its oracle."""


@dataclass(frozen=True)
class Workload:
    name: str
    #: The op_ms.tail percentile, fixed so that it keeps its meaning when a
    #: faster program completes more ops (see ``stats.tail_percentile``).
    tail_cap: float
    #: ``make_inputs(rng)`` returns the input pool; the first input is
    #: used for the untimed warm-up op only.
    make_inputs: Callable
    #: ``op(input, out_path)`` is the timed call into the program.
    op: Callable
    #: ``check(op_index, input, result, out_path)`` runs after the timed loop.
    check: Callable
    #: ``probe(input)`` is called on inputs outside the op spans of a traced run.
    probe: Callable | None = None

    def inputs(self, seed: int) -> list:
        return self.make_inputs(random.Random(f"{self.name}:{seed}"))


def _quiet_cli(argv) -> int:
    # cli.run writes error documents to stdout, which carries the result line
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


# det-highspin and det-wide: exact z_determinant on random instances.

def _instances(two_s: int, n: int, count: int):
    def make(rng):
        return [partition.random_instance(two_s, n, rng) for _ in range(count)]
    return make


def _z_determinant(inp, out):
    system, nu = inp
    return partition.z_determinant(system, nu).value


#: Every op is checked modulo two primes; every EXACT_EVERY-th op also
#: against the exact permanent route, which costs about four ops.
EXACT_EVERY = 128


def _check_highspin(index, inp, value, out):
    system, nu = inp
    for p in PRIMES:
        if residue(value, p) != z_permanent_mod(system.two_s, system.epsilons, nu, p):
            raise Mismatch(f"Z differs from the Cauchy permanent modulo {p}")
    if index % EXACT_EVERY:
        return ("permanent mod p",)
    if partition.z_permanent(system, nu).value != value:
        raise Mismatch("Z differs from z_permanent")
    return ("permanent mod p", "z_permanent exact")


def _check_wide(index, inp, value, out):
    system, nu = inp
    for p in PRIMES:
        if residue(value, p) != det_mod(j_spin_half_mod(system.epsilons, nu, p), p):
            raise Mismatch(f"Z differs from det J modulo {p}")
    return ("det J mod p",)


# verify-identity: the CLI's identity sweep, one trial per grid point.
# An op is one pass over the grid: the four points take about 25, 63, 113
# and 67 ms, and a median over single calls would jump between them.

IDENTITY_GRID = ((1, 10), (2, 9), (4, 7), (6, 5))


def _identity_inputs(rng):
    return [tuple((two_s, n, rng.randrange(2 ** 31)) for two_s, n in IDENTITY_GRID)
            for _ in range(256)]


def _identity_out(out, two_s):
    return out.with_name(f"{out.stem}-{two_s}.json")


def _verify_identity(sweeps, out):
    return tuple(
        _quiet_cli(["verify", "--suite", "identity", "--two-s", str(two_s),
                    "--n", str(n), "--trials", "1", "--seed", str(seed),
                    "--out", str(_identity_out(out, two_s))])
        for two_s, n, seed in sweeps)


def _check_identity(index, sweeps, codes, out):
    for (two_s, n, _), code in zip(sweeps, codes):
        if code != 0:
            raise Mismatch(f"(2S={two_s}, N={n}): exit code {code}")
        doc = json.loads(_identity_out(out, two_s).read_text())
        if doc["passed"] != 1 or doc["failed"] != 0:
            raise Mismatch(f"(2S={two_s}, N={n}): passed {doc['passed']}, "
                           f"failed {doc['failed']}")
    return ("exit 0 and passed 1",)


# bethe-quad: the quadratic Bethe solver through the CLI.

BETHE_G = 0.5
BETHE_LEVELS = tuple(range(24))
#: The solver's documented accuracy; a residual at or above it is a failure.
BETHE_TOL = 1e-12


def _occupations(rng):
    states = []
    for _ in range(512):
        occupied = set(rng.sample(BETHE_LEVELS, rng.randint(1, len(BETHE_LEVELS) - 1)))
        states.append("".join("1" if i in occupied else "0" for i in BETHE_LEVELS))
    return states


def _bethe_quad(bits, out):
    return _quiet_cli(["bethe", "--g", str(BETHE_G),
                       "--eps", ",".join(str(e) for e in BETHE_LEVELS),
                       "--occupation", bits, "--route", "quad", "--out", str(out)])


def _check_bethe(index, bits, code, out):
    if code != 0:
        raise Mismatch(f"exit code {code}")
    lambdas = json.loads(out.read_text())["quad"]["lambdas"]
    if len(lambdas) != len(BETHE_LEVELS):
        raise Mismatch(f"{len(lambdas)} lambdas for {len(BETHE_LEVELS)} levels")
    worst = quad_residual_max(lambdas, BETHE_LEVELS, BETHE_G)
    if not worst < BETHE_TOL:
        raise Mismatch(f"quadratic residual {worst:.3e} >= {BETHE_TOL:g}")
    return ("numpy residual < 1e-12",)


def _richardson_probe(bits):
    levels = [i for i, b in enumerate(bits) if b == "1"]
    model = bethe.CouplingModel(g=BETHE_G, eps=BETHE_LEVELS, m=len(levels))
    bethe.solve_richardson(model, levels)


WORKLOADS = {w.name: w for w in (
    Workload("det-highspin", 95.0, _instances(6, 6, 512), _z_determinant, _check_highspin),
    Workload("det-wide", 75.0, _instances(1, 36, 128), _z_determinant, _check_wide),
    Workload("verify-identity", 75.0, _identity_inputs, _verify_identity, _check_identity),
    Workload("bethe-quad", 95.0, _occupations, _bethe_quad, _check_bethe,
             probe=_richardson_probe),
)}
