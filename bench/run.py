"""Run one rgdwpf benchmark workload and print its metrics.

    python3 bench/run.py --workload det-wide --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5

Run it from anywhere in a source checkout: the program is imported from
the checkout's ``src/``.  One process runs one workload, single-threaded,
as a closed loop for ``--seconds``; every op is then checked by the
oracles in ``rgbench/oracles.py``.  Times are wall times rescaled to a
reference CPU speed by the yardstick loop run between ops (see
``rgbench/yardstick.py`` and README.md).  The last line of standard output is
the result: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it is a report with the environment, the tail percentile and its
sample count, and a verdict per op.  ``--trace 0`` gives the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` gives its per-layer metrics,
from wrappers set on the program's module attributes, and writes the
spans to ``.bench_out/``.  ``--workload all`` runs every workload in its
own process, one after the other, and prints a table.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from rgbench.yardstick import yardstick

# One thread per workload process; BLAS reads these when numpy loads,
# which is not before main() imports the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def run_all(args, spec) -> int:
    """Each workload in its own process, one after the other; prints a table."""
    ok = True
    print(f"{'workload':<16} {'metric':<36} {'value':>14}  unit")
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{w['name']:<16} run failed with exit code {proc.returncode}")
            sys.stderr.write(proc.stderr)
            ok = False
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            print(f"{w['name']:<16} {name:<36} {m['value']:>14.6g}  {m['unit']}")
        print(f"{w['name']:<16} {'fail_ratio':<36} {report['fail_ratio']:>14.6g}  ratio")
        print(f"{w['name']:<16} tail is p{report['tail_pct']:g} of {report['ops']} ops, "
              f"{report['tail_beyond']} beyond")
        print(f"{w['name']:<16} verdicts {report['verdicts']}")
        print(f"{w['name']:<16} oracles {report['oracles']}")
        for f in report["failures"]:
            print(f"{w['name']:<16} op {f['op']} failed: {f['error'].strip().splitlines()[-1]}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "rgdwpf" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'rgdwpf'} is missing", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")

    sys.path.insert(0, str(SRC))
    before = yardstick()
    t0 = time.perf_counter()
    import rgdwpf
    from rgbench import harness
    imported = (time.perf_counter() - t0, before, yardstick())
    if Path(rgdwpf.__file__).resolve().parent != SRC / "rgdwpf":
        print(f"rgdwpf imported from {rgdwpf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return harness.run_workload(args, spec, ROOT, imported)


if __name__ == "__main__":
    sys.exit(main())
