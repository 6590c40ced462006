"""Spans around the program's layers, recorded from outside the program.

A wrapper is set on the module attribute that each caller looks up when
it runs (``partition.determinant`` for ``z_determinant``,
``checks.z_permanent`` for ``identity_sweep``, ...), so the program is
traced without a change to its code.  A name that no longer exists is
reported as absent.  Spans carry the op they belong to and their parent
span; they are kept in memory and written out when the run ends.
"""

import json
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

from rgdwpf import bethe, checks, cli, partition


def _bits(x) -> int:
    x = Fraction(x)
    return x.numerator.bit_length() + x.denominator.bit_length()


def _determinant_counts(counts, args, result):
    rows = args[0].entries
    counts["linalg.determinant.dim"] += len(rows)
    counts["linalg.determinant.input_bits"] += max(_bits(x) for row in rows for x in row)
    counts["linalg.determinant.result_bits"] += _bits(result)


def _permanent_counts(counts, args, result):
    # computed from the dimension, not counted inside the kernel
    counts["linalg.permanent.ryser_terms"] += 2 ** len(args[0].entries)


#: (span name, sites the wrapper is set on, extra counts taken after the call)
LAYERS = (
    ("cli.run", ((cli, "run"),), None),
    ("checks.identity_sweep", ((checks, "identity_sweep"),), None),
    ("partition.z_permanent", ((checks, "z_permanent"), (partition, "z_permanent")), None),
    ("partition.z_determinant", ((checks, "z_determinant"), (partition, "z_determinant")),
     None),
    ("gamma.build_gamma_table", ((partition, "build_gamma_table"),), None),
    ("partition.build_J_higher", ((partition, "build_J_higher"),), None),
    ("partition.structure_coefficients", ((partition, "structure_coefficients"),), None),
    ("linalg.determinant", ((partition, "determinant"), (checks, "determinant")),
     _determinant_counts),
    ("linalg.permanent", ((partition, "permanent"),), _permanent_counts),
    ("bethe.solve_quadratic_bethe", ((bethe, "solve_quadratic_bethe"),), None),
    ("bethe.quad_residuals", ((bethe, "quad_residuals"),), None),
    ("bethe.quad_jacobian", ((bethe, "quad_jacobian"),), None),
    ("bethe.solve_richardson", ((bethe, "solve_richardson"),), None),
)

# span record fields
OP, PARENT, NAME, START, END = range(5)


class Tracer:
    """Installs the layer wrappers on demand and records their spans."""

    def __init__(self, layers=LAYERS):
        self.spans = []
        self.counts = defaultdict(float)
        self.absent = []
        self._stack = []
        self._op = None
        self._sites = []
        for name, sites, extra in layers:
            for module, attr in sites:
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"{module.__name__}.{attr}")
                else:
                    self._sites.append((module, attr, original,
                                        self._wrap(name, original, extra)))

    def install(self):
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def begin(self, name, op=None):
        """Open a span; ``op`` starts a new root (an op or a probe call)."""
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([self._op, parent, name, perf_counter(), 0.0])

    def end(self):
        self.spans[self._stack.pop()][END] = perf_counter()

    def _wrap(self, name, fn, extra):
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if extra is not None:
                extra(self.counts, args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self) -> dict:
        """Per span name: total seconds, self seconds and calls."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for span, inner in zip(self.spans, child):
            entry = out[span[NAME]]
            entry["s"] += span[END] - span[START]
            entry["self_s"] += span[END] - span[START] - inner
            entry["calls"] += 1
        return out

    def write(self, path):
        """Write the spans as JSON lines: op, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
