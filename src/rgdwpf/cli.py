"""Command-line interface.

Subcommands: ``pf`` (partition function by either route), ``verify``
(identity / residue / limit / borchardt / boson sweeps), ``gamma``
(hierarchy dump), ``coeffs`` (structure-coefficient dump) and ``bethe``
(solve the quadratic or rapidity equations).

Every run writes one JSON document (schema ``rg-dwpf/1``) to stdout or
``--out``.  Numbers on the command line are strings like ``3``, ``-2/7``
or ``0.125`` so exact runs never touch binary floats.  ``--mode f64`` reads
them as floats and rounds each exact result once; only the float permanent
computes in floats, and only it takes complex literals such as ``1+2j``.
Exit codes: 0 success, 1 usage error, 2 check failure, 3 numerical failure.
"""

import argparse
import cmath
import json
import re
import sys
from fractions import Fraction
from functools import cache

from . import bethe, checks, gamma, partition
from .errors import NoConvergence, NonFiniteEntry, RGError
from .linalg import rounded, values_agree

SCHEMA = "rg-dwpf/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_exact(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"not an exact number: {text!r} ({exc})")


def _parse_f64(text: str):
    text = text.strip()
    try:
        value = float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):  # complex("1e400") is inf
        try:
            value = complex(text)
        except ValueError:
            value = None
    if value is None or not cmath.isfinite(value):
        raise _UsageError(f"not a finite float/complex number: {text!r}")
    return value


def _parse_scalar(text: str, mode: str):
    return _parse_exact(text) if mode == "exact" else _parse_f64(text)


def _parse_csv(text: str, mode: str) -> tuple:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise _UsageError("empty number list")
    return tuple(_parse_scalar(s, mode) for s in items)


def _checked(convert, accept, requirement: str):
    """An argparse type: ``convert`` the text, then refuse values failing ``accept``."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, _UsageError):
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    return parse


_NON_NEGATIVE = _checked(int, lambda v: v >= 0, "must be an integer >= 0")
_POSITIVE = _checked(int, lambda v: v >= 1, "must be an integer >= 1")
_COUPLING = _checked(_parse_f64, lambda g: not isinstance(g, complex) and g != 0,
                     "must be a finite nonzero real number")


def _parse_occupation(text: str) -> tuple:
    digits = text.replace(",", "").strip()
    if not digits or any(c not in "01" for c in digits):
        raise _UsageError(f"occupation must be bits, got {text!r}")
    return tuple(int(c) for c in digits)


def _scalar_json(x):
    if isinstance(x, (int, Fraction)):
        return {"num": str(x.numerator), "den": str(x.denominator)}
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    return x


def _rounded_json(x):
    """f64 output of an exact value: a Fraction rounded once; ints print as in exact mode."""
    return rounded(x) if isinstance(x, Fraction) else _scalar_json(x)


def _report_json(rep) -> dict:
    return {**vars(rep), "left": _scalar_json(rep.left), "right": _scalar_json(rep.right)}


def _emit(doc: dict, out_path, fmt: str = "json", reports=None):
    if fmt == "csv":
        lines = ["check,two_s,n,trial,holds"]
        lines += [f"{r.check},{r.two_s},{r.n},{r.trial},{str(r.holds).lower()}"
                  for r in reports]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@cache  # one parser per process: building it costs more than a small command
def _build_parser() -> _Parser:
    parser = _Parser(prog="rg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("pf", help="compute the partition function")
    pf.add_argument("--two-s", type=_NON_NEGATIVE, required=True)
    pf.add_argument("--eps", required=True, help="comma-separated inhomogeneities")
    pf.add_argument("--nu", required=True, help="comma-separated rapidities")
    pf.add_argument("--method", choices=("perm", "det", "both"), default="both")
    pf.add_argument("--mode", choices=("exact", "f64"), default="exact")
    pf.add_argument("--out")

    verify = sub.add_parser("verify", help="run a verification sweep")
    verify.add_argument("--suite", required=True,
                        choices=("identity", "residues", "limit", "borchardt", "boson"))
    verify.add_argument("--two-s", type=_NON_NEGATIVE)
    verify.add_argument("--n", type=_POSITIVE)
    verify.add_argument("--m", type=_NON_NEGATIVE,
                        help="extra rapidities for the boson suite (default 1)")
    verify.add_argument("--trials", type=_POSITIVE, default=20)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--mode", choices=("exact", "f64"), default="exact",
                        help="f64 is for the identity suite only; the others are exact-only")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.add_argument("--out")

    gam = sub.add_parser("gamma", help="dump the log-derivative hierarchy")
    gam.add_argument("--nu", required=True)
    gam.add_argument("--z", required=True)
    gam.add_argument("--order", type=_NON_NEGATIVE, required=True)
    gam.add_argument("--mode", choices=("exact", "f64"), default="exact")
    gam.add_argument("--out")

    coeffs = sub.add_parser("coeffs", help="dump the determinant structure coefficients")
    coeffs.add_argument("--two-s", type=_NON_NEGATIVE, required=True)
    coeffs.add_argument("--eps", required=True)
    coeffs.add_argument("--mode", choices=("exact", "f64"), default="exact")
    coeffs.add_argument("--out")

    bet = sub.add_parser("bethe", help="solve the Bethe equations")
    bet.add_argument("--g", type=_COUPLING, required=True)
    bet.add_argument("--eps", required=True)
    bet.add_argument("--occupation", required=True, help="bits, e.g. 1,0,1 or 101")
    bet.add_argument("--route", choices=("quad", "richardson", "both"), default="both")
    bet.add_argument("--out")
    return parser


def _cmd_pf(args) -> tuple:
    system = partition.SpinSystem(two_s=args.two_s,
                                  epsilons=_parse_csv(args.eps, args.mode))
    nu = _parse_csv(args.nu, args.mode)
    doc = {"schema": SCHEMA, "command": "pf", "mode": args.mode, "method": args.method}
    code = EXIT_OK
    if args.method in ("perm", "both"):
        zp = partition.z_permanent(system, nu).value
    if args.method in ("det", "both"):
        zd = partition.z_determinant(system, nu).value
    if args.method == "perm":
        doc.update(value=_scalar_json(zp), method="permanent")
    elif args.method == "det":
        doc.update(value=_scalar_json(zd), method="determinant")
    else:
        equal = values_agree(zp, zd, args.mode == "exact")
        doc.update(permanent=_scalar_json(zp), determinant=_scalar_json(zd), equal=equal)
        if not equal:
            code = EXIT_CHECK_FAILED
    _emit(doc, args.out)
    return code, doc


#: The size flags each verify suite takes, all required but the boson suite's --m (default 1).
_SUITE_FLAGS = {"identity": {"--two-s", "--n"}, "residues": {"--two-s", "--n"},
                "limit": {"--two-s", "--n"}, "borchardt": {"--n"}, "boson": {"--n", "--m"}}


def _cmd_verify(args) -> tuple:
    suite = args.suite
    if suite != "identity" and args.mode != "exact":
        raise _UsageError(f"suite {suite!r} is exact-only; only 'identity' takes --mode f64")
    given = {flag for flag, value in (("--two-s", args.two_s), ("--n", args.n), ("--m", args.m))
             if value is not None}
    takes = _SUITE_FLAGS[suite]
    if not takes - {"--m"} <= given <= takes:
        raise _UsageError(f"suite {suite!r} takes {' '.join(sorted(takes))}, "
                          f"got {' '.join(sorted(given)) or 'none'}")
    grid = [(args.two_s, args.n)]
    if suite == "identity":
        reports = checks.identity_sweep(grid, trials=args.trials,
                                        seed=args.seed, mode=args.mode)
    elif suite == "residues":
        reports = checks.residue_sweep(grid, trials=args.trials, seed=args.seed)
    elif suite == "limit":
        reports = checks.limit_sweep(grid, trials=args.trials, seed=args.seed)
    elif suite == "borchardt":
        reports = checks.borchardt_sweep([args.n], trials=args.trials, seed=args.seed)
    else:
        extra = 1 if args.m is None else args.m
        reports = checks.boson_sweep([(args.n, extra)], trials=args.trials, seed=args.seed)
    passed = sum(r.holds for r in reports)
    failed = len(reports) - passed
    doc = {"schema": SCHEMA, "command": "verify", "suite": suite, "seed": args.seed,
           "trials": args.trials, "passed": passed, "failed": failed,
           "reports": [_report_json(r) for r in reports]}
    _emit(doc, args.out, fmt=args.format, reports=reports)
    return (EXIT_OK if failed == 0 else EXIT_CHECK_FAILED), doc


def _cmd_gamma(args) -> tuple:
    nu = _parse_csv(args.nu, args.mode)
    z = _parse_scalar(args.z, args.mode)
    values = gamma.hierarchy(nu, z, args.order)
    out = _scalar_json if args.mode == "exact" else _rounded_json
    doc = {"schema": SCHEMA, "command": "gamma", "mode": args.mode,
           "z": _scalar_json(z), "order": args.order, "gammas": [out(v) for v in values]}
    _emit(doc, args.out)
    return EXIT_OK, doc


def _cmd_coeffs(args) -> tuple:
    system = partition.SpinSystem(two_s=args.two_s,
                                  epsilons=_parse_csv(args.eps, args.mode))
    sc = partition.structure_coefficients(system)
    out = _scalar_json if args.mode == "exact" else _rounded_json
    doc = {"schema": SCHEMA, "command": "coeffs", "mode": args.mode,
           "two_s": system.two_s, "n": system.n,
           "c11": [out(v) for v in sc.c11],
           "c1j": {str(j): [out(v) for v in col] for j, col in sc.c1j.items()},
           "c0_diag": {str(i): out(v) for i, v in sc.c0_diag.items()},
           "c1_diag": sc.c1_diag,
           "c0_off": {f"{i},{j}": out(v) for (i, j), v in sc.c0_off.items()}}
    _emit(doc, args.out)
    return EXIT_OK, doc


def _cmd_bethe(args) -> tuple:
    eps = _parse_csv(args.eps, "f64")
    if any(isinstance(x, complex) for x in eps):
        raise _UsageError(f"levels must be real, got {args.eps!r}")
    occupation = _parse_occupation(args.occupation)
    if len(occupation) != len(eps):
        raise _UsageError("occupation length must match the number of levels")
    model = bethe.CouplingModel(g=args.g, eps=eps, m=sum(occupation))
    doc = {"schema": SCHEMA, "command": "bethe", "g": args.g,
           "eps": list(eps), "occupation": list(occupation)}
    routes = ("quad", "richardson") if args.route == "both" else (args.route,)
    code, lv = EXIT_OK, None
    for route in routes:
        try:
            if route == "quad":
                lv = bethe.solve_quadratic_bethe(model, occupation)
                res = max(abs(r) for r in bethe.quad_residuals(lv, model))
                doc["quad"] = {"lambdas": [_scalar_json(v) for v in lv.values],
                               "max_residual": float(res),
                               "pairs": model.g * sum(lv.values) / 2}
                dual = bethe.dual_transform(lv, model)
                doc["dual_shift"] = [_scalar_json(v) for v in dual.values]
            else:
                doc["richardson"] = _richardson_entry(model, occupation, lv)
        except NoConvergence as exc:
            # with both routes, a stalled one reports in its own entry
            if len(routes) == 1:
                raise
            doc[route], code = _error_json(exc), EXIT_NUMERICAL
    _emit(doc, args.out)
    return code, doc


def _richardson_entry(model, occupation, lv) -> dict:
    """The rapidity route's entry, compared with the quadratic route's ``lv`` if given."""
    levels = tuple(i for i, b in enumerate(occupation) if b)
    state = bethe.solve_richardson(model, levels)
    res = max(abs(r) for r in bethe.richardson_residuals(state, model)) \
        if state.lambdas else 0.0
    entry = {"rapidities": [_scalar_json(complex(v)) for v in state.lambdas],
             "max_residual": float(res)}
    if lv is not None:
        induced = bethe.lambdas_from_rapidities(state, model.eps)
        agreement = max(abs(a - b) for a, b in zip(induced.values, lv.values)) \
            if induced.values else 0.0
        entry["lambda_agreement"] = float(abs(agreement))
        top = max(map(abs, lv.values), default=0.0)  # the absolute figure hides a small L
        entry["lambda_agreement_relative"] = float(abs(agreement) / top) if top else 0.0
    return entry


def _error_json(exc) -> dict:
    # attributes carry the state reached (NoConvergence: g_reached, residual, halvings)
    return {"error": {"kind": type(exc).__name__, "detail": str(exc), **vars(exc)}}


_COMMANDS = {"pf": _cmd_pf, "verify": _cmd_verify, "gamma": _cmd_gamma,
             "coeffs": _cmd_coeffs, "bethe": _cmd_bethe}


#: Flags whose value may be a number list such as -1/2, -1e6 or -1,2.
_NUMBER_FLAGS = frozenset(("--g", "--eps", "--nu", "--z"))
_NEGATIVE = re.compile(r"-[\d.]")


def _attach_negative_numbers(argv) -> list:
    """Write ``--g -1/2`` as ``--g=-1/2``: argparse (3.10, 3.11) reads a token that
    starts with '-' as a value only if it looks like -12 or -1.5."""
    out = []
    for arg in argv:
        if out and out[-1] in _NUMBER_FLAGS and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv) -> int:
    """Parse and execute; returns the process exit code."""
    try:
        args = _build_parser().parse_args(_attach_negative_numbers(argv))
        code, _ = _COMMANDS[args.command](args)
        return code
    except _UsageError as exc:
        _emit({"error": {"kind": "usage", "detail": str(exc)}}, None)
        return EXIT_USAGE
    except (NoConvergence, NonFiniteEntry) as exc:
        _emit(_error_json(exc), None)
        return EXIT_NUMERICAL
    except RGError as exc:
        _emit(_error_json(exc), None)
        return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
