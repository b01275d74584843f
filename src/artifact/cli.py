"""Command-line front end: derive, eval, table, verify, gauss-bonnet.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
pipeline error (reported with the failing stage's name).  The engine checks
its own arguments (dimension, operator, s, t, the exponent h); its UsageError
exits 2, as do argparse's own errors.  A reader that closes stdout early
(`artifact verify | head -1`) ends the command quietly with 1.

The parser is the standard library's argparse, so `import artifact.cli`
loads the derivation engine, argparse and nothing else this package does
not compute with: not numpy, mpmath, sympy, json or csv.  The checks behind
`verify` and `gauss-bonnet` live in ``artifact.verify``; those two commands
import it (and with it the oracles and the Fourier algebra) when they run, so
`derive`, `eval` and `table` load only the derivation engine; `eval` and
`table` add mpmath at their first evaluation, `derive --format json` adds
json and `table` csv.  numpy loads only where an array pays: at the first
quadrature, matrix check or random input of a suite, and at the first float
product of at least ``theta_algebra._ARRAY_PAIRS`` pairs.  So `gauss-bonnet`
with a line-mode exponent, the default, and `verify --suite symbols` never
load it.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from math import isfinite
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .modular_function_engine import OPERATORS, UsageError, derive_curvature, eval_function

_stage = "startup"


def _set_stage(name: str) -> None:
    global _stage
    _stage = name


def _parse_range(text: str, flag: str) -> List[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag} must be formatted a:b:n")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"{flag} must be formatted a:b:n with numeric fields")
    if not (isfinite(a) and isfinite(b)):
        raise UsageError(f"{flag} needs finite endpoints")
    if n < 1 or a <= 0 or b <= 0:
        raise UsageError(f"{flag} needs n >= 1 and positive endpoints")
    if n == 1:
        return [a]
    return [a + (b - a) * i / (n - 1) for i in range(n - 1)] + [b]


def _emit(payload: str, out: Optional[str]) -> None:
    """Write payload to the file out, or to stdout without it."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"--out {out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(payload)


def _file(path: str) -> str:
    """HFILE or --out, checked as it is parsed: a directory is a usage error."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is a directory")
    return path


# --------------------------------------------------------------------------
# the commands: each takes its parsed options and returns its exit code


def derive(dim: int, operator: str, fmt: str, out: Optional[str]) -> int:
    """Derive the curvature functions and print the full report."""
    if fmt == "csv":
        raise UsageError("derive emits a structured report; use text or json")
    _set_stage("curvature-derivation")
    report = derive_curvature(dim, operator)
    _set_stage("serialization")
    _emit((report.to_text() if fmt == "text" else report.to_json()) + "\n", out)
    return 0


def eval_cmd(dim: int, operator: str, which: str, s: float, t: Optional[float]) -> int:
    """Evaluate K(s) or G(s, t) numerically (limit-filled on the diagonal)."""
    if which == "K" and t is not None:
        raise UsageError("--t applies only to the two-variable function G")
    _set_stage("curvature-derivation")
    report = derive_curvature(dim, operator)
    _set_stage("evaluation")
    f = report.K if which == "K" else report.G
    value = eval_function(f, s, t if t is not None else 1.0)
    print(f"{value:.12g}")
    return 0


def table(dim: int, operator: str, which: str, fmt: str, s_range: str,
          t_range: Optional[str], out: Optional[str]) -> int:
    """Tabulate K or G to CSV with header s,t,K,G (unused columns empty)."""
    import csv

    if fmt != "csv":
        raise UsageError("table writes CSV; use --format csv")
    svals = _parse_range(s_range, "--s-range")
    if which == "K":
        if t_range is not None:
            raise UsageError("--t-range applies only to the two-variable function G")
        tvals: List[Optional[float]] = [None]
    else:
        if t_range is None:
            raise UsageError("tabulating G requires --t-range")
        tvals = list(_parse_range(t_range, "--t-range"))
    _set_stage("curvature-derivation")
    report = derive_curvature(dim, operator)
    f = report.K if which == "K" else report.G
    _set_stage("tabulation")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["s", "t", "K", "G"])
    for s in svals:
        for t in tvals:
            value = eval_function(f, s, 1.0 if t is None else t)
            if which == "K":
                writer.writerow([repr(s), "", repr(value), ""])
            else:
                writer.writerow([repr(s), repr(t), "", repr(value)])
    _emit(buf.getvalue(), out)
    return 0


# the suites of artifact.verify.CHECKS in run order
_SUITES = ("algebra", "symbols", "integrals", "matrix", "gauss-bonnet")


def _print_checks(checks: Iterable[Tuple[str, float, float]]) -> bool:
    """Print one CHECK line per (name, error, bound) as it arrives; True if
    any check failed."""
    failed = False
    for check, err, bound in checks:
        ok = err <= bound
        failed = failed or not ok
        print(f"CHECK {check} {err:.3e} {bound:.3e} {'PASS' if ok else 'FAIL'}", flush=True)
    return failed


def verify(suite: str, seed: int, tol: Optional[float]) -> int:
    """Run an oracle suite; exit 1 if any check fails."""
    from . import verify as checks

    failed = False
    for name in _SUITES if suite == "all" else [suite]:
        _set_stage(f"verify-{name}")
        failed = _print_checks(checks.run(name, seed, tol)) or failed
    return 1 if failed else 0


def gauss_bonnet(hfile: Optional[str], tol: float) -> int:
    """Gauss-Bonnet residual sweep over theta for the conformal exponent h.

    HFILE holds one Fourier mode per line as `r1,r2 : re,im`; the default is
    the cosine mode 0.05 (e_(1,0) + e_(-1,0)).
    """
    from . import verify as checks
    from .theta_algebra import parse_element

    _set_stage("h-parsing")
    h = None
    if hfile is not None:
        try:
            with open(hfile) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"HFILE {hfile}: {exc.strerror or exc}")
        try:
            h = parse_element(text, 2, mode="float")
        except ValueError as exc:
            raise UsageError(f"HFILE {hfile}: {exc}")
    _set_stage("gauss-bonnet-residual")
    return 1 if _print_checks(checks.gauss_bonnet_checks(h, tol)) else 0


# --------------------------------------------------------------------------
# the parser


_DIM = dict(type=int, default=2, help="even dimension m >= 2 (default: 2)")
_OPERATOR = dict(choices=OPERATORS, default="kdelta", help="the operator (default: kdelta)")
_WHICH = dict(choices=("K", "G"), required=True, help="K(s) or G(s, t)")
_FORMATS = ("text", "json", "csv")
_OUT = dict(type=_file, default=None, help="write to this file instead of stdout")

# name -> (function, {flag or positional: add_argument keywords})
_COMMANDS = {
    "derive": (derive, {
        "--dim": _DIM, "--operator": _OPERATOR,
        "--format": dict(dest="fmt", choices=_FORMATS, default="text",
                         help="report format (default: text)"),
        "--out": _OUT}),
    "eval": (eval_cmd, {
        "--dim": _DIM, "--operator": _OPERATOR, "--which": _WHICH,
        "--s": dict(type=float, required=True, help="s > 0"),
        "--t": dict(type=float, default=None, help="t > 0, for G only (default: 1)")}),
    "table": (table, {
        "--dim": _DIM, "--operator": _OPERATOR, "--which": _WHICH,
        "--format": dict(dest="fmt", choices=_FORMATS, default="csv",
                         help="output format, csv only (default: csv)"),
        "--s-range": dict(required=True, help="sweep a:b:n over s (n evenly spaced points)"),
        "--t-range": dict(default=None, help="sweep a:b:n over t (two-variable function only)"),
        "--out": _OUT}),
    "verify": (verify, {
        "--suite": dict(choices=_SUITES + ("all",), default="all",
                        help="oracle suite (default: all)"),
        "--seed": dict(type=int, default=0, help="seed of the random inputs (default: 0)"),
        "--tol": dict(type=float, default=None,
                      help="override the bound of every floating-point check in the suite;\n"
                           "the exact checks and gauss-bonnet-ratio keep theirs")}),
    "gauss-bonnet": (gauss_bonnet, {
        "hfile": dict(type=_file, nargs="?", default=None, metavar="HFILE",
                      help="the exponent h, one Fourier mode per line"),
        "--tol": dict(type=float, default=1e-6, help="bound of each residual (default: 1e-06)")}),
}

# argparse reads a value such as -inf, -1e-3 or -inf:2:3 as an option, so
# _join_values attaches each value to its flag (--tol=-inf) before parsing
_VALUED = {flag for _, options in _COMMANDS.values() for flag in options
           if flag.startswith("--")}


def _join_values(argv: Sequence[str]) -> List[str]:
    out: List[str] = []
    args = iter(argv)
    for arg in args:
        if arg == "--":
            out.append(arg)
            out.extend(args)
        elif arg in _VALUED:
            value = next(args, None)
            out.append(arg if value is None else f"{arg}={value}")
        else:
            out.append(arg)
    return out


def _parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The parser, and the parser of each command by name."""
    parser = argparse.ArgumentParser(
        prog="artifact", allow_abbrev=False,
        description="Symbolic + numeric engine for modular curvature on deformed tori.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (fn, options) in _COMMANDS.items():
        doc = [line.strip() for line in fn.__doc__.strip().splitlines()]
        sub = commands.add_parser(name, help=doc[0], description="\n".join(doc),
                                  allow_abbrev=False,
                                  formatter_class=argparse.RawTextHelpFormatter)
        for flag, kwargs in options.items():
            sub.add_argument(flag, **kwargs)
    return parser, commands.choices


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command, argv as after `artifact` (sys.argv[1:] by default),
    and return its exit code."""
    parser, commands = _parser()
    try:
        args, extra = parser.parse_known_args(
            _join_values(sys.argv[1:] if argv is None else argv))
        if extra:  # reported with the command's usage, not the group's
            commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # --help, or a usage error argparse has printed
        return exc.code
    args = vars(args)
    name = args.pop("command")
    _set_stage("startup")
    try:
        return _COMMANDS[name][0](**args)
    except UsageError as exc:
        # as argparse reports its own usage errors
        commands[name].print_usage(sys.stderr)
        print(f"{commands[name].prog}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise
    except Exception as exc:
        print(f"internal error at stage {_stage}: {exc}", file=sys.stderr)
        return 3


def main(argv: Optional[Sequence[str]] = None) -> None:
    """The `artifact` executable: run one command and exit with its code."""
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # unbuffered (PYTHONUNBUFFERED=1): the text layer ignores a short
        # write to the raw file, which a buffered one retries
        sys.stdout = open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                          errors=sys.stdout.errors, closefd=False, buffering=1)
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's own flush at exit fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


# click's command protocol, which perfbench/cli_child.py and the tests'
# click.testing.CliRunner call: main.main(args=..., prog_name=...) raises
# SystemExit with the exit code, and CliRunner names the program main.name.
# Drop it with the next change to the benchmark.
main.main = lambda args=None, prog_name=None, **_: main(args)
main.name = "artifact"


if __name__ == "__main__":
    main()
