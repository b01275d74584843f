"""Command-line front end: derive, eval, table, verify, gauss-bonnet.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
pipeline error (reported with the failing stage's name).  The engine checks
its own arguments (dimension, operator, s, t, the exponent h); its UsageError
exits 2.

The checks behind `verify` and `gauss-bonnet` live in ``artifact.verify``;
those two commands import it (and with it numpy and the oracles) when they
run, so `derive`, `eval` and `table` load only the derivation engine.
"""

from __future__ import annotations

import csv
import io
import sys
from typing import Callable, Iterable, List, Optional, Tuple

import click

from .modular_function_engine import OPERATORS, UsageError, derive_curvature, eval_function

_stage = "startup"


def _set_stage(name: str) -> None:
    global _stage
    _stage = name


def _staged(fn: Callable) -> Callable:
    """Translate unexpected exceptions into exit code 3 with the stage name."""

    def wrapper(*args, **kwargs):
        _set_stage("startup")
        try:
            return fn(*args, **kwargs)
        except (click.ClickException, click.exceptions.Exit, SystemExit):
            raise
        except UsageError as exc:
            raise click.UsageError(str(exc))
        except Exception as exc:
            click.echo(f"internal error at stage {_stage}: {exc}", err=True)
            sys.exit(3)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _parse_range(text: str, flag: str) -> List[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"{flag} must be formatted a:b:n")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise click.UsageError(f"{flag} must be formatted a:b:n with numeric fields")
    if n < 1 or a <= 0 or b <= 0:
        raise click.UsageError(f"{flag} needs n >= 1 and positive endpoints")
    if n == 1:
        return [a]
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _emit(payload: str, out: Optional[str]) -> None:
    """Write payload to the file out, or to stdout without it."""
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        click.echo(payload, nl=False)


@click.group()
def main() -> None:
    """Symbolic + numeric engine for modular curvature on deformed tori."""


# --------------------------------------------------------------------------
# derive


@main.command()
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--operator", type=click.Choice(OPERATORS), default="kdelta",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@_staged
def derive(dim: int, operator: str, fmt: str, out: Optional[str]) -> None:
    """Derive the curvature functions and print the full report."""
    if fmt == "csv":
        raise click.UsageError("derive emits a structured report; use text or json")
    _set_stage("curvature-derivation")
    report = derive_curvature(dim, operator)
    _set_stage("serialization")
    _emit((report.to_text() if fmt == "text" else report.to_json()) + "\n", out)


# --------------------------------------------------------------------------
# eval


@main.command("eval")
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--operator", type=click.Choice(OPERATORS), default="kdelta",
              show_default=True)
@click.option("--which", type=click.Choice(["K", "G"]), required=True)
@click.option("--s", "s", type=float, required=True)
@click.option("--t", "t", type=float, default=None)
@_staged
def eval_cmd(dim: int, operator: str, which: str, s: float, t: Optional[float]) -> None:
    """Evaluate K(s) or G(s, t) numerically (limit-filled on the diagonal)."""
    if which == "K" and t is not None:
        raise click.UsageError("--t applies only to the two-variable function G")
    _set_stage("curvature-derivation")
    report = derive_curvature(dim, operator)
    _set_stage("evaluation")
    f = report.K if which == "K" else report.G
    value = eval_function(f, s, t if t is not None else 1.0)
    click.echo(f"{value:.12g}")


# --------------------------------------------------------------------------
# table


@main.command()
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--operator", type=click.Choice(OPERATORS), default="kdelta",
              show_default=True)
@click.option("--which", type=click.Choice(["K", "G"]), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="csv", show_default=True)
@click.option("--s-range", "s_range", required=True,
              help="sweep a:b:n over s (n evenly spaced points)")
@click.option("--t-range", "t_range", default=None,
              help="sweep a:b:n over t (two-variable function only)")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@_staged
def table(dim: int, operator: str, which: str, fmt: str, s_range: str,
          t_range: Optional[str], out: Optional[str]) -> None:
    """Tabulate K or G to CSV with header s,t,K,G (unused columns empty)."""
    if fmt != "csv":
        raise click.UsageError("table writes CSV; use --format csv")
    svals = _parse_range(s_range, "--s-range")
    if which == "K":
        if t_range is not None:
            raise click.UsageError("--t-range applies only to the two-variable function G")
        tvals: List[Optional[float]] = [None]
    else:
        if t_range is None:
            raise click.UsageError("tabulating G requires --t-range")
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


# --------------------------------------------------------------------------
# verify


# the suites of artifact.verify.CHECKS in run order
_SUITES = ("algebra", "symbols", "integrals", "matrix", "gauss-bonnet")


def _print_checks(checks: Iterable[Tuple[str, float, float]]) -> bool:
    """Print one CHECK line per (name, error, bound) as it arrives; True if
    any check failed."""
    failed = False
    for check, err, bound in checks:
        ok = err <= bound
        failed = failed or not ok
        click.echo(f"CHECK {check} {err:.3e} {bound:.3e} {'PASS' if ok else 'FAIL'}")
    return failed


@main.command()
@click.option("--suite", type=click.Choice(list(_SUITES) + ["all"]), default="all",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=None,
              help="override the bound of every floating-point check in the suite; "
                   "the exact checks and gauss-bonnet-ratio keep theirs")
@_staged
def verify(suite: str, seed: int, tol: Optional[float]) -> None:
    """Run an oracle suite; exit 1 if any check fails."""
    from . import verify as checks

    failed = False
    for name in _SUITES if suite == "all" else [suite]:
        _set_stage(f"verify-{name}")
        failed = _print_checks(checks.run(name, seed, tol)) or failed
    if failed:
        sys.exit(1)


# --------------------------------------------------------------------------
# gauss-bonnet


@main.command("gauss-bonnet")
@click.argument("hfile", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@_staged
def gauss_bonnet(hfile: Optional[str], tol: float) -> None:
    """Gauss-Bonnet residual sweep over theta for the conformal exponent h.

    HFILE holds one Fourier mode per line as `r1,r2 : re,im`; the default is
    the cosine mode 0.05 (e_(1,0) + e_(-1,0)).
    """
    from . import verify as checks
    from .theta_algebra import parse_element

    _set_stage("h-parsing")
    h = None
    if hfile:
        with open(hfile) as fh:
            try:
                h = parse_element(fh.read(), 2, mode="float")
            except ValueError as exc:
                raise click.UsageError(f"HFILE {hfile}: {exc}")
    _set_stage("gauss-bonnet-residual")
    if _print_checks(checks.gauss_bonnet_checks(h, tol)):
        sys.exit(1)


if __name__ == "__main__":
    main()
