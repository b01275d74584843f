"""Every function in src/artifact is reached by a command.

A fresh interpreter runs each CLI command through click's CliRunner under
``sys.setprofile`` and reports the src functions it called: `derive` for
every case as text and JSON, `eval` off, near and on the removable set,
`table`, `gauss-bonnet` with an HFILE and `verify --suite all --seed 0`.
Each module- or class-level function that is not a dunder must be among
them, unless ALLOWED names it with its reason.  Code only tests call
belongs in tests/.

Run as a script, this module prints the reached functions as JSON.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "artifact"

ALLOWED = {
    "modular_function_engine._symbols": "perfbench reads SymbolicFunction.parts",
    "modular_function_engine._poly_expr": "perfbench reads SymbolicFunction.parts",
    "modular_function_engine.SymbolicFunction.parts": "perfbench reads it",
    "modular_function_engine.integrate_dim2": "perfbench/spans.py times it as a layer",
    "modular_function_engine.SymbolicFunction.is_zero": "a predicate the tests assert with",
    "symbol_engine.NCExpression.is_zero": "a predicate the tests assert with",
    "theta_algebra.FourierElement.zero": "a constructor the tests build from",
    "theta_algebra.SkewMatrix.zero": "a constructor the tests build from",
    "theta_algebra.FourierElement.generator": "a constructor the tests build from",
}

HFILE = "1,0 : 0.05,0\n-1,0 : 0.05,0\n0,1 : 0.02,0\n0,-1 : 0.02,0\n"

CASES = [("2", "kdelta"), ("4", "kdelta"), ("6", "kdelta"), ("8", "kdelta"), ("4", "nc4tori")]

# off the set, 3e-5 from s = 1, and on s = 1, on t = 1, at (1, 1) and on st = 1
EVAL_POINTS = [("2.3", "0.7"), ("1.00003", "0.7"), ("1", "0.7"), ("2.3", "1"), ("1", "1"),
               ("2", "0.5")]


def defined_functions():
    """module.name and module.Class.name of every non-dunder def in src."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            defs = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef)]
            names |= {f"{path.stem}.{qualname}" for qualname, item in defs
                      if not (item.name.startswith("__") and item.name.endswith("__"))}
    return names


def _commands(hfile):
    for dim, operator in CASES:
        for fmt in ("text", "json"):
            yield ["derive", "--dim", dim, "--operator", operator, "--format", fmt]
    for s, t in EVAL_POINTS:
        yield ["eval", "--which", "G", "--s", s, "--t", t]
        yield ["eval", "--which", "K", "--s", s]
    yield ["table", "--which", "G", "--s-range", "0.5:1.5:3", "--t-range", "0.5:1.5:3"]
    yield ["table", "--which", "K", "--dim", "6", "--s-range", "0.5:1.5:3"]
    yield ["gauss-bonnet", hfile]
    yield ["verify", "--suite", "all", "--seed", "0"]


def reached_functions():
    """Run every command under a profile hook; the src functions it called,
    named as in defined_functions."""
    import functools

    from click.testing import CliRunner

    from artifact import cli, verify

    # one mode per random element reaches the same functions in a third of
    # the time of up to eight
    verify._random_element = functools.partial(verify._random_element, max_modes=1)
    runner = CliRunner()
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        hfile = os.path.join(tmp, "h.txt")
        with open(hfile, "w") as fh:
            fh.write(HFILE)
        for args in _commands(hfile):
            sys.setprofile(hook)
            try:
                result = runner.invoke(cli.main, args)
            finally:
                sys.setprofile(None)
            if result.exit_code != 0:
                raise SystemExit(f"{' '.join(args)} exited {result.exit_code}: {result.output}")
    return {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in codes
            if Path(code.co_filename).resolve().parent == SRC}


def test_every_src_function_is_reached_by_a_command():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                         text=True, check=True).stdout
    unreached = defined_functions() - set(json.loads(out))
    assert sorted(unreached - set(ALLOWED)) == []
    # an allowed name that a command now reaches leaves the list
    assert sorted(set(ALLOWED) - unreached) == []


if __name__ == "__main__":
    print(json.dumps(sorted(reached_functions())))
