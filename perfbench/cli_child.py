"""Run one ``artifact`` command with spans around the engine's public functions.

    python3 perfbench/cli_child.py SPANS.jsonl derive --dim 2 --format json

Used by the traced cli-cold workload in place of ``python3 -m artifact.cli``:
it records the import of ``artifact.cli`` and the command itself, writes the
spans to SPANS.jsonl when the command ends and exits with its exit code.
"""

import sys

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.call("cli.import", __import__, "artifact.cli")
    import artifact.cli

    tracer.install()
    code = 0
    try:
        tracer.call("cli.main", artifact.cli.main.main, args=argv, prog_name="artifact",
                    attrs={"command": argv[0]})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.uninstall()
        tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
