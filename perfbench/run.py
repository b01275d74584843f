"""Benchmark of the artifact engine: three closed-loop workloads, timed end to
end, with a traced mode that times each layer.

    python3 perfbench/run.py --workload eval-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the engine is imported from ``src/`` there
and nowhere else.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from workloads import WORKLOADS, Checked, Ctx

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
TAIL_MIN_OPS = 1000  # a 99th percentile needs at least ten operations beyond it


def _percentile99(values):
    ordered = sorted(values)
    if len(ordered) < TAIL_MIN_OPS:
        return ordered[-1]
    return ordered[-(len(ordered) // 100) - 1]


def _op_medians(step_s, n_ops):
    """Each operation's median time over the rounds of a pass.  A pass is
    whole rounds of the same operations, so operation i is every n_ops-th
    step from i.  A call the scheduler holds up in one round then does not
    reach the percentiles; a path that is slow in every round does."""
    return [statistics.median(step_s[i::n_ops]) for i in range(n_ops)]


def _timed_setup(workload, ctx):
    start = time.perf_counter()
    state = workload.setup(ctx)
    return state, time.perf_counter() - start


def _setup_child(args) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Pass:
    """Timings, failures and outputs of whole rounds of the same operations."""

    def __init__(self):
        self.round_s = []
        self.step_s = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_outputs = None
        self.repeats_differ = 0

    def step(self, workload, ctx, state, op):
        t0 = time.perf_counter()
        try:
            out = workload.run(ctx, state, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
        self.step_s.append(time.perf_counter() - t0)
        self.attempted += 1
        return out

    def end_round(self, outputs, seconds):
        self.round_s.append(seconds)
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            self.repeats_differ += 1


def timed_pass(workload, ctx, state, ops, seconds, tracer=None) -> Pass:
    """Whole rounds until the next one would end after `seconds`; at least one."""
    p = Pass()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outputs = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            outputs.append(p.step(workload, ctx, state, op))
        now = time.perf_counter()
        p.end_round(outputs, now - round_start)
        if now - start + p.round_s[-1] > seconds:
            return p


def paired_pass(workload, ctx, state, ops, seconds, tracer):
    """Each operation once untraced and once traced, the order alternating,
    so that both halves see the same machine; returns (untraced, traced)."""
    halves = {False: Pass(), True: Pass()}
    start = time.perf_counter()
    while True:
        outputs = {False: [], True: []}
        for i, op in enumerate(ops):
            tracer.op = i
            for traced in ((True, False) if i % 2 else (False, True)):
                ctx.tracer = tracer if traced else None
                if traced:
                    tracer.install()
                try:
                    outputs[traced].append(halves[traced].step(workload, ctx, state, op))
                finally:
                    tracer.uninstall()
        for traced, half in halves.items():
            half.end_round(outputs[traced], sum(half.step_s[-len(ops):]))
        if time.perf_counter() - start + sum(h.round_s[-1] for h in halves.values()) > seconds:
            return halves[False], halves[True]


def _checks(workload, ctx, state, ops, passes):
    try:
        checked = workload.check(ctx, state, ops, passes[0].first_outputs)
    except Exception:  # malformed output: report it, keep the run's figures
        checked = Checked(failures=[f"checking raised {traceback.format_exc(limit=3)}"])
    for p in passes:
        checked.expect(p.repeats_differ == 0 and p.first_outputs == passes[0].first_outputs,
                       "a later round gave other outputs than the first")
    return checked


def _report(correct, attempted, failed, metrics, ctx, args, errors, timings):
    """Print the result line; keep it with the errors and raw timings in out/."""
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(ctx.out_dir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(result, errors=errors, timings=timings), fh, indent=2)
    for err in errors:
        print(f"# {err}")
    print(json.dumps(result))


def untraced_run(workload, ctx, args, units):
    setups = [_setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
    state, seconds = _timed_setup(workload, ctx)
    setups.append(seconds)
    ops = workload.inputs(args.seed, state)
    p = timed_pass(workload, ctx, state, ops, args.seconds)
    # the largest child is the largest command: set-up children only import
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    checked = _checks(workload, ctx, state, ops, [p])
    op_s = _op_medians(p.step_s, len(ops))
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(p.round_s),
        "step_p50_ms": statistics.median(op_s) * 1e3,
        "step_p99_ms": _percentile99(op_s) * 1e3,
        "peak_rss_mb": peak_kib / 1024,
        "eval_digits_min": checked.digits_min,
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    timings = {"setup_s": setups, "round_s": p.round_s, "first_round_step_s": p.step_s[:len(ops)]}
    _report(not checked.failures, p.attempted, p.failed, metrics, ctx, args,
            p.errors + checked.failures, timings)


def traced_run(workload, ctx, args, units):
    """Per-layer metrics from spans.  The workload runs each operation once
    untraced and once traced for `--seconds`, which gives the tracing
    overhead.  A layer the workload does not reach is read from one traced
    round of the next workload in WORKLOADS that reaches it."""
    import spans

    tracer = spans.Tracer()
    failures, errors, attempted, failed = [], [], 0, 0
    metrics = {}
    for w in [workload] + [w for w in WORKLOADS.values() if w is not workload]:
        if w is not workload and set(units) - set(metrics) <= {"trace.overhead_pct"}:
            break
        tracer.workload = w.name
        tracer.op = None
        ctx.tracer = tracer
        tracer.install()
        try:
            state = w.setup(ctx)
        finally:
            tracer.uninstall()
        ops = w.inputs(args.seed, state)
        if w is workload:
            passes = paired_pass(w, ctx, state, ops, args.seconds, tracer)
            plain, traced = (sum(p.step_s) for p in passes)
            metrics["trace.overhead_pct"] = 100 * (traced - plain) / plain
        else:
            tracer.install()
            try:
                passes = (timed_pass(w, ctx, state, ops, 0, tracer),)
            finally:
                tracer.uninstall()
        checked = _checks(w, ctx, state, ops, passes)
        failures += [f"{w.name}: {f}" for f in checked.failures]
        for p in passes:
            attempted += p.attempted
            failed += p.failed
            errors += [f"{w.name}: {e}" for e in p.errors]
        found = spans.layer_metrics([r for r in tracer.spans if r["workload"] == w.name])
        for key, value in found.items():
            metrics.setdefault(key, value)
    tracer.dump(os.path.join(ctx.out_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
    missing = [k for k in units if k not in metrics]
    if missing:
        failures.append(f"no span fed {', '.join(missing)}")
    out = {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics}
    _report(not failures, attempted, failed, out, ctx, args, errors + failures, {})


def _units(section):
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "artifact", "__init__.py")):
        print(f"no engine sources under {src}: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    ctx = Ctx(root=root, out_dir=out_dir)
    if args.setup_only:
        _, seconds = _timed_setup(workload, ctx)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.trace:
        traced_run(workload, ctx, args, _units("per_layer"))
    else:
        untraced_run(workload, ctx, args, _units("end_to_end"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
