"""One workload in one process: set-up, timed passes, output checks, tracing.

Started by bench/run.py, one process per workload run.  The CLI runs
in-process through ``altcurves.cli.main`` with its output captured in memory.
The last stdout line is a JSON object with the raw metric values.

  python3 bench/child.py WORKLOAD SEED SECONDS TRACE SIZE
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import tracing  # noqa: E402  (bench/, the directory of this file)
import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUPS = 9  # set-ups per run; setup_s is their median

# Words for the reference computation, fixed for every run and seed.
_REF_RNG = random.Random("reference")
REF_WORDS = [tuple(_REF_RNG.randrange(40) for _ in range(8)) for _ in range(4000)]


def reference_s() -> float:
    """Seconds that a fixed pure-Python computation takes right now.

    It takes the least rotation of each of a set of tuples, hashes those into
    a set, counts into a dict, sorts, and runs an integer loop: the same kinds
    of work as altcurves, none of its code, and little memory.  The cyclic
    collector is off meanwhile, so the program's heap does not change what it
    costs.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen, counts = set(), {}
        for word in REF_WORDS:
            least = min(word[k:] + word[:k] for k in range(len(word)))
            seen.add(least)
            counts[least[0]] = counts.get(least[0], 0) + 1
        total = len(sorted(seen)) + len(counts)
        for i in range(400_000):
            total += i * i % 7
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def set_up(workload: str, seed: int, size: str, in_dir: Path):
    """Import altcurves afresh, then generate, validate and write the inputs."""
    for name in [m for m in sys.modules if m == "altcurves" or m.startswith("altcurves.")]:
        del sys.modules[name]
    if in_dir.exists():
        shutil.rmtree(in_dir)
    start = time.perf_counter()
    cli = importlib.import_module("altcurves.cli")
    inputs = workloads.generate(workload, seed, size, in_dir)
    return time.perf_counter() - start, cli, inputs


def run_pass(cli, plan, tracer=None, reference=False):
    """Run the pass's commands one after another; (seconds, outcomes, rel).

    `seconds` sums the commands' wall times.  With `reference`, the reference
    computation is timed before the first command and after each one, outside
    the commands' times, and `rel` sums each command's time divided by the
    mean of the two reference times around it; otherwise `rel` is None.
    """
    outcomes, seconds, rel = [], 0.0, 0.0
    ref = reference_s() if reference else None
    for command in plan:
        if tracer is not None:
            tracer.item = command.items[0].path if len(command.items) == 1 else None
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(command.argv))
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # counted as a failed item, never fatal
                rc = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - start
        seconds += dt
        if reference:
            after = reference_s()
            rel += dt / ((ref + after) / 2)
            ref = after
        if rc != 0 and err.getvalue():
            rc = f"{rc} ({err.getvalue().strip()[:200]})"
        outcomes.append((command, rc, out.getvalue()))
    return seconds, outcomes, (rel if reference else None)


def closed_loop(seconds: float, cycle):
    """Run `cycle` until the next one would end past `seconds`; at least once."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cycle()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def main(argv) -> int:
    workload, seed, seconds, traced, size = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    in_dir = OUT_DIR / f"work-{workload}-{os.getpid()}"
    try:
        return measure(workload, seed, seconds, traced, size, in_dir)
    finally:
        shutil.rmtree(in_dir, ignore_errors=True)


def measure(workload, seed, seconds, traced, size, in_dir) -> int:
    setup_times = []
    for _ in range(SETUPS):
        cli = inputs = None
        gc.collect()  # frees the previous set-up's copy of altcurves
        dt, cli, inputs = set_up(workload, seed, size, in_dir)
        setup_times.append(dt)
    plan = workloads.commands(workload, inputs)
    bad_items = workloads.genus2_disagreements(workload, inputs)
    # A traced report run also times the --jobs 2 pool, on the whole directory.
    pool_plan = ((workloads.corpus_report(inputs, in_dir, jobs=2),)
                 if traced and workload == "torus-ladder" else None)

    untraced, pooled, traced_passes = [], [], []
    tracer = tracing.Tracer() if traced else None

    def cycle():
        untraced.append(run_pass(cli, plan, reference=not traced))
        if pool_plan:
            pooled.append(run_pass(cli, pool_plan))
        if tracer is not None:
            tracer.install()
            try:
                dt, outs, _ = run_pass(cli, plan, tracer)
            finally:
                tracer.uninstall()
            traced_passes.append((dt, outs, tracer.take()))

    closed_loop(seconds, cycle)
    # The serial report of the whole directory that each pooled one must equal.
    serial = run_pass(cli, (workloads.corpus_report(inputs, in_dir, jobs=1),)) if pool_plan else None

    # ---- output checks, outside every timed region ----
    attempted, failures = 0, {}
    checked = ([(outs, None) for _, outs, _ in untraced]
               + ([(serial[1], None)] if serial else [])
               + [(outs, serial[1][0][2]) for _, outs, _ in pooled]
               + [(outs, None) for _, outs, _ in traced_passes])
    for outs, reference in checked:
        for command, rc, stdout in outs:
            attempted += len(command.items)
            failed = workloads.check_outcome(workload, command, rc, stdout, reference)
            failed.update({k: v for k, v in bad_items.items()
                           if k in {i.name for i in command.items}})
            for why in failed.values():
                failures[why] = failures.get(why, 0) + 1
    failed_count = sum(failures.values())

    pass_times = [dt for dt, _, _ in untraced]
    items_per_pass = len(inputs.items)
    info = {
        "passes": len(pass_times),
        "pass_s_samples": pass_times,
        "pass_s": statistics.median(pass_times),
        "items_per_s": items_per_pass * len(pass_times) / sum(pass_times),
        "items_per_pass": items_per_pass,
        "redraws": inputs.redraws,
        "inputs": [f"{i.name} n={i.n}" for i in inputs.items],
        "failures": failures,
    }
    correct = failed_count == 0
    if not traced:
        metrics = {
            "setup_s": statistics.median(setup_times),
            # Pass time in units of the reference computation, so that the
            # host's speed, which swings for minutes at a time, cancels out.
            "pass_rel": statistics.median(rel for _, _, rel in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        n_of_item = {i.path: i.n for i in inputs.items}
        try:
            profiles = [tracing.pass_profile(spans, dt) for dt, _, spans in traced_passes]
            metrics = tracing.layer_metrics(profiles, n_of_item)
        except AssertionError as e:
            print(f"trace check failed: {e}", file=sys.stderr)
            return 1
        traced_times = [dt for dt, _, _ in traced_passes]
        metrics["trace.overhead_frac"] = statistics.median(traced_times) / info["pass_s"] - 1
        metrics["cli.report.jobs2_minus_serial_s"] = (
            statistics.median(dt for dt, _, _ in pooled) - info["pass_s"] if pooled else 0.0)
        info["traced_pass_s_samples"] = traced_times
        if tracer.missing:
            print(f"warning: not in altcurves, their metrics read 0: {', '.join(tracer.missing)}",
                  file=sys.stderr)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
        tracing.write_spans(spans_path, [spans for _, _, spans in traced_passes],
                          {"workload": workload, "seed": seed, "size": size})
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed_count,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
