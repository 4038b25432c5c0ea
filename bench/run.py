"""Benchmark of altcurves: seeded workloads run through the public CLI.

One run of one workload (the last stdout line is the JSON result):
  python3 bench/run.py --workload torus-ladder --seed 1 --seconds 35 --trace 0
Every workload, over several seeds, with each metric's median and quartiles:
  python3 bench/run.py --workload all --repeat 10 [--trace 0|1]
Smoke check of the harness at a tiny input size:
  python3 bench/run.py --smoke

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
traced passes too and reports the per-layer metrics.  Each workload runs in a
child Python of its own (bench/child.py).  Metric names and units come from
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROGRAM_FILES = ("src/altcurves/cli.py", "scripts/gen_fixtures.py")
CHILD_TIMEOUT_S = 170
DEFAULT_SEED = 1


class BenchError(Exception):
    pass


def run_child(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(seconds),
            str(trace), size]
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_of(spec: dict, raw: dict, trace: int) -> dict:
    """The result object: the declared metrics only, each with its unit."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if set(raw["metrics"]) != set(names):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(names) - set(raw['metrics']))}, "
            f"undeclared {sorted(set(raw['metrics']) - set(names))}")
    return {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def print_table(workload: str, seed: int, result: dict, info: dict) -> None:
    print(f"== {workload}, seed {seed}: {info['passes']} untraced passes of "
          f"{info['items_per_pass']} items, {info['redraws']} redraws")
    print(f"  inputs: {', '.join(info['inputs'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")
    # Wall-clock figures, shown but not bounded: they follow the host's speed.
    print(f"  {'pass_s (median, unbounded)':<58} {info['pass_s']:>14.6g} s")
    print(f"  {'items_per_s (unbounded)':<58} {info['items_per_s']:>14.6g} 1/s")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<58} {failed_frac:>14.6g} 1  "
          f"({result['failed']} of {result['attempted']} items)")
    samples = info["pass_s_samples"]
    print(f"  pass_s samples: {' '.join(f'{x:.4g}' for x in samples)}")
    # the highest percentile with at least ten samples beyond it
    q = int(100 * (1 - 10 / len(samples)))
    if q > 50:
        print(f"  pass_s p{q} {statistics.quantiles(samples, n=100)[q - 1]:.6g} s "
              f"over {len(samples)} passes")
    if "spans_file" in info:
        print(f"  traced passes: {' '.join(f'{x:.4g}' for x in info['traced_pass_s_samples'])} s; "
              f"spans in {info['spans_file']}")
    for why, count in info["failures"].items():
        print(f"  FAILED x{count}: {why}")


def repeat_summary(spec: dict, runs: dict, trace: int) -> bool:
    """Median and quartiles of each metric over a workload's runs."""
    steady = True
    bounds = {m["name"]: m.get("bound") for m in spec["per_layer" if trace else "end_to_end"]}
    print("\nworkload          metric                                 median           q1"
          "           q3   spread  bound")
    for workload, results in runs.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            verdict = ""
            if bound is not None and name != "setup_s":
                ok = spread <= bound / 3
                steady &= ok
                verdict = "ok" if ok else "WIDE"
            print(f"{workload:<17} {name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f}  {bound if bound is not None else '-'} {verdict}")
    return steady


def smoke(spec: dict) -> int:
    """Every workload at a tiny size, untraced and traced."""
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = result_of(spec, run_child(workload, DEFAULT_SEED, 0.1, trace, "tiny"), trace)
            units_given = all(m["unit"] for m in result["metrics"].values())
            good = result["correct"] and result["failed"] == 0 and units_given
            ok &= good
            print(f"smoke {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"failed {result['failed']} of {result['attempted']}: {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, with seeds seed, seed+1, ...")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json",) + PROGRAM_FILES if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    selected = names if args.workload == "all" else [args.workload]
    if not set(selected) <= set(names) or args.repeat < 1:
        parser.error(f"--workload is one of {', '.join(names)} or all; --repeat is positive")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    try:
        if args.smoke:
            return smoke(spec)
        runs = {}
        for workload in selected:
            runs[workload] = []
            for seed in range(args.seed, args.seed + args.repeat):
                raw = run_child(workload, seed, seconds, args.trace, "full")
                result = result_of(spec, raw, args.trace)
                print_table(workload, seed, result, raw["info"])
                print(json.dumps(result), flush=True)
                runs[workload].append(result)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.repeat > 1:
        steady = repeat_summary(spec, runs, args.trace)
        print(f"every bounded spread below a third of its bound: {'yes' if steady else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
