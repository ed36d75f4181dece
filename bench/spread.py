"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads pose-stream grid-sweep cross-check \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0] [--write bench/baseline.json]

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, plus the attempted and failed op counts per run.
``--write`` stores the same figures in a JSON file, under ``end_to_end``
for ``--trace 0`` and ``per_layer`` for ``--trace 1``, keeping the other key.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's information line and its result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=600,
    )
    info, result = map(json.loads, proc.stdout.splitlines()[-2:])
    if not result["correct"]:
        print(f"{workload} seed {seed}: not correct\n{proc.stderr}", file=sys.stderr)
    return info, result


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", help="JSON file for the figures")
    args = parser.parse_args(argv)
    config = load_config()
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in config["workloads"]]

    report = {"seconds": config["run_seconds"], "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = [run_once(workload, seed, config["run_seconds"], args.trace) for seed in args.seeds]
        results = [result for _, result in runs]
        metrics = {
            name: describe([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        }
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": metrics,
            "machine": [info["machine"] for info, _ in runs],
        }
        if "wall" in runs[0][0]:
            report["workloads"][workload]["wall"] = {
                name: describe([info["wall"][name] for info, _ in runs]) for name in runs[0][0]["wall"]
            }
        print(f"{workload}: correct={report['workloads'][workload]['correct']} "
              f"attempted={report['workloads'][workload]['attempted']} "
              f"failed={report['workloads'][workload]['failed']}")
        for name, d in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  spread/bound {d['spread'] / bound:.2f}"
            print(f"  {name:42s} median {d['median']:.6g}  q1 {d['q1']:.6g}  q3 {d['q3']:.6g}"
                  f"  spread {d['spread']:.4f}{flag}", flush=True)
    if args.write:
        stored = {}
        if os.path.exists(args.write):
            with open(args.write, encoding="utf-8") as fh:
                stored = json.load(fh)
        stored["per_layer" if args.trace else "end_to_end"] = report
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
