"""Benchmark of the rpr3 workbench: three workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload pose-stream --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``pose-stream`` (library calls, one pose
per op), ``grid-sweep`` (one cartesian plus one joint sweep through the CLI
per op) and ``cross-check`` (``verify`` plus ``dk --method both`` through
the CLI per op).  All run in this process on one thread.

A run replays a fixed list of ops drawn from ``--seed``; the op count is
``ceil(seconds * rate)`` with a nominal rate per workload, so a run measures
about ``--seconds`` seconds and the same seed and length always replay the
same ops.

Wall-clock times on a shared machine drift by tens of percent from run to
run, so the bounded end-to-end metrics are drift-normalised.  A short slice
of a fixed reference kernel (``reference_seconds``) runs after every op,
about 5% of the op time and at least one unit.  Each op's time is divided
by the mean per-unit time of the slices on either side of it:

* ``op_cost_ref``: total op time over total neighbouring reference time,
  i.e. mean op time in reference units;
* ``op_p50_ref``, ``op_p90_ref``: median and 90th percentile of the per-op
  normalised costs;
* ``setup_s``: median wall time of fresh interpreters importing ``rpr3.cli``
  and finishing the workload's first op, started between chunks of about a
  second of ops throughout the run;
* ``peak_rss_mb``: peak resident set size of a fresh interpreter that imports
  ``rpr3.cli`` and runs the first chunk of ops, drawing each op as it goes.

The raw wall-clock figures (``ops_per_s``, ``op_p50_ms``, ``op_p90_ms``)
and the machine state are printed on the line before the result.

``--trace 1`` replays a tenth of the ops twice per chunk of about a second,
once plain and once with every public function of every layer wrapped
(``tracer.py``), and prints the per-layer metrics; the spans are written to
``.bench_build/trace/<workload>.npz``.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

CHUNK_SECONDS = 1.0  # nominal length of a chunk of ops
REF_SHARE = 0.05  # reference-kernel time as a share of op time, nominal
REF_UNIT_SECONDS = 25e-6  # nominal time of one reference unit
SETUP_STARTS = 11  # fresh interpreters timed per run for setup_s
PROBE_TIMEOUT_S = 60  # a setup probe that runs longer exits with an error
IMPORTTIME_STARTS = 3  # fresh interpreters run under -X importtime per traced run
TRACE_SHARE = 0.1  # share of the ops a traced run replays
MAX_REPORTED_FAILURES = 5


@dataclass(frozen=True)
class _RefVec:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("reference vector must be finite")

    def __add__(self, other: "_RefVec") -> "_RefVec":
        return _RefVec(self.x + other.x, self.y + other.y)

    def turned(self, c: float, s: float) -> "_RefVec":
        return _RefVec(c * self.x - s * self.y, s * self.x + c * self.y)


def reference_seconds(units: int) -> float:
    """Time of ``units`` steps of a fixed kernel that shares no code with the
    program but mixes the same kinds of work: small frozen dataclasses and
    scalar math, small numpy arrays, and float formatting.  A kernel of one
    kind only tracked the program's speed less closely."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(units):
        c, s = math.cos(1e-3 * i), math.sin(1e-3 * i)
        v = _RefVec(1.0, 0.5).turned(c, s) + _RefVec(0.25, -0.75)
        m = np.array(((c, -s, v.x), (s, c, v.y), (0.2, 0.4, 1.0)))
        acc += math.atan2(v.y, v.x) + float(np.linalg.det(m)) + float(np.sin(m).sum())
        acc += len(",".join(format(t, ".17g") for t in (v.x, v.y, c, s)))
    return time.perf_counter() - start


class Reference:
    """A reference slice after every op, and each op's normalised cost.

    Slices after every op tracked machine drift more closely than slices
    after groups of ops or between one-second chunks.
    """

    def __init__(self, rate: float):
        self.units = max(1, round(REF_SHARE / (rate * REF_UNIT_SECONDS)))
        self.samples = [self._sample()]  # seconds per reference unit
        self.costs: list[float] = []  # op time over its neighbouring reference
        self.op_total = 0.0
        self.ref_total = 0.0

    def _sample(self) -> float:
        return reference_seconds(self.units) / self.units

    def add(self, op_seconds: float) -> None:
        after = self._sample()
        ref = 0.5 * (self.samples[-1] + after)
        self.samples.append(after)
        self.costs.append(op_seconds / ref)
        self.op_total += op_seconds
        self.ref_total += ref

    def ms_per_unit(self) -> float:
        return 1e3 * statistics.median(self.samples)


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs, from /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def own_peak_rss_mb() -> float:
    """Peak RSS of this process image, from VmHWM in /proc/self/status.

    Not ``ru_maxrss``: Linux carries that over ``exec`` from the forking
    process, so a probe started by the benchmark would report at least the
    benchmark's own size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted list."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Tally:
    """Attempted, failed and first failure reasons of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexplained = 0
        self.reasons: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += 1
        if outcome is None:
            return
        self.failed += 1
        verdict, why = outcome
        if verdict != "known":
            self.unexplained += 1
        if len(self.reasons) < MAX_REPORTED_FAILURES:
            self.reasons.append(f"{verdict}: {why}")


def run_and_check(workload, op, tally: Tally, call=None) -> float:
    """Run one op (timed) and check it (untimed); returns the op's seconds."""
    start = time.perf_counter()
    try:
        result = call(workload.run, op) if call else workload.run(op)
    except Exception as exc:  # a raising op is a failed op, the run goes on
        elapsed = time.perf_counter() - start
        tally.add(("bad", f"{type(exc).__name__}: {exc} on op {op!r}"))
        return elapsed
    elapsed = time.perf_counter() - start
    tally.add(workload.check(op, result))
    return elapsed


def chunks(ops: list, size: int):
    for start in range(0, len(ops), size):
        yield ops[start : start + size]


class SetupProbe:
    """Fresh interpreters that import rpr3.cli and run the workload's first ops.

    The timed ones finish the first op; they are spread over the run, between
    chunks of ops, so that their median samples the machine over the whole
    run rather than a few seconds of it.  Each probe prints its peak RSS.
    """

    def __init__(self, workload_name: str, seed: int, workdir: str):
        self.cmd = [
            sys.executable, os.path.abspath(__file__), "--probe",
            "--workload", workload_name, "--seed", str(seed), "--workdir", workdir,
        ]
        self.samples: list[float] = []

    def run(self) -> None:
        # No timeout here: waiting with one polls in sleeps of up to 50 ms,
        # which rounded these times to 50 ms steps.  The probe stops itself.
        start = time.perf_counter()
        subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL)
        self.samples.append(time.perf_counter() - start)

    def median_seconds(self) -> float:
        while len(self.samples) < SETUP_STARTS:
            self.run()
        return statistics.median(self.samples)

    def peak_rss_mb(self, ops: int) -> float:
        """Peak RSS of a fresh interpreter that runs the first ``ops`` ops,
        drawing each as it goes, so the figure holds the program and hardly
        any benchmark data."""
        proc = subprocess.run(
            self.cmd + ["--probe-ops", str(ops)], check=True, capture_output=True, text=True
        )
        return float(proc.stdout.splitlines()[-1])


def measure(workload, ops: list, chunk_ops: int, ref: Reference, tally: Tally,
            probe: SetupProbe) -> tuple[dict, dict]:
    """Plain run of ``ops``: the end-to-end metrics and the wall-clock ones."""
    batches = list(chunks(ops, chunk_ops))
    probe_after = {len(batches) * (k + 1) // SETUP_STARTS - 1 for k in range(SETUP_STARTS)}
    times: list[float] = []
    throughputs = []
    for index, chunk in enumerate(batches):
        chunk_times = []
        for op in chunk:
            elapsed = run_and_check(workload, op, tally)
            ref.add(elapsed)
            chunk_times.append(elapsed)
        throughputs.append(len(chunk_times) / math.fsum(chunk_times))
        times.extend(chunk_times)
        if index in probe_after:
            probe.run()
    costs = sorted(ref.costs)
    ordered = sorted(times)
    end_to_end = {
        "op_cost_ref": ref.op_total / ref.ref_total,
        "op_p50_ref": quantile(costs, 0.5),
        "op_p90_ref": quantile(costs, 0.9),
        "setup_s": probe.median_seconds(),
    }
    wall = {
        "ops_per_s": statistics.median(throughputs),
        "op_p50_ms": 1e3 * quantile(ordered, 0.5),
        "op_p90_ms": 1e3 * quantile(ordered, 0.9),
    }
    return end_to_end, wall


def import_times_ms() -> tuple[float, float]:
    """Median numpy and rpr3-without-numpy import times from -X importtime."""
    numpy_ms, rpr3_ms = [], []
    env = dict(os.environ, PYTHONPATH=SRC)
    for _ in range(IMPORTTIME_STARTS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rpr3.cli"],
            check=True, capture_output=True, text=True, env=env, timeout=60,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        numpy_ms.append(cumulative["numpy"] / 1e3)
        rpr3_ms.append((cumulative["rpr3.cli"] - cumulative["numpy"]) / 1e3)
    return statistics.median(numpy_ms), statistics.median(rpr3_ms)


def per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def traced_metrics(workload, ops: list, chunk_ops: int, ref: Reference, tally: Tally) -> dict:
    """Per-layer metrics: each chunk runs plain, then traced."""
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    plain = traced = 0.0
    artifact_bytes = 0
    first = 0
    for chunk in chunks(ops, chunk_ops):
        for op in chunk:
            elapsed = run_and_check(workload, op, tally)
            ref.add(elapsed)
            plain += elapsed
        tracer.install()
        try:
            for index, op in enumerate(chunk, start=first):
                traced += run_and_check(
                    workload, op, tally, call=lambda fn, arg: tracer.run_op(index, fn, arg)
                )
                artifact_bytes += workload.artifact_bytes()
        finally:
            tracer.uninstall()
        first += len(chunk)
    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
    tracer.save(os.path.join(BUILD, "trace", f"{workload.name}.npz"))

    summary = tracer.summary()
    n = summary["ops"]
    fns = summary["functions"]

    def calls(name: str) -> int:
        return fns[name]["calls"]

    def per_call(name: str, unit: float) -> float:
        return fns[name]["incl_ns"] / unit / calls(name) if calls(name) else 0.0

    layer_self = summary["layer_self_ns"]
    metrics = {f"{layer}.self_ms_per_op": per_op(layer_self[layer], n) / 1e6 for layer in LAYERS}
    numpy_ms, rpr3_ms = import_times_ms()
    metrics.update(
        {
            "geometry.platform_anchor.calls_per_op": per_op(calls("geometry.platform_anchor"), n),
            "geometry.vec2_new_per_op": per_op(calls("geometry.Vec2.__init__"), n),
            "solvers.inverse_kinematics.us_per_call": per_call("solvers.inverse_kinematics", 1e3),
            "solvers.direct_kinematics.us_per_call": per_call("solvers.direct_kinematics", 1e3),
            "jacobians.build_matrices.calls_per_op": per_op(calls("jacobians.build_matrices"), n),
            "coupler.trace_cardanic.ms_per_call": per_call("coupler.trace_cardanic", 1e6),
            "coupler.reuleaux_descriptor.ms_per_call": per_call("coupler.reuleaux_descriptor", 1e6),
            "oracle.dkp_bruteforce.ms_per_call": per_call("oracle.dkp_bruteforce", 1e6),
            "oracle.newton_iters_per_op": per_op(tracer.newton_iterations, n),
            "figio.bytes_per_op": per_op(artifact_bytes, n),
            "figio.write_csv.ms_per_call": per_call("figio.write_csv", 1e6),
            "cli.build_parser.ms_per_call": per_call("cli.build_parser", 1e6),
            "setup.import_numpy_ms": numpy_ms,
            "setup.import_rpr3_ms": rpr3_ms,
            "bench.ref_ms": ref.ms_per_unit(),
            "bench.trace_overhead_ratio": traced / plain,
            "bench.layer_share": per_op(sum(layer_self[layer] for layer in LAYERS), summary["op_ns"]),
            "bench.fail_ratio": per_op(tally.failed, tally.attempted),
        }
    )
    return metrics


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json lists it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    return {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-ops", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rpr3", "__init__.py")):
        print(f"bench: no rpr3 sources under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    units = metric_units()
    os.environ.pop("RPR_GEOMETRY", None)  # the benchmark runs the default geometry
    sys.path.insert(0, SRC)
    import random

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    if args.probe:
        faulthandler.dump_traceback_later(PROBE_TIMEOUT_S, exit=True)
        workload = cls(args.workdir)
        for op in workload.make_inputs(rng, args.probe_ops):
            run_and_check(workload, op, Tally())  # the main run judges these ops
        print(own_peak_rss_mb())
        return 0

    os.makedirs(BUILD, exist_ok=True)
    workdir = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed}
    try:
        workload = cls(workdir)
        n_ops = max(1, math.ceil(args.seconds * cls.rate))
        chunk_ops = max(1, round(cls.rate * CHUNK_SECONDS))
        ops = list(workload.make_inputs(rng, n_ops))
        gc.collect()
        gc.freeze()  # keep the input list out of the collector's scans
        steal_before = steal_ticks()
        tally = Tally()
        ref = Reference(cls.rate)
        if args.trace:
            ops = ops[: max(1, math.ceil(n_ops * TRACE_SHARE))]
            metrics = traced_metrics(workload, ops, chunk_ops, ref, tally)
        else:
            probe = SetupProbe(args.workload, args.seed, workdir)
            metrics, info["wall"] = measure(workload, ops, chunk_ops, ref, tally, probe)
            metrics["peak_rss_mb"] = probe.peak_rss_mb(chunk_ops)
        steal_after = steal_ticks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["ops"] = len(ops)
    info["machine"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
        "ref_ms": ref.ms_per_unit(),
        "steal_ticks": None if steal_before is None or steal_after is None
        else steal_after - steal_before,
    }
    print(json.dumps(info))
    for reason in tally.reasons:
        print(f"failed op, {reason}", file=sys.stderr)
    result = {
        "correct": tally.unexplained == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
