"""perfbench: the repository's benchmark, on the host clock and the simulated one.

Run from the repository root (nothing to build; the program is imported
from ``src/``)::

    python3 perfbench/run.py --workload train-dd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, one process each

A run sets up its workload several times (the median is ``setup_s``),
repeats the workload's fixed segment of work for ``--seconds``, checks the
program's outputs, and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics`` (each ``{"value",
"unit"}``).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of a traced run.  A fuller report goes to
``perfbench/results/<workload>[.trace].json``.  README.md documents the
workloads, the metrics and reference figures.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: a second one doubles CPU time with no wall-time gain on
# a 2-vCPU host, and adds scheduling noise.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import PACKAGES  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

#: Set-up repetitions per run; ``setup_s`` is their median plus imports.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "graphs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_graphs_per_s": "1/s",
    "sim_latency_ms": "ms",
}

PER_LAYER = {
    **{f"host.{p}_s": "s" for p in PACKAGES},
    "numpy.add_at_s": "s",
    "numpy.add_at_calls": "count",
    "numpy.reduceat_s": "s",
    "numpy.reduceat_calls": "count",
    "numpy.astype_s": "s",
    "numpy.astype_calls": "count",
    "scipy.csr_matvecs_s": "s",
    "span.collate_ms": "ms",
    "span.forward_ms": "ms",
    "span.backward_ms": "ms",
    "span.optim_step_ms": "ms",
    "sim.data_loading_s": "s",
    "sim.forward_s": "s",
    "sim.backward_s": "s",
    "sim.update_s": "s",
    "sim.launches_per_step": "count",
    "sim.gpu_util": "ratio",
    "sim.mean_batch": "count",
    "sim.queue_delay_ms": "ms",
    "sim.p50_ms": "ms",
    "serve.batches": "count",
    "fleet.cache_hits": "count",
    "fleet.cache_hit_ratio": "ratio",
    "machine.ref_loop_ms": "ms",
    "trace.slowdown": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def verify(workload, segments, sim_rate: bool = False):
    """Run the output checks; returns (correct, simulated rate).

    With ``sim_rate`` the workload's ``sim_graphs_per_s`` is found inside
    the checked region too, since a capacity search checks as it probes.
    The rate is 0.0 when not asked for or when a check failed.
    """
    from checks import CheckFailed

    try:
        workload.check(segments)
        return True, workload.sim_graphs_per_s(segments[0]) if sim_rate else 0.0
    except CheckFailed as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        return False, 0.0


def run_untraced(workload, args, import_s: float, report: dict) -> dict:
    import harness

    first_ref = harness.reference_loop()
    setup = harness.time_segments(workload.setup, 0.0, lambda _: None, min_segments=1)
    segments = []
    times = harness.time_segments(workload.segment, args.seconds, segments.append)
    correct, sim_rate = verify(workload, [workload.first] + segments, sim_rate=True)
    peak_rss_mb = harness.peak_rss_mb()
    # The further set-ups come after the peak is read: freed and re-made
    # inputs fragment the heap and would raise it by a varying amount.
    again = harness.time_segments(
        workload.setup, 0.0, lambda _: None, min_segments=SETUP_REPEATS - 1
    )
    setup_s = statistics.median(setup.normalised() + again.normalised())
    values = {
        "setup_s": import_s * harness.NOMINAL_REF_S / first_ref + setup_s,
        "graphs_per_s": segments[0].graphs / times.median_segment_s(),
        "peak_rss_mb": peak_rss_mb,
        "sim_graphs_per_s": sim_rate,
        "sim_latency_ms": workload.sim_latency_ms(segments[0]),
    }
    report.update(import_s=import_s, setup=[vars(setup), vars(again)], segments=vars(times),
                  normalised_segment_s=times.normalised())
    return _result(correct, segments, values, END_TO_END)


def run_traced(workload, args, report: dict) -> dict:
    import harness
    from tracing import Tracer

    workload.setup()
    segments = []
    untraced = harness.time_segments(workload.segment, args.seconds / 2, segments.append)

    tracer = Tracer()
    workload.record_launches = True
    with tracer.tracing():
        workload.setup()

    def traced_segment():
        with tracer.tracing():
            return workload.segment()

    traced_results = []
    traced = harness.time_segments(
        traced_segment, 0.0, traced_results.append, min_segments=workload.trace_segments
    )
    correct, _ = verify(workload, [workload.first] + segments + traced_results)
    values = tracer.metrics()
    values.update(workload.layer_metrics(traced_results[0]))
    values["machine.ref_loop_ms"] = 1e3 * statistics.median(untraced.refs + traced.refs)
    values["trace.slowdown"] = traced.median_segment_s() / untraced.median_segment_s()
    report.update(untraced=vars(untraced), traced=vars(traced))
    return _result(correct, segments + traced_results, values, PER_LAYER)


def _result(correct: bool, segments, values: dict, units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": sum(s.ops for s in segments),
        "failed": sum(s.failed for s in segments),
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()
        },
    }


def run_one(args: argparse.Namespace, workload, import_s: float) -> int:
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record()}
    if args.trace:
        result = run_traced(workload, args, report)
    else:
        result = run_untraced(workload, args, import_s, report)
    report["result"] = result
    RESULTS.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    (RESULTS / f"{args.workload}{suffix}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace, names) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(name, json.dumps(result))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; options: all, {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    return run_one(args, WORKLOADS[args.workload](args.seed), import_s)


if __name__ == "__main__":
    sys.exit(main())
