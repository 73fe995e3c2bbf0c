"""The four benchmark workloads, driven through the program's public API.

Each workload turns ``--seed`` into its inputs in :meth:`Workload.setup`,
then repeats one fixed *segment* of work: a complete training run of every
model, or one replay of a fixed arrival trace.  A segment always runs with
a fresh simulated device, so its losses and simulated times repeat bitwise
and :meth:`Workload.check` can hold every segment to the first.

Why these four (README.md has the full make-up):

* ``train-dd`` — large graphs; the numpy scatter/segment primitives behind
  the tensor kernels take most of the host time.  Where a scatter-path
  change shows.
* ``train-enzymes`` — small graphs with compile and prefetch; per-op
  autograd, collation and replay overheads dominate and ``np.add.at`` is
  nearly idle.  The no-change workload for scatter work.
* ``serve-enzymes`` — forward-only dynamic batching under open-loop
  Poisson arrivals; device bookkeeping and the serving loop dominate.
* ``fleet-enzymes`` — a four-replica fleet with routing, SLA tiers and a
  result cache on a bursty three-tenant trace; the only user of
  ``repro.fleet``.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

import checks
from repro.datasets import clear_cache, load_dataset
from repro.device import Device, use_device
from repro.fleet import FleetSimulator, ResultCache, bursty_multitenant_trace
from repro.serve import DynamicBatcher, InferenceModel, ServeSimulator, poisson_trace
from repro.train import GraphClassificationTrainer

#: Profiler phases of a training step (evaluation launches carry none).
STEP_PHASES = ("data_loading", "forward", "backward", "update")


@dataclass
class Segment:
    """What one segment did and produced."""

    #: Operations attempted: training steps, or requests replayed.
    ops: int
    #: Graphs trained (per epoch, summed) or served.
    graphs: int
    #: Exact numbers every repeat of the segment must reproduce.
    signature: object
    #: The program's result records (RunResult / ServingResult / FleetResult).
    result: object
    #: Operations that did not succeed: requests shed or failed.
    failed: int = 0
    #: Simulated kernel launches in training steps (traced runs only).
    launches: int = 0


def nearest_sizes(graphs: Sequence, targets: Sequence[int]) -> List[int]:
    """Indices of distinct graphs whose node counts are nearest ``targets``.

    A small draw of seeded graphs then has the same size profile for every
    seed, so the host work of a segment does not move with the seed.
    """
    chosen: List[int] = []
    for target in targets:
        free = (i for i in range(len(graphs)) if i not in chosen)
        chosen.append(min(free, key=lambda i: (abs(graphs[i].num_nodes - target), i)))
    return chosen


class Workload:
    name = ""
    #: Segments the traced run profiles (fixed, so call counts are too).
    trace_segments = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.record_launches = False

    def setup(self) -> None:
        """Make the inputs from the seed; ends with one warm-up segment.

        Drops the previous set-up's state first, so repeated set-ups do
        not hold two copies at once.
        """
        keep = {"seed": self.seed, "record_launches": self.record_launches}
        self.__dict__.clear()
        self.__dict__.update(keep)
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def segment(self) -> Segment:
        raise NotImplementedError

    def check(self, segments: Sequence[Segment]) -> None:
        """Raise :class:`checks.CheckFailed` if an output is wrong."""
        first = segments[0]
        for seg in segments[1:]:
            checks.check_repeats(self.name, first.signature, seg.signature)

    def sim_graphs_per_s(self, first: Segment) -> float:
        raise NotImplementedError

    def sim_latency_ms(self, first: Segment) -> float:
        raise NotImplementedError

    def layer_metrics(self, first: Segment) -> Dict[str, float]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------
class TrainWorkload(Workload):
    models: Tuple[Tuple[str, str], ...] = ()
    batch_size = 0
    epochs = 2
    options: Dict[str, bool] = {}
    #: Training graphs the kernel check batches.
    kernel_check_graphs = 0

    def build(self) -> None:
        clear_cache()
        self.data, (self.train_idx, self.val_idx, self.test_idx) = self.draw(self.seed)
        self.steps_per_epoch = math.ceil(len(self.train_idx) / self.batch_size)
        self.first = self.segment()  # warm-up: lazy imports, first captures

    def draw(self, seed: int):
        raise NotImplementedError

    def _run(self, framework: str, model: str, options: Dict[str, bool]):
        trainer = GraphClassificationTrainer(
            framework, model, self.data, batch_size=self.batch_size,
            max_epochs=self.epochs, **options,
        )
        trainer.device.profiler.enabled = self.record_launches
        run = trainer.run_fold(self.train_idx, self.val_idx, self.test_idx, seed=self.seed)
        launches = sum(r.phase in STEP_PHASES for r in trainer.device.profiler.records)
        return run, launches

    def segment(self) -> Segment:
        runs, launches = {}, 0
        for framework, model in self.models:
            runs[framework, model], n = self._run(framework, model, self.options)
            launches += n
        return Segment(
            ops=len(self.models) * self.epochs * self.steps_per_epoch,
            graphs=len(self.models) * self.epochs * len(self.train_idx),
            signature={key: checks.run_signature(run) for key, run in runs.items()},
            result=runs,
            launches=launches,
        )

    def check(self, segments: Sequence[Segment]) -> None:
        super().check(segments)
        graphs = [self.data[int(i)] for i in self.train_idx[: self.kernel_check_graphs]]
        rng = np.random.default_rng(self.seed)
        checks.check_close(checks.kernel_cases(graphs, rng))
        for (framework, model), run in segments[0].result.items():
            name = f"{framework}/{model}"
            checks.check_losses(name, [e.train_loss for e in run.epochs])
            checks.check_phases(name, run.epochs)

    @staticmethod
    def sim_train_s(first: Segment) -> float:
        """Simulated training time of a segment, every epoch of every model."""
        return sum(e.train_time for run in first.result.values() for e in run.epochs)

    def sim_graphs_per_s(self, first: Segment) -> float:
        return first.graphs / self.sim_train_s(first)

    def sim_latency_ms(self, first: Segment) -> float:
        """Mean simulated time of one training step, over every model's steps."""
        return 1e3 * self.sim_train_s(first) / first.ops

    def layer_metrics(self, first: Segment) -> Dict[str, float]:
        runs = list(first.result.values())
        phases = [run.mean_phase_times() for run in runs]
        metrics = {
            f"sim.{p}_s": sum(ph.get(p, 0.0) for ph in phases) for p in STEP_PHASES
        }
        metrics["sim.launches_per_step"] = first.launches / first.ops
        metrics["sim.gpu_util"] = float(np.mean([run.gpu_utilization for run in runs]))
        return metrics


class TrainDD(TrainWorkload):
    """pygx GAT and dglx GatedGCN on DD-sized graphs (~284 nodes each)."""

    name = "train-dd"
    models = (("pygx", "gat"), ("dglx", "gatedgcn"))
    #: One paper-size DD batch (128 graphs, ~36k nodes) costs ~12 s of host
    #: time per GAT step, longer than a whole run; four graphs keep a
    #: segment near two seconds with the same kernels on the hot path.
    batch_size = 4
    pool = 160
    #: Node counts of the eight graphs: the octile midpoints of DD's
    #: node-count distribution (lognormal, mean 284), smallest first.
    node_targets = (105, 150, 187, 224, 266, 318, 397, 565)
    kernel_check_graphs = 4
    trace_segments = 1

    def draw(self, seed: int):
        data = load_dataset("dd", seed=seed, num_graphs=self.pool)
        picks = np.array(nearest_sizes(data.graphs, self.node_targets))
        # Interleave by size so each split spans small to large graphs.
        return data, (picks[0::2], picks[1::4], picks[3::4])


class TrainEnzymes(TrainWorkload):
    """dglx GCN with compile + prefetch on the full ENZYMES draw (600 graphs)."""

    name = "train-enzymes"
    models = (("dglx", "gcn"),)
    batch_size = 128
    options = {"compile": True, "prefetch": True}
    kernel_check_graphs = 32
    trace_segments = 4

    def draw(self, seed: int):
        data = load_dataset("enzymes", seed=seed)
        order = np.random.default_rng(seed).permutation(len(data))
        return data, (order[:480], order[480:540], order[540:])

    def check(self, segments: Sequence[Segment]) -> None:
        super().check(segments)
        for key, run in segments[0].result.items():
            eager, _ = self._run(*key, {})
            checks.check_same_losses(
                "/".join(key),
                [e.train_loss for e in run.epochs],
                [e.train_loss for e in eager.epochs],
            )


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    framework = ""
    #: Requests in the timed trace, and their mean arrival rate.
    n_requests = 2000
    rate = 0.0
    #: Graphs the batching-invariance check forwards, batched and alone.
    invariance_graphs = 32
    batcher_args = {"max_batch_size": 32, "max_nodes": 4096}
    queue_capacity = 128

    def build(self) -> None:
        clear_cache()
        seed = self.seed
        data = load_dataset("enzymes", seed=seed)
        order = np.random.default_rng(seed).permutation(len(data))
        # The serving model's brief training: two epochs on 128 graphs.
        trainer = GraphClassificationTrainer(self.framework, "gcn", data, batch_size=128, max_epochs=2)
        trainer.run_fold(order[:128], order[128:160], order[160:192], seed=seed)
        self.inference = InferenceModel(self.framework, trainer.final_model, trainer.config, "enzymes")
        self.samples = [data[int(i)] for i in order]
        self.build_trace(seed)
        self.first = self.segment()  # warm-up

    def build_trace(self, seed: int) -> None:
        raise NotImplementedError

    def batcher(self) -> DynamicBatcher:
        return DynamicBatcher(**self.batcher_args)

    def check(self, segments: Sequence[Segment]) -> None:
        super().check(segments)
        result = segments[0].result
        checks.check_accounting(self.name, result.n_requests, result.completed, result.shed, result.failed)
        checks.check_percentiles(self.name, result.p50, result.p99)
        checks.check_throughput(self.name, result.goodput, self.rate)
        graphs = self.samples[: self.invariance_graphs]
        with use_device(Device()):
            batched = self.inference.forward(self.inference.collate(graphs)).data
            singles = [self.inference.forward(self.inference.collate([g])).data for g in graphs]
        checks.check_batch_invariance(batched, singles)

    def layer_metrics(self, first: Segment) -> Dict[str, float]:
        result = first.result
        return {
            "sim.mean_batch": result.mean_batch_size,
            "sim.queue_delay_ms": result.mean_queue_delay * 1e3,
            "sim.p50_ms": result.p50 * 1e3,
        }

    def sim_latency_ms(self, first: Segment) -> float:
        """Simulated p99 request latency at the fixed load."""
        return first.result.p99 * 1e3


class ServeEnzymes(ServeWorkload):
    """dglx GCN behind ServeSimulator at a fixed Poisson rate below capacity."""

    name = "serve-enzymes"
    framework = "dglx"
    #: Offered load: sheds nothing; simulated capacity is near 2700/s.
    rate = 2000.0
    #: The capacity search: p99 limit, rate bracket, bisection steps, and
    #: the seeded traces whose median capacity is reported.
    p99_limit_s = 0.025
    search_lo, search_hi, search_steps = 1000.0, 5000.0, 8
    search_traces = 3
    probe_requests = 1000  # ten samples beyond the p99
    trace_segments = 4

    def build_trace(self, seed: int) -> None:
        # Poisson gaps rescaled to a mean of exactly ``rate``: the seed
        # shapes the arrivals, not the load, so batching (and the host work
        # per request) does not drift with the seed's realised rate.
        gaps = poisson_trace(self.n_requests, rate=1.0, rng=seed)
        self.arrivals = gaps * (self.n_requests / self.rate / gaps[-1])

    def replay(self, arrivals):
        simulator = ServeSimulator(self.inference, self.batcher(), queue_capacity=self.queue_capacity)
        return simulator.replay(self.samples, arrivals)

    def segment(self) -> Segment:
        result = self.replay(self.arrivals)
        return Segment(
            ops=self.n_requests,
            graphs=self.n_requests,
            signature=(result.completed, result.shed, result.failed, result.p50, result.p99, result.elapsed),
            result=result,
            failed=result.shed + result.failed,
        )

    def meets_limit(self, unit_trace, rate: float) -> bool:
        result = self.replay(unit_trace / rate)
        return result.shed == 0 and result.failed == 0 and result.p99 <= self.p99_limit_s

    def capacity(self, unit_trace) -> float:
        """Bisect (in log space) for the highest rate meeting the p99 limit.

        Every probe replays the same unit-rate arrivals at another speed.
        """
        lo, hi = self.search_lo, self.search_hi
        if not self.meets_limit(unit_trace, lo):
            raise checks.CheckFailed(f"{self.name}: p99 limit missed even at {lo}/s")
        for _ in range(self.search_steps):
            mid = math.sqrt(lo * hi)
            if self.meets_limit(unit_trace, mid):
                lo = mid
            else:
                hi = mid
        return lo

    def sim_graphs_per_s(self, first: Segment) -> float:
        """Simulated capacity: the median over seeded traces of their capacity.

        Near saturation the p99 of one trace moves with its burstiness, so
        one trace's capacity varies ~5% with the seed; the median of three
        varies less.
        """
        return statistics.median(
            self.capacity(poisson_trace(self.probe_requests, rate=1.0, rng=np.random.default_rng([self.seed, k])))
            for k in range(self.search_traces)
        )

    def layer_metrics(self, first: Segment) -> Dict[str, float]:
        metrics = super().layer_metrics(first)
        metrics["serve.batches"] = float(sum(first.result.batch_size_histogram.values()))
        return metrics


class FleetEnzymes(ServeWorkload):
    """pygx GCN behind a 4-replica p2c fleet with SLA tiers and a result cache."""

    name = "fleet-enzymes"
    framework = "pygx"
    replicas = 4
    cache_entries = 64
    #: Mean offered rate of the three-tenant trace; sheds nothing.
    rate = 3000.0
    #: A thousand requests keep a segment near one second and ten
    #: samples beyond the p99.
    n_requests = 1000
    trace_segments = 4

    def build_trace(self, seed: int) -> None:
        # The scale-1.0 trace's shape, its time axis rescaled to a mean of
        # exactly ``rate``, for the same reason as serve-enzymes.
        arrivals = bursty_multitenant_trace(
            n_samples=len(self.samples), scale=1.0, n_requests=self.n_requests, seed=seed,
        )
        stretch = self.n_requests / self.rate / arrivals[-1].time
        self.arrivals = [dataclasses.replace(a, time=a.time * stretch) for a in arrivals]

    def segment(self) -> Segment:
        simulator = FleetSimulator(
            self.inference, n_replicas=self.replicas, policy="p2c", batcher=self.batcher(),
            queue_capacity=self.queue_capacity, cache=ResultCache(self.cache_entries), seed=self.seed,
        )
        result = simulator.replay(self.samples, self.arrivals)
        return Segment(
            ops=self.n_requests,
            graphs=self.n_requests,
            signature=(checks.tenant_counts(result), result.p50, result.p99, result.elapsed,
                       result.cache_hits),
            result=result,
            failed=sum(t.shed + t.failed for t in result.tenants.values()),
        )

    def check(self, segments: Sequence[Segment]) -> None:
        super().check(segments)
        checks.check_tenants(checks.tenant_counts(segments[0].result))

    def sim_graphs_per_s(self, first: Segment) -> float:
        """Completions per simulated second at the fixed load.

        Bounded by the offered rate, so it moves only when the fleet falls
        behind or sheds; a simulated gain shows in ``sim_latency_ms`` (the
        p99, which repeats within ~1% across seeds).  A capacity search
        like serve-enzymes' was measured and dropped: compressing the trace
        in time, the first shed comes at the bronze tenant's quota during
        its flash crowd, and the median over three seeded traces of that
        rate spread 0.185 (quartile distance over median) across ten seeds
        (0.10 allowing three sheds), at ~10-13 s of host time per trace.
        """
        return first.result.goodput

    def layer_metrics(self, first: Segment) -> Dict[str, float]:
        metrics = super().layer_metrics(first)
        result = first.result
        metrics["serve.batches"] = float(sum(r.batches_served for r in result.replicas))
        metrics["fleet.cache_hits"] = float(result.cache_hits)
        metrics["fleet.cache_hit_ratio"] = result.cache_hit_rate
        return metrics


WORKLOADS = {w.name: w for w in (TrainDD, TrainEnzymes, ServeEnzymes, FleetEnzymes)}
