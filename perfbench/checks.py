"""Output checks, made apart from the program under test.

Each check compares the program's output against a computation written
here from raw inputs (a float64 dense-adjacency product built from the
``GraphSample`` edge lists), or against a property the method must have
(losses that repeat bitwise, no request lost).  None compares against a
stored copy of an earlier output.  A failed check raises
:class:`CheckFailed`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

#: Tolerances for float32 program output against a float64 reference.
#: Rows are sums of at most a few dozen terms of magnitude ~1, so float32
#: rounding stays orders of magnitude below these.
RTOL = 1e-4
ATOL = 1e-4

#: A served batch's logits against the same graph forwarded alone: the
#: arithmetic per row is the same, only the GEMM blocking differs.
BATCH_RTOL = 1e-4
BATCH_ATOL = 1e-5

#: Below capacity the server must keep up: simulated throughput within
#: this share of the offered rate (the tail after the last arrival is the
#: only shortfall).
THROUGHPUT_TOL = 0.05


class CheckFailed(AssertionError):
    """The program's output failed one of the benchmark's checks."""


# ----------------------------------------------------------------------
# kernel outputs against a dense float64 reference
# ----------------------------------------------------------------------
def dense_reference(graphs: Sequence) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch raw graphs: (src, dst, offsets, adjacency) with A[dst, src] = count."""
    sizes = [g.num_nodes for g in graphs]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    src = np.concatenate([g.edge_index[0] + o for g, o in zip(graphs, offsets)])
    dst = np.concatenate([g.edge_index[1] + o for g, o in zip(graphs, offsets)])
    n = int(offsets[-1])
    adjacency = np.zeros((n, n), dtype=np.float64)
    for s, d in zip(src.tolist(), dst.tolist()):
        adjacency[d, s] += 1.0
    return src, dst, offsets, adjacency


def kernel_cases(graphs: Sequence, rng: np.random.Generator) -> List[Tuple[str, np.ndarray, np.ndarray]]:
    """Run the graph kernels on a batch and pair each output with its reference.

    Covers ``scatter_sum`` (over ``index_rows``), ``gspmm`` sum and mean,
    and the segment sum/mean/max reductions, forward and backward: each
    backward gets a random upstream gradient ``G`` and its input gradient
    is compared with ``A^T G`` (or the segment analogue).
    """
    from repro.device import Device, use_device
    from repro.tensor import (
        CSRGraph,
        Tensor,
        gspmm,
        index_rows,
        scatter_sum,
        segment_max,
        segment_mean,
        segment_sum,
    )

    src, dst, offsets, adjacency = dense_reference(graphs)
    n = adjacency.shape[0]
    feat = rng.standard_normal((n, 8)).astype(np.float32)
    x64 = feat.astype(np.float64)
    degree = adjacency.sum(axis=1, keepdims=True)
    counts = np.diff(offsets).astype(np.float64)[:, None]
    membership = np.zeros((len(graphs), n), dtype=np.float64)
    for i in range(len(graphs)):
        membership[i, offsets[i]:offsets[i + 1]] = 1.0
    seg_max = np.stack([x64[offsets[i]:offsets[i + 1]].max(axis=0) for i in range(len(graphs))])

    cases: List[Tuple[str, np.ndarray, np.ndarray]] = []

    def run(name, fn, want, want_grad_of):
        x = Tensor(feat.copy(), requires_grad=True)
        out = fn(x)
        grad = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(grad)
        cases.append((name, out.data, want))
        cases.append((name + ".grad", x.grad, want_grad_of(grad.astype(np.float64))))

    with use_device(Device()):
        csr = CSRGraph.from_edge_index(src, dst, n, n)
        run("scatter_sum", lambda x: scatter_sum(index_rows(x, src), dst, n),
            adjacency @ x64, lambda g: adjacency.T @ g)
        run("gspmm_sum", lambda x: gspmm(csr, x, reduce="sum"),
            adjacency @ x64, lambda g: adjacency.T @ g)
        run("gspmm_mean", lambda x: gspmm(csr, x, reduce="mean"),
            adjacency @ x64 / np.maximum(degree, 1.0),
            lambda g: adjacency.T @ (g / np.maximum(degree, 1.0)))
        run("segment_sum", lambda x: segment_sum(x, offsets),
            membership @ x64, lambda g: membership.T @ g)
        run("segment_mean", lambda x: segment_mean(x, offsets),
            membership @ x64 / counts, lambda g: membership.T @ (g / counts))
        argmax = np.stack([x64[offsets[i]:offsets[i + 1]].argmax(axis=0) + offsets[i]
                           for i in range(len(graphs))])

        def max_grad(g):
            out = np.zeros_like(x64)
            for i in range(len(graphs)):
                out[argmax[i], np.arange(x64.shape[1])] += g[i]
            return out

        run("segment_max", lambda x: segment_max(x, offsets), seg_max, max_grad)
    return cases


def check_close(cases: Iterable[Tuple[str, np.ndarray, np.ndarray]]) -> None:
    """Every program output must match its reference row for row."""
    for name, got, want in cases:
        got = np.asarray(got, dtype=np.float64)
        if got.shape != want.shape:
            raise CheckFailed(f"{name}: shape {got.shape} != reference {want.shape}")
        scale = max(1.0, float(np.abs(want).max(initial=0.0)))
        bad = np.abs(got - want) > ATOL * scale + RTOL * np.abs(want)
        if bad.any():
            row = int(np.argwhere(bad)[0][0])
            raise CheckFailed(f"{name}: row {row} differs from the dense float64 reference")


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------
def run_signature(run) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """(losses, simulated times) of a RunResult, as exact floats."""
    losses = tuple(v for e in run.epochs for v in (e.train_loss, e.val_loss))
    times = tuple(
        v for e in run.epochs
        for v in (e.train_time, e.eval_time, *(e.phase_times[k] for k in sorted(e.phase_times)))
    )
    return losses, times + (run.total_time,)


def check_losses(name: str, train_losses: Sequence[float]) -> None:
    """Training loss must stay finite and end below its first epoch's value."""
    if not all(math.isfinite(v) for v in train_losses):
        raise CheckFailed(f"{name}: non-finite training loss {list(train_losses)}")
    if len(train_losses) < 2 or not train_losses[-1] < train_losses[0]:
        raise CheckFailed(f"{name}: training loss did not fall: {list(train_losses)}")


def check_repeats(name: str, first, other) -> None:
    """A repeated segment must reproduce the first one's numbers bitwise."""
    if first != other:
        raise CheckFailed(f"{name}: a repeated segment's losses or simulated times differ")


def check_phases(name: str, epochs: Sequence) -> None:
    """Phase times are non-negative and together within the epoch's time."""
    for e in epochs:
        phases = list(e.phase_times.values())
        if any(p < 0 for p in phases) or sum(phases) > e.train_time * (1 + 1e-9):
            raise CheckFailed(
                f"{name}: epoch {e.epoch} phases {e.phase_times} exceed epoch time {e.train_time}"
            )


def check_same_losses(name: str, losses: Sequence[float], reference: Sequence[float]) -> None:
    """Compiled and prefetched training must reproduce eager losses bitwise."""
    if list(losses) != list(reference):
        raise CheckFailed(f"{name}: losses {list(losses)} != eager {list(reference)}")


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def check_accounting(name: str, attempted: int, completed: int, shed: int, failed: int) -> None:
    """Every request is answered: completed + shed + failed == attempted, none lost."""
    if completed + shed + failed != attempted:
        raise CheckFailed(
            f"{name}: {completed} completed + {shed} shed + {failed} failed != {attempted} attempted"
        )
    if shed or failed:
        raise CheckFailed(f"{name}: {shed} shed and {failed} failed below capacity")


def check_tenants(tenants: Mapping[str, Tuple[int, int, int, int]]) -> None:
    """Per-tenant accounting: name -> (attempted, completed, shed, failed)."""
    for tenant, counts in tenants.items():
        check_accounting(f"tenant {tenant}", *counts)


def check_batch_invariance(batched: np.ndarray, singles: Sequence[np.ndarray]) -> None:
    """Row i of a batched forward equals graph i forwarded alone."""
    if len(batched) != len(singles):
        raise CheckFailed(f"{len(batched)} batched rows for {len(singles)} graphs")
    for i, (row, alone) in enumerate(zip(batched, singles)):
        alone = np.asarray(alone).reshape(-1)
        if not np.allclose(row, alone, rtol=BATCH_RTOL, atol=BATCH_ATOL):
            raise CheckFailed(f"batched logits row {i} differs from the graph served alone")


def check_throughput(name: str, throughput: float, offered: float) -> None:
    """Below capacity, simulated throughput tracks the offered rate."""
    if abs(throughput - offered) > THROUGHPUT_TOL * offered:
        raise CheckFailed(f"{name}: simulated throughput {throughput:.1f}/s vs offered {offered:.1f}/s")


def check_percentiles(name: str, p50: float, p99: float) -> None:
    if not 0.0 <= p50 <= p99:
        raise CheckFailed(f"{name}: p50 {p50} exceeds p99 {p99}")


def tenant_counts(result) -> Dict[str, Tuple[int, int, int, int]]:
    """Per-tenant (attempted, completed, shed, failed) of a FleetResult."""
    return {
        name: (t.n_requests, t.completed, t.shed, t.failed) for name, t in result.tenants.items()
    }
