"""Each output check passes on the program's real output and rejects a corrupted copy.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import copy

import numpy as np
import pytest

import checks
from checks import CheckFailed
from repro.datasets import load_dataset
from repro.device import Device, use_device
from repro.models import graph_config
from repro.serve import InferenceModel
from repro.train import GraphClassificationTrainer


@pytest.fixture(scope="module")
def enzymes():
    return load_dataset("enzymes", seed=3, num_graphs=60)


@pytest.fixture(scope="module")
def kernel_cases(enzymes):
    return checks.kernel_cases(enzymes.graphs[:6], np.random.default_rng(0))


@pytest.fixture(scope="module")
def run(enzymes):
    trainer = GraphClassificationTrainer("dglx", "gcn", enzymes, batch_size=16, max_epochs=2)
    idx = np.arange(len(enzymes))
    return trainer.run_fold(idx[:40], idx[40:50], idx[50:], seed=0)


# ----------------------------------------------------------------------
# kernels against the dense float64 reference
# ----------------------------------------------------------------------
def test_kernels_match_dense_reference(kernel_cases):
    names = {name for name, _, _ in kernel_cases}
    assert {"scatter_sum", "gspmm_sum", "gspmm_mean", "segment_sum", "segment_mean",
            "segment_max", "scatter_sum.grad", "gspmm_sum.grad", "segment_max.grad"} <= names
    checks.check_close(kernel_cases)


@pytest.mark.parametrize("target", ["scatter_sum", "gspmm_mean", "segment_sum.grad"])
def test_perturbed_aggregation_row_is_rejected(kernel_cases, target):
    corrupted = []
    for name, got, want in kernel_cases:
        if name == target:
            got = np.array(got, copy=True)
            got[len(got) // 2] += 1e-2
        corrupted.append((name, got, want))
    with pytest.raises(CheckFailed, match=target):
        checks.check_close(corrupted)


def test_dense_reference_counts_multi_edges():
    class Sample:
        num_nodes = 3
        edge_index = np.array([[0, 0, 2], [1, 1, 0]])

    _, _, offsets, adjacency = checks.dense_reference([Sample(), Sample()])
    assert list(offsets) == [0, 3, 6]
    assert adjacency[1, 0] == 2.0 and adjacency[4, 3] == 2.0 and adjacency[3, 5] == 1.0
    assert adjacency.sum() == 6.0


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------
def test_training_checks_pass_on_a_real_run(run):
    checks.check_losses("gcn", [e.train_loss for e in run.epochs])
    checks.check_phases("gcn", run.epochs)
    checks.check_repeats("gcn", checks.run_signature(run), checks.run_signature(copy.deepcopy(run)))


def test_changed_loss_is_rejected(run):
    changed = copy.deepcopy(run)
    changed.epochs[1].train_loss = np.nextafter(changed.epochs[1].train_loss, np.inf)
    with pytest.raises(CheckFailed):
        checks.check_repeats("gcn", checks.run_signature(run), checks.run_signature(changed))
    with pytest.raises(CheckFailed):
        checks.check_same_losses("gcn", [e.train_loss for e in changed.epochs],
                                 [e.train_loss for e in run.epochs])


def test_changed_simulated_time_is_rejected(run):
    changed = copy.deepcopy(run)
    changed.epochs[0].phase_times["forward"] *= 1.0 + 1e-12
    with pytest.raises(CheckFailed):
        checks.check_repeats("gcn", checks.run_signature(run), checks.run_signature(changed))


@pytest.mark.parametrize("losses", [[1.0, 1.2], [1.0, float("nan")], [1.0]])
def test_loss_that_does_not_fall_is_rejected(losses):
    with pytest.raises(CheckFailed):
        checks.check_losses("gcn", losses)


def test_phases_beyond_epoch_time_are_rejected(run):
    changed = copy.deepcopy(run)
    changed.epochs[0].phase_times["backward"] += changed.epochs[0].train_time
    with pytest.raises(CheckFailed):
        checks.check_phases("gcn", changed.epochs)


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def test_dropped_request_is_rejected():
    checks.check_accounting("serve", 1000, 1000, 0, 0)
    with pytest.raises(CheckFailed):
        checks.check_accounting("serve", 1000, 999, 0, 0)
    with pytest.raises(CheckFailed):
        checks.check_accounting("serve", 1000, 999, 1, 0)
    with pytest.raises(CheckFailed, match="hooli"):
        checks.check_tenants({"acme": (10, 10, 0, 0), "hooli": (5, 4, 0, 0)})


@pytest.fixture(scope="module")
def logits(enzymes):
    config = graph_config("gcn", in_dim=enzymes.num_features, n_classes=enzymes.num_classes)
    from repro.dglx import build_model

    with use_device(Device()):
        inference = InferenceModel("dglx", build_model(config, np.random.default_rng(0)), config, "enzymes")
        graphs = enzymes.graphs[:8]
        batched = inference.forward(inference.collate(graphs)).data
        singles = [inference.forward(inference.collate([g])).data for g in graphs]
    return batched, singles


def test_batched_logits_match_graphs_served_alone(logits):
    checks.check_batch_invariance(*logits)


def test_swapped_batch_row_is_rejected(logits):
    batched, singles = logits
    swapped = batched.copy()
    swapped[[2, 5]] = swapped[[5, 2]]
    with pytest.raises(CheckFailed, match="row 2"):
        checks.check_batch_invariance(swapped, singles)


def test_throughput_and_percentile_properties():
    checks.check_throughput("serve", 1980.0, 2000.0)
    with pytest.raises(CheckFailed):
        checks.check_throughput("serve", 1500.0, 2000.0)
    checks.check_percentiles("serve", 0.010, 0.016)
    with pytest.raises(CheckFailed):
        checks.check_percentiles("serve", 0.020, 0.016)
