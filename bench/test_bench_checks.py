"""Tests of the benchmark's own checks: the references reproduce hand-worked
examples, and every check rejects a deliberately perturbed output.

Run with ``PYTHONPATH=src python -m pytest bench`` from the repository root.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

import bench_checks as CHK
import bench_trace


@dataclass
class Report:
    """The fields of a MetricsReport / TrainReport that the checks read."""

    auc: float = 0.0
    mae: float = 0.0
    ndcg5: float = 0.0
    recall5: float = 0.0
    mrr: float = 0.0
    val_losses: list = field(default_factory=list)
    epochs_run: int = 0
    best_epoch: int = -1


def test_auc_reference_hand_examples():
    # 3 of 4 positive-negative pairs ordered correctly
    assert CHK.auc_reference([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    # positives {0.5, 0.9}, negatives {0.5, 0.2}: the 0.5-0.5 tie counts 1/2
    assert CHK.auc_reference([0.5, 0.5, 0.2, 0.9], [1, 0, 0, 1]) == 0.875


def test_ranking_reference_hand_example():
    # user 0: scores tie between items 10 and 12, so item 10 ranks first:
    # order 11, 10, 12 with relevance 0, 1, 1. User 1 has no relevant item.
    got = CHK.ranking_reference([0, 0, 0, 1, 1], [10, 11, 12, 3, 4],
                                [0.2, 0.9, 0.2, 0.7, 0.1], [1, 0, 1, 0, 0])
    ndcg0 = (1 / math.log2(3) + 1 / math.log2(4)) / (1 + 1 / math.log2(3))
    assert got["ndcg5"] == pytest.approx(ndcg0 / 2, abs=1e-15)
    assert got["recall5"] == 0.5
    assert got["mrr"] == 0.25


def test_nt_xent_reference_hand_examples():
    # one pair: each view's only other view is its partner, so the loss is 0
    assert CHK.nt_xent_reference(np.array([[1.0, 2.0], [0.5, -1.0]]), 0.7) == pytest.approx(0.0, abs=1e-15)
    # two orthogonal pairs at tau = 1: every view sees logits 1 (partner), 0, 0
    reps = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert CHK.nt_xent_reference(reps, 1.0) == pytest.approx(math.log(math.e + 2) - 1, abs=1e-15)


def _metrics_case():
    rng = np.random.default_rng(0)
    users = np.repeat(np.arange(20), 5)
    items = np.tile(np.arange(5), 20)
    scores = rng.random(100)
    labels = (rng.random(100) < 0.4).astype(np.int64)
    ref = CHK.ranking_reference(users, items, scores, labels)
    report = Report(auc=CHK.auc_reference(scores, labels),
                    mae=float(np.abs(scores - labels).mean()), **ref)
    return report, (users, items, scores, labels)


def test_check_metrics_accepts_exact_and_rejects_auc_off_by_1e6():
    report, case = _metrics_case()
    assert CHK.check_metrics(report, *case) == []
    report.auc += 1e-6
    assert any(p.startswith("auc") for p in CHK.check_metrics(report, *case))


def test_check_metrics_rejects_a_perturbed_ranking_metric():
    report, case = _metrics_case()
    report.mrr += 1e-9
    assert any(p.startswith("mrr") for p in CHK.check_metrics(report, *case))


def test_check_metrics_matches_evaluate():
    sim = pytest.importorskip("cclrec.simulate")
    from cclrec import metrics as MET
    from cclrec import model as M

    bundle = sim.generate(sim.SimConfig(m=40, n=30, exposures_per_user=6,
                                        test_exposures_per_user=5, seed=3), inclusion_draws=5).dataset
    params = M.init_params(bundle.m, bundle.n, 4, 1, np.random.default_rng(0))
    test = bundle.test
    scores = M.forward(params, test.users, test.items).y
    assert CHK.check_metrics(MET.evaluate(params, bundle), test.users, test.items, scores, test.labels) == []


def test_better_than_chance():
    assert CHK.check_better_than_chance("mle", 0.5000001) == []
    assert CHK.check_better_than_chance("mle", 0.5) != []


def test_cf_check_rejects_a_positive_inside_the_exposure_set():
    exposed = CHK.exposure_sets([0, 0, 1], [3, 4, 3])
    assert CHK.check_cf_positives([0, 1], [5, 4], exposed) == []
    assert CHK.check_cf_positives([0, 1], [4, 4], exposed) != []


def test_argmax_reference_breaks_ties_by_lowest_index_and_skips_the_anchor():
    values = [0.5, 0.2, 0.95, 0.2, 0.5]
    assert CHK.argmax_difference(values, 0) == 2  # |0.95-0.5| beats |0.2-0.5|
    assert CHK.argmax_difference(values, 2) == 1  # items 1 and 3 tie at 0.75
    assert CHK.argmax_difference([0.3, 0.3], 0) == 1  # the anchor is never its own positive


def test_argmax_check_rejects_a_positive_that_is_not_the_argmax():
    rows = [[0.5, 0.2, 0.95, 0.2], [0.2, 0.2, 0.2, 0.6]]
    assert CHK.check_argmax_positives("ps", [0, 3], [2, 0], lambda k: rows[k]) == []
    assert CHK.check_argmax_positives("ps", [0, 3], [2, 1], lambda k: rows[k]) != []


def test_early_stopping_check():
    # stopped after patience + 1 = 3 epochs without a new best
    good = Report(val_losses=[3.0, 2.0, 2.0, 2.5, 2.1], epochs_run=5, best_epoch=1)
    assert CHK.check_early_stopping(good, max_epochs=10, patience=2) == []
    # epoch 2 ties the minimum: the first argmin is 1, not 2
    assert CHK.check_early_stopping(Report(val_losses=good.val_losses, epochs_run=5, best_epoch=2),
                                    max_epochs=10, patience=2) != []
    # stopped too early: only 2 epochs after the best
    assert CHK.check_early_stopping(Report(val_losses=[3.0, 2.0, 2.5, 2.1], epochs_run=4, best_epoch=1),
                                    max_epochs=10, patience=2) != []
    # one validation loss per epoch
    assert CHK.check_early_stopping(Report(val_losses=[3.0, 2.0], epochs_run=3, best_epoch=1),
                                    max_epochs=3, patience=5) != []


def test_kernel_check_accepts_the_exact_gradient_and_rejects_a_perturbed_one():
    rng = np.random.default_rng(1)
    reps, tau = rng.normal(size=(6, 3)), 0.5
    # analytic gradient of the reference: d/dh of mean_a [lse_a - s(a, a^1)]
    s = reps @ reps.T / tau
    np.fill_diagonal(s, -np.inf)
    p = np.exp(s - s.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(6), np.arange(6) ^ 1] -= 1.0
    grad = (p + p.T) @ reps / (tau * 6)
    loss = CHK.nt_xent_reference(reps, tau)
    coords = [(0, 0), (3, 2), (5, 1)]
    assert CHK.check_kernel(loss, grad, reps, tau, coords) == []
    assert CHK.check_kernel(loss + 1e-8, grad, reps, tau, coords) != []
    bad = grad.copy()
    bad[3, 2] *= 1.001
    assert CHK.check_kernel(loss, bad, reps, tau, coords) != []


def test_split_counts_check():
    assert CHK.check_split_counts([0, 0, 1, 1], [1, 2, 1, 3], [0, 1], [3, 2], 2, 2, 1) == []
    # user 1's test item 3 is also a train item
    assert CHK.check_split_counts([0, 0, 1, 1], [1, 2, 1, 3], [0, 1], [3, 3], 2, 2, 1) != []
    assert CHK.check_split_counts([0, 0, 0, 1], [1, 2, 4, 3], [0, 1], [3, 2], 2, 2, 1) != []


def test_same_arrays_check():
    a = [np.arange(3.0), np.ones((2, 2))]
    assert CHK.check_same_arrays("p", a, [x.copy() for x in a]) == []
    b = [x.copy() for x in a]
    b[0][1] = np.nextafter(b[0][1], 2.0)
    assert CHK.check_same_arrays("p", a, b) != []


def test_self_times_add_up_to_the_region():
    tracer = bench_trace.Tracer()

    def leaf():
        return sum(range(1000))

    def parent():
        return tracer.wrap("leaf", leaf)() + tracer.wrap("leaf", leaf)()

    _, spans = tracer.region(tracer.wrap("parent", parent))
    times = bench_trace.self_times(tracer.names, spans)
    assert times["leaf"]["calls"] == 2 and times["parent"]["calls"] == 1
    assert sum(t["self_s"] for t in times.values()) == pytest.approx(times["region"]["inclusive_s"], rel=1e-9)


def test_tracer_wraps_the_program_and_restores_it():
    simulate = pytest.importorskip("cclrec.simulate")
    import importlib

    from cclrec import training as T

    originals = {(m, a): getattr(importlib.import_module(f"cclrec.{m}"), a)
                 for m, a, _, _ in bench_trace.WRAPPED}
    bundle = simulate.generate(simulate.SimConfig(m=30, n=20, exposures_per_user=5,
                                                  test_exposures_per_user=3, seed=1),
                               inclusion_draws=5).dataset
    config = T.TrainConfig(lam=0.5, max_epochs=2, batch_size=32, embed_dim=4, seed=0)
    plain, _ = T.train(bundle, config)

    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        (traced, report), spans = tracer.region(lambda: T.train(bundle, config))
    finally:
        tracer.uninstall()
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(f"cclrec.{m}"), a) is fn

    assert CHK.check_same_arrays("params", plain.flat_arrays(), traced.flat_arrays()) == []
    times = bench_trace.self_times(tracer.names, spans)
    assert times["batch_objective"]["calls"] == times["adam_step"]["calls"] == times["ccl_grad"]["calls"]
    assert times["validation"]["calls"] == times["ccl_loss"]["calls"] == report.epochs_run == 2
    assert times["sampler"]["calls"] == report.sampler_calls + times["ccl_loss"]["rows"] // 2
    names = tracer.names
    parent_of_grad = {names[spans[s[3]][0]] for s in spans if names[s[0]] == "ccl_grad"}
    assert parent_of_grad == {"batch_objective"}
