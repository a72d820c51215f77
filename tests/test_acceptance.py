"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The Coat-dataset criteria (5-8, 10) need the dataset on disk: set
CCLREC_COAT_DIR or place the files under data/coat/. They skip with an
explicit reason when it is absent.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cclrec import model as M
from cclrec import training as T
from cclrec.contrastive import CCLBatch, ccl_loss
from cclrec.data import load_coat
from cclrec.metrics import auc, evaluate, gini, mae, ranking_metrics
from cclrec.propensity import PropensityTable
from cclrec.simulate import SimConfig, generate
from cclrec.training import TrainConfig, batch_objective, train


def _coat_dir():
    cand = os.environ.get("CCLREC_COAT_DIR", "data/coat")
    path = Path(cand)
    if (path / "train.ascii").exists() and (path / "test.ascii").exists():
        return path
    return None


COAT = _coat_dir()
needs_coat = pytest.mark.skipif(
    COAT is None,
    reason="Coat dataset not present (set CCLREC_COAT_DIR or add data/coat/); "
           "dataset is not downloadable in this environment")

# Settings for the Coat reproduction runs. Untuned on real data (see skip
# reason above); chosen to match the synthetic-scale defaults.
COAT_CONFIG = TrainConfig(lam=1.0, tau=1.0, batch_size=512, embed_dim=8,
                          hidden_layers=1, learning_rate=1e-3,
                          max_epochs=200, patience=10)


def verdict(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = M.init_params(4, 4, 4, 1, rng)
        users = rng.integers(0, 4, 5)
        items = rng.integers(0, 4, 5)
        labels = rng.integers(0, 2, 5).astype(float)
        weights = np.full(5, 1 / 5)
        pos_items = rng.integers(0, 4, 5)
        lam, tau = 1.0, 1.0

        def loss_fn(p):
            return batch_objective(p, users, items, labels, weights, lam, tau,
                                   pos_items=pos_items)[0]

        _, _, _, analytic = batch_objective(params, users, items, labels,
                                            weights, lam, tau, pos_items=pos_items)
        h = 1e-5
        for p_arr, g_arr in zip(params.flat_arrays(), analytic.flat_arrays()):
            it = np.nditer(p_arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = p_arr[ix]
                p_arr[ix] = orig + h
                up = loss_fn(params)
                p_arr[ix] = orig - h
                down = loss_fn(params)
                p_arr[ix] = orig
                num = (up - down) / (2 * h)
                denom = max(abs(g_arr[ix]), abs(num), 1e-6)
                worst = max(worst, abs(g_arr[ix] - num) / denom)
    elapsed = time.perf_counter() - start
    verdict(1, f"gradients vs finite differences, max rel err {worst:.2e} "
               f"({elapsed:.1f}s)", worst < 1e-4 and elapsed < 10)


def test_criterion_2_contrastive_loss_oracle():
    start = time.perf_counter()

    def brute(reps, tau):
        two_n = len(reps)

        def l(a, b):
            num = np.exp(reps[a] @ reps[b] / tau)
            den = sum(np.exp(reps[a] @ reps[m] / tau)
                      for m in range(two_n) if m != a)
            return -np.log(num / den)

        return sum(l(2 * k, 2 * k + 1) + l(2 * k + 1, 2 * k)
                   for k in range(two_n // 2)) / two_n

    ok = True
    for n_pairs in (1, 2, 3, 4):
        rng = np.random.default_rng(100 + n_pairs)
        reps = rng.normal(size=(2 * n_pairs, 6))
        got = ccl_loss(CCLBatch(reps, 0.7))
        ok &= abs(got - brute(reps, 0.7)) < 1e-10
        if n_pairs == 1:
            ok &= got == 0.0
    elapsed = time.perf_counter() - start
    verdict(2, f"contrastive loss matches brute force, N=1 gives 0 "
               f"({elapsed:.2f}s)", ok and elapsed < 1)


def test_criterion_3_metric_examples():
    start = time.perf_counter()
    tol = 1e-9

    def r(rel):
        # the reductions evaluate runs, on a one-user table: items in list
        # order, scores strictly descending
        items = np.arange(len(rel))
        return ranking_metrics(np.zeros_like(items), items, -items.astype(np.float64),
                               np.asarray(rel, dtype=np.int64), len(rel))

    checks = [
        abs(mae([0.3], [1]) - 0.7) < tol,
        mae([0.0, 1.0], [0, 1]) == 0.0,
        abs(mae([0.2, 0.4], [0, 1]) - 0.4) < tol,
        auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0,
        abs(auc([0.5, 0.5, 0.5], [1, 0, 1]) - 0.5) < tol,
        abs(auc([0.9, 0.8, 0.3], [1, 0, 1]) - 0.5) < tol,
        abs(r([1, 0, 0, 0, 0])["ndcg5"] - 1.0) < tol,
        abs(r([0, 1, 0, 0, 0])["ndcg5"] - 1 / np.log2(3)) < tol,
        r([0, 0, 0])["ndcg5"] == 0.0,
        r([1, 0, 0])["recall1"] == 1.0,
        abs(r([1, 0, 1])["recall1"] - 0.5) < tol,
        r([0, 0, 0, 0, 0, 1])["recall5"] == 0.0,
        r([1, 0, 0])["mrr"] == 1.0,
        abs(r([0, 0, 1])["mrr"] - 1 / 3) < tol,
        r([0, 0, 0])["mrr"] == 0.0,
        abs(gini([3, 3, 3, 3])) < tol,
        abs(gini([0, 0, 0, 4]) - 0.75) < tol,
        abs(gini([1, 3]) - 0.25) < tol,
        r([1] * 5)["global_utility"] == 1.0,
        abs(r([1, 0, 1, 0, 0])["global_utility"] - 0.4) < tol,
        r([0] * 5)["global_utility"] == 0.0,
    ]
    elapsed = time.perf_counter() - start
    verdict(3, f"{sum(checks)}/{len(checks)} metric examples at 1e-9 "
               f"({elapsed:.2f}s)", all(checks) and elapsed < 1)


def test_criterion_4_ips_snips_algebra():
    rng = np.random.default_rng(0)
    losses = rng.uniform(0, 1, 50)
    props = rng.uniform(0.1, 1.0, 50)

    def rec_loss(objective, p):  # the trainer's weighted rec objective
        return float((M.rec_weights(objective, p, len(p)) * losses).sum())

    ok = abs(rec_loss("ips", np.ones(50)) - losses.mean()) < 1e-12
    ref = rec_loss("snips", props)
    for c in (0.1, 2.0, 10.0):
        ok &= abs(rec_loss("snips", c * props) - ref) < 1e-12
    verdict(4, "ips reduces to mean at P=1; snips invariant under P -> cP", ok)


@needs_coat
def test_criterion_5_coat_baseline():
    bundle = load_coat(COAT)
    start = time.perf_counter()
    aucs = []
    for seed in range(10):
        params, _ = train(bundle, replace(COAT_CONFIG, lam=0.0, seed=seed))
        aucs.append(evaluate(params, bundle).auc)
    mean = float(np.mean(aucs))
    elapsed = time.perf_counter() - start
    verdict(5, f"Coat baseline 10-seed mean AUC {mean:.4f} ({elapsed:.0f}s)",
            0.67 <= mean <= 0.73 and elapsed < 300)


@needs_coat
def test_criterion_6_coat_ccl():
    bundle = load_coat(COAT)
    start = time.perf_counter()
    base_aucs, ccl_aucs, ccl_ndcgs = [], [], []
    for seed in range(10):
        p_base, _ = train(bundle, replace(COAT_CONFIG, lam=0.0, seed=seed))
        base_aucs.append(evaluate(p_base, bundle).auc)
        p_ccl, _ = train(bundle, replace(COAT_CONFIG, seed=seed))
        rep = evaluate(p_ccl, bundle)
        ccl_aucs.append(rep.auc)
        ccl_ndcgs.append(rep.ndcg5)
    mean_auc = float(np.mean(ccl_aucs))
    mean_ndcg = float(np.mean(ccl_ndcgs))
    margin = mean_auc - float(np.mean(base_aucs))
    elapsed = time.perf_counter() - start
    verdict(6, f"Coat CCL AUC {mean_auc:.4f}, NDCG@5 {mean_ndcg:.4f}, "
               f"margin {margin:+.4f} ({elapsed:.0f}s)",
            0.74 <= mean_auc <= 0.80 and 0.606 <= mean_ndcg <= 0.686
            and margin >= 0.02 and elapsed < 900)


@needs_coat
def test_criterion_7_ablation_ordering():
    bundle = load_coat(COAT)
    rows = T.run_ablation(bundle, COAT_CONFIG, seeds=list(range(10)))
    with_ccl = np.mean([r["ndcg5"] for r in rows if r["arm"] == "with_ccl"])
    without = np.mean([r["ndcg5"] for r in rows if r["arm"] == "without_ccl"])
    verdict(7, f"NDCG@5 with CCL {with_ccl:.4f} > without {without:.4f}",
            with_ccl > without)


@needs_coat
def test_criterion_8_sampler_ordering():
    bundle = load_coat(COAT)
    rows = T.run_sampler_sweep(bundle, COAT_CONFIG, seeds=list(range(10)))
    means = {arm: float(np.mean([r["ndcg5"] for r in rows if r["arm"] == arm]))
             for arm in ("cf", "ps", "pop", "no-ssl")}
    eps = 0.005
    ok = (means["cf"] >= means["ps"] - eps and means["cf"] >= means["pop"] - eps
          and min(means["ps"], means["pop"]) >= means["no-ssl"] - eps
          and means["cf"] > means["no-ssl"])
    verdict(8, f"sampler NDCG@5 means {means}", ok)


# Configuration for the synthetic debiasing check: both arms share it apart
# from lam / the rec objective.
SIM_TRAIN = TrainConfig(lam=0.0, tau=1.0, batch_size=512, embed_dim=8,
                        hidden_layers=1, learning_rate=1e-3,
                        max_epochs=100, patience=12)


def test_criterion_9_simulator_debiasing_direction():
    start = time.perf_counter()
    base_aucs, ccl_aucs, mle_aucs, ips_aucs = [], [], [], []
    for seed in range(5):
        synth = generate(SimConfig(seed=seed))
        bundle = synth.dataset
        test = bundle.test

        p, _ = train(bundle, replace(SIM_TRAIN, seed=seed))
        base_aucs.append(auc(M.forward(p, test.users, test.items).y, test.labels))

        p, _ = train(bundle, replace(SIM_TRAIN, lam=1.0, sampler="cf", seed=seed))
        ccl_aucs.append(auc(M.forward(p, test.users, test.items).y, test.labels))

        mle_aucs.append(base_aucs[-1])
        dense = np.tile(np.maximum(synth.inclusion_probs, 1e-3), (bundle.m, 1))
        oracle = PropensityTable(bundle.m, bundle.n, 1e-3, dense=dense)
        p, _ = train(bundle, replace(SIM_TRAIN, rec_objective="ips",
                                     propensity_source="oracle", seed=seed),
                     propensity=oracle)
        ips_aucs.append(auc(M.forward(p, test.users, test.items).y, test.labels))

    ccl_margin = float(np.mean(ccl_aucs) - np.mean(base_aucs))
    ips_margin = float(np.mean(ips_aucs) - np.mean(mle_aucs))
    elapsed = time.perf_counter() - start
    verdict(9, f"CCL-vs-base AUC margin {ccl_margin:+.4f} (need >= +0.01), "
               f"oracle-IPS-vs-MLE margin {ips_margin:+.4f} (need > 0) "
               f"({elapsed:.0f}s)",
            ccl_margin >= 0.01 and ips_margin > 0 and elapsed < 300)


@needs_coat
def test_criterion_10_determinism(tmp_path):
    bundle = load_coat(COAT)
    cfg = replace(COAT_CONFIG, lam=0.0, seed=0)
    blobs = []
    for name in ("a", "b"):
        params, _ = train(bundle, cfg)
        path = tmp_path / f"{name}.bin"
        M.save_checkpoint(path, params)
        report = evaluate(params, bundle)
        blobs.append((path.read_bytes(), report.as_dict()))
    ok = blobs[0] == blobs[1]
    verdict(10, "repeated Coat run yields byte-identical checkpoint and metrics", ok)


def test_determinism_on_synthetic_substitute(tmp_path):
    # exercises the criterion-10 property on data that is always available
    bundle = generate(SimConfig(m=60, n=30, seed=0, exposures_per_user=6,
                                test_exposures_per_user=4)).dataset
    cfg = TrainConfig(lam=0.5, max_epochs=3, batch_size=64, embed_dim=4,
                      patience=5, seed=0)
    blobs = []
    for name in ("a", "b"):
        params, _ = train(bundle, cfg)
        path = tmp_path / f"{name}.bin"
        M.save_checkpoint(path, params)
        blobs.append((path.read_bytes(), evaluate(params, bundle).as_dict()))
    assert blobs[0] == blobs[1]
