"""Training loop: multi-task objective L = L_rec + lambda * L_ccl.

Fully seeded and bit-reproducible: a run saves the same bytes on a rerun,
at any BLAS thread count and at any CPU count (tests/test_blas_threads.py
runs at 1 and 2 OpenBLAS threads, and on one CPU and on all). Supports
one rating loss (focal, whose focal_gamma = 0 is the log-loss) under plain,
IPS and SNIPS weights, the three contrastive samplers, and early stopping on
validation total loss.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from cclrec import model as M
from cclrec import contrastive as C
from cclrec import metrics as MET
from cclrec.data import DatasetBundle, InteractionTable, holdout_split
from cclrec.propensity import (
    PopularityTable,
    PropensityTable,
    estimate_popularity,
    estimate_propensity_lr,
    estimate_propensity_nb,
)


# case-insensitive; to_kv writes True / False
BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
REC_OBJECTIVES = ("plain", "ips", "snips")
PROPENSITY_SOURCES = ("auto", "lr", "nb", "oracle")  # oracle: passed to train in Python


@dataclass
class TrainConfig:
    lam: float = 1.0  # weight of the contrastive term
    tau: float = 1.0
    batch_size: int = 512
    embed_dim: int = 8
    hidden_layers: int = 1
    learning_rate: float = 1e-2
    weight_decay: float = 1e-4
    max_epochs: int = 500
    patience: int = 5
    seed: int = 0
    focal_gamma: float = 0.0  # 0: log-loss
    sampler: str = "cf"  # cf | ps | pop
    rec_objective: str = "plain"  # plain | ips | snips
    propensity_source: str = "auto"  # auto | lr | nb | oracle
    cosine: bool = False
    val_fraction: float = 0.1

    def validate(self) -> None:
        for name in ("lam", "tau", "learning_rate", "weight_decay", "focal_gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("tau", "learning_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.sampler not in C.SAMPLER_KINDS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.rec_objective not in REC_OBJECTIVES:
            raise ValueError(f"unknown rec objective {self.rec_objective!r}")
        if self.propensity_source not in PROPENSITY_SOURCES:
            raise ValueError(f"unknown propensity source {self.propensity_source!r}")
        for name, least in (("lam", 0), ("batch_size", 1), ("embed_dim", 1),
                            ("hidden_layers", 0), ("max_epochs", 0), ("patience", 0),
                            ("weight_decay", 0), ("focal_gamma", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not (0 <= self.val_fraction < 1):
            raise ValueError("val_fraction must be in [0, 1)")

    def to_kv(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)}\n" for f in fields(self))

    @staticmethod
    def from_kv(text: str) -> "TrainConfig":
        casts = {f.name: f.type for f in fields(TrainConfig)}
        kwargs, first_line = {}, {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in casts:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            if key in first_line:
                raise ValueError(f"config line {lineno}: duplicate key {key!r} "
                                 f"(first on line {first_line[key]})")
            first_line[key] = lineno
            kind = casts[key]
            if kind in ("bool", bool):
                if value.lower() not in BOOL_WORDS:
                    raise ValueError(f"config line {lineno}: {key} must be one of "
                                     f"{'/'.join(BOOL_WORDS)}, got {value!r}")
                kwargs[key] = BOOL_WORDS[value.lower()]
            elif kind in ("int", int, "float", float):
                cast = int if kind in ("int", int) else float
                try:
                    kwargs[key] = cast(value)
                except ValueError:
                    raise ValueError(f"config line {lineno}: {key} must be {cast.__name__}, "
                                     f"got {value!r}") from None
            else:
                kwargs[key] = value
        return TrainConfig(**kwargs)


@dataclass
class TrainReport:
    rec_losses: list[float] = field(default_factory=list)
    ccl_losses: list[float] = field(default_factory=list)
    total_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    epochs_run: int = 0
    wall_clock: float = 0.0
    sampler_calls: int = 0  # training rows given a positive, not calls of the sampler


def batch_objective(params: M.ModelParams, users: np.ndarray, items: np.ndarray,
                    labels: np.ndarray, weights: np.ndarray,
                    lam: float, tau: float,
                    pos_items: Optional[np.ndarray] = None, gamma: float = 0.0,
                    cosine: bool = False, grads: Optional[M.ModelParams] = None):
    """Total loss (rec + lam * ccl) and its exact gradient for one batch.

    The rec term is sum_k weights_k * delta_k over the anchor pairs; the
    contrastive term consumes the interleaved concatenated embeddings. The
    gradient accumulates into `grads` when given (it must hold zeros).
    """
    batch = M.forward(params, users, items)
    per = M.per_sample_loss(batch.y, labels, gamma)
    rec = float((np.asarray(weights) * per).sum())
    grads = M.backward(params, batch, labels, weights, gamma=gamma, grads=grads)

    cclv = 0.0
    if lam > 0 and pos_items is not None:
        reps = C.assemble_views(params, batch.users, batch.items, pos_items)
        cbatch = C.CCLBatch(reps, tau, users=batch.users,
                            anchor_items=batch.items, positive_items=pos_items)
        cclv, grad_reps = C.ccl_loss_and_grad(cbatch, cosine=cosine)
        C.scatter_view_grads(params, cbatch, grad_reps, grads, scale=lam)
    total = rec + lam * cclv
    return total, rec, cclv, grads


def _resolve_propensity(bundle: DatasetBundle, config: TrainConfig,
                        propensity: Optional[PropensityTable]) -> PropensityTable:
    if propensity is not None:
        return propensity
    source = config.propensity_source
    if source == "oracle":
        raise ValueError("oracle propensity must be passed in explicitly")
    if source == "auto":
        source = "lr" if bundle.user_features is not None and bundle.item_features is not None else "nb"
    if source == "lr":
        return estimate_propensity_lr(bundle)
    return estimate_propensity_nb(bundle.train, bundle.test, bundle.m, bundle.n)


def train(bundle: DatasetBundle, config: TrainConfig,
          propensity: Optional[PropensityTable] = None,
          popularity: Optional[PopularityTable] = None):
    """Run the full training loop; returns (best ModelParams, TrainReport)."""
    config.validate()
    start = time.perf_counter()
    needs_prop = config.rec_objective in ("ips", "snips") or (
        config.lam > 0 and config.sampler == "ps")
    if needs_prop:
        propensity = _resolve_propensity(bundle, config, propensity)
    if config.lam > 0 and config.sampler == "pop" and popularity is None:
        popularity = estimate_popularity(bundle)

    sampler = (C.make_sampler(config.sampler, bundle, propensity, popularity)
               if config.lam > 0 else None)

    rng = np.random.default_rng(config.seed)
    params = M.init_params(bundle.m, bundle.n, config.embed_dim, config.hidden_layers, rng)
    state = M.AdamState.for_params(params)
    grads = M.ModelParams.zeros_like(params)  # one buffer, cleared after every step
    report = TrainReport()

    train_part, val_part = holdout_split(bundle.train, config.val_fraction, seed=config.seed + 1)
    if len(train_part) == 0:
        raise ValueError("empty training table")

    train_prop = None
    if config.rec_objective in ("ips", "snips"):
        train_prop = propensity.gather(train_part.users, train_part.items, train_part.labels)

    val_rng = np.random.default_rng(config.seed + 2)
    best_params = params.copy()
    best_val, best_epoch, since_best = np.inf, -1, 0
    k_train = len(train_part)

    for _ in range(config.max_epochs):
        perm = rng.permutation(k_train)
        sums = np.zeros(3)
        n_batches = 0
        for lo in range(0, k_train, config.batch_size):
            idx = perm[lo:lo + config.batch_size]
            users = train_part.users[idx]
            items = train_part.items[idx]
            labels = train_part.labels[idx]
            props = train_prop[idx] if train_prop is not None else None
            weights = M.rec_weights(config.rec_objective, props, len(idx))
            pos = None
            if config.lam > 0:
                pos = sampler(users, items, rng)
                report.sampler_calls += len(idx)
            total, rec, cclv, grads = batch_objective(
                params, users, items, labels, weights, config.lam, config.tau,
                pos_items=pos, gamma=config.focal_gamma, cosine=config.cosine, grads=grads)
            if not np.isfinite(total):
                raise FloatingPointError(
                    f"non-finite loss at epoch {report.epochs_run}, batch {n_batches}: "
                    f"rec={rec}, ccl={cclv}")
            grads.assert_finite()
            M.adam_step(params, grads, state, config.learning_rate,
                        weight_decay=config.weight_decay)
            grads.flat.fill(0)
            sums += (rec, cclv, total)
            n_batches += 1
        report.rec_losses.append(sums[0] / n_batches)
        report.ccl_losses.append(sums[1] / n_batches)
        report.total_losses.append(sums[2] / n_batches)
        report.epochs_run += 1

        val_loss = (_validation_loss(params, config, val_part, sampler, val_rng)
                    if len(val_part) else float("nan"))
        report.val_losses.append(val_loss)
        if len(val_part) == 0 or val_loss < best_val:  # without a split, the last epoch is best
            best_val = val_loss
            best_params = params.copy()
            best_epoch = report.epochs_run - 1
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                break

    report.best_epoch = best_epoch
    report.wall_clock = time.perf_counter() - start
    return best_params, report


def _validation_loss(params, config, val_part: InteractionTable, sampler, val_rng) -> float:
    users, items = val_part.users, val_part.items
    y = MET.predict(params, users, items)
    rec = M.per_sample_loss(y, val_part.labels, config.focal_gamma).mean()
    if config.lam <= 0:
        return float(rec)
    # one sampler call keeps the val_rng stream; the contrastive term is scored
    # in chunks of batch_size pairs, like training, and weighted by row count
    pos = sampler(users, items, val_rng)
    cclv = 0.0
    for lo in range(0, len(users), config.batch_size):
        c = slice(lo, lo + config.batch_size)
        reps = C.assemble_views(params, users[c], items[c], pos[c])
        cclv += len(reps) * C.ccl_loss(C.CCLBatch(reps, config.tau), cosine=config.cosine)
    return float(rec + config.lam * cclv / (2 * len(users)))


def run_arms(bundle: DatasetBundle, config: TrainConfig, arms, seeds: list[int],
             checkpoint_dir: Optional[Path] = None) -> list[dict]:
    """Train each (arm, config overrides) on every seed; one metrics row per arm per seed.
    With `checkpoint_dir`, each run is saved there as checkpoint_seed<seed>.bin (one arm)."""
    rows = []
    for arm, overrides in arms:
        for seed in seeds:
            params, _ = train(bundle, replace(config, seed=seed, **overrides))
            if checkpoint_dir is not None:
                M.save_checkpoint(checkpoint_dir / f"checkpoint_seed{seed}.bin", params)
            rows.append({"arm": arm, "seed": seed, **MET.evaluate(params, bundle).as_dict()})
    return rows


def run_ablation(bundle: DatasetBundle, config: TrainConfig, seeds: list[int]) -> list[dict]:
    """Train {with CCL, without CCL} on shared seeds; one metrics row per arm per seed."""
    return run_arms(bundle, config, [("with_ccl", {}), ("without_ccl", {"lam": 0.0})], seeds)


def run_sampler_sweep(bundle: DatasetBundle, config: TrainConfig, seeds: list[int]) -> list[dict]:
    """Train {cf, ps, pop, no-ssl} arms on shared seeds and evaluate each."""
    arms = [(kind, {"sampler": kind}) for kind in C.SAMPLER_KINDS] + [("no-ssl", {"lam": 0.0})]
    return run_arms(bundle, config, arms, seeds)
