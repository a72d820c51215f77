"""Synthetic exposure-bias generator with known ground truth.

A per-item latent confounder drives both which items get exposed
(train split, skew controlled by beta) and the outcome probabilities,
while the test split is exposed uniformly at random. Ground-truth
preference probabilities and the exposure distribution are kept alongside
the data so debiasing can be verified directly.

The confounder is drawn from a bounded uniform range so that even the
least-exposed items keep a handful of training observations (matching the
density of the real benchmark data, where every item is rated by some
users); the exposure ratio between the most- and least-exposed items is
still about 20:1 at the default skew. User latents carry a positive mean
so items differ in an average quality the model can learn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cclrec.data import DatasetBundle, ExposureMatrix, InteractionTable

LATENT_DIM = 8
LATENT_SCALE = 0.8  # per-vector norm scale of the latents
USER_LATENT_MEAN = 1.2  # positive shift giving items a mean quality
CONFOUNDER_HALF_RANGE = 0.5  # z ~ Uniform(-r, r)
CONFOUNDER_OUTCOME_WEIGHT = 1.0  # confounder -> outcome path


@dataclass
class SimConfig:
    """The settings `cclrec simulate` has a flag for; the rest are the constants above."""

    m: int = 500
    n: int = 100
    exposure_skew: float = 3.0  # strength of confounder -> exposure
    exposures_per_user: int = 20
    test_exposures_per_user: int = 10
    seed: int = 0

    def validate(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m and n must be >= 1, got {self.m} x {self.n}")
        if not (math.isfinite(self.exposure_skew) and self.exposure_skew >= 0):
            raise ValueError(f"exposure_skew must be finite and >= 0, got {self.exposure_skew}")
        with np.errstate(over="ignore"):  # the largest sum of the exposure weights exp(skew * z)
            weight_sum_bound = self.n * np.exp(self.exposure_skew * CONFOUNDER_HALF_RANGE)
        if not np.isfinite(weight_sum_bound):
            raise ValueError(f"exposure_skew {self.exposure_skew} overflows the exposure "
                             f"weights of {self.n} items")
        for name in ("exposures_per_user", "test_exposures_per_user"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.exposures_per_user + self.test_exposures_per_user > self.n:
            raise ValueError("per-user exposure counts exceed item count")


@dataclass
class SyntheticBundle:
    dataset: DatasetBundle
    true_preference: np.ndarray  # m x n probability matrix
    exposure_weights: np.ndarray  # length n, per-draw softmax weights
    inclusion_probs: np.ndarray  # length n, P(item in a user's train split)
    confounder: np.ndarray  # length n latent scores


_BLOCK = 1000  # rows per block; the draw keeps O(block x n) floats alive


def _draw_without_replacement(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Weighted draws without replacement, one row of picks per row of uniforms.

    Step j of row r picks what ``Generator.choice(n, p=w / w.sum())`` picks
    when its uniform is ``uniforms[r, j]``, with the weights of earlier picks
    zeroed, so feeding it the doubles that k sequential ``choice`` calls
    would read reproduces those calls exactly.
    """
    w = np.asarray(weights, dtype=np.float64)
    rows, k = uniforms.shape
    if not (np.isfinite(w).all() and np.isfinite(w.sum())) or (w < 0).any():
        raise ValueError("weights must be finite and non-negative")
    if np.count_nonzero(w) < k:
        raise ValueError(f"{k} draws need at least {k} positive weights, "
                         f"got {np.count_nonzero(w)}")
    picks = np.empty((rows, k), dtype=np.int64)
    for lo in range(0, rows, _BLOCK):
        u, out = uniforms[lo:lo + _BLOCK], picks[lo:lo + _BLOCK]
        wb = np.tile(w, (len(u), 1))
        for j in range(k):
            cdf = np.cumsum(wb / wb.sum(axis=1, keepdims=True), axis=1)
            cdf /= cdf[:, -1:]
            out[:, j] = np.count_nonzero(cdf <= u[:, j, None], axis=1)  # searchsorted, side="right"
            np.put_along_axis(wb, out[:, j, None], 0.0, axis=1)
    return picks


def estimate_inclusion_probs(weights: np.ndarray, k: int, draws: int = 10_000,
                             seed: int = 0) -> np.ndarray:
    """Monte-Carlo marginal inclusion probability of the train sampler."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(weights), dtype=np.int64)
    for lo in range(0, draws, _BLOCK):
        picks = _draw_without_replacement(weights, rng.random((min(_BLOCK, draws - lo), k)))
        counts += np.bincount(picks.ravel(), minlength=len(weights))
    return counts / draws


def generate(config: SimConfig, inclusion_draws: int = 10_000) -> SyntheticBundle:
    """Draw a full biased-train / uniform-test bundle; deterministic per seed.

    Per user, in order: k weighted train draws, t test items uniform over the
    rest of the items, then a label for each train and each test item. The
    loop only reads the random numbers; picks and labels are array work.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    m, n = config.m, config.n
    k, t = config.exposures_per_user, config.test_exposures_per_user
    scale = LATENT_SCALE / np.sqrt(LATENT_DIM)
    shift = USER_LATENT_MEAN / np.sqrt(LATENT_DIM)
    u_lat = rng.normal(shift, scale, size=(m, LATENT_DIM))
    i_lat = rng.normal(0.0, 1.0, size=(n, LATENT_DIM)) * scale
    z = rng.uniform(-CONFOUNDER_HALF_RANGE, CONFOUNDER_HALF_RANGE, size=n)
    logits = u_lat @ i_lat.T + CONFOUNDER_OUTCOME_WEIGHT * z[None, :]
    pref = 1.0 / (1.0 + np.exp(-logits))

    weights = np.exp(config.exposure_skew * z)
    weights /= weights.sum()
    positive = np.count_nonzero(weights)  # exp(skew * z) / sum underflows to 0 at a large skew
    if positive < k:
        raise ValueError(f"exposure_skew {config.exposure_skew} leaves {positive} of {n} items "
                         f"a positive exposure weight; {k} train draws per user need {k}")

    train_uniforms = np.empty((m, k))
    test_picks = np.empty((m, t), dtype=np.int64)  # positions in the user's sorted rest:
    # choice(n - k, ...) reads what choice(rest, ...) read, and rest[pos] is its pick
    label_uniforms = np.empty((m, k + t))
    for u in range(m):
        train_uniforms[u] = rng.random(k)
        test_picks[u] = rng.choice(n - k, size=t, replace=False)
        label_uniforms[u] = rng.random(k + t)

    chosen = np.empty((m, k + t), dtype=np.int64)  # train items, then test items
    for lo in range(0, m, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        train_items = _draw_without_replacement(weights, train_uniforms[block])
        unexposed = np.ones((len(train_items), n), dtype=bool)
        np.put_along_axis(unexposed, train_items, False, axis=1)
        rest = np.nonzero(unexposed)[1].reshape(len(train_items), n - k)  # sorted per user
        chosen[block, :k] = train_items
        chosen[block, k:] = np.take_along_axis(rest, test_picks[block], axis=1)
    labels = label_uniforms < np.take_along_axis(pref, chosen, axis=1)
    ratings = labels.astype(np.int64) * 4 + 1  # 5 = positive, 1 = negative

    train = InteractionTable.from_lists(np.repeat(np.arange(m), k),
                                        chosen[:, :k].ravel(), ratings[:, :k].ravel())
    test = InteractionTable.from_lists(np.repeat(np.arange(m), t),
                                       chosen[:, k:].ravel(), ratings[:, k:].ravel())
    bundle = DatasetBundle(m=m, n=n, train=train, test=test,
                           exposure=ExposureMatrix(m, n, train))
    inclusion = estimate_inclusion_probs(weights, k, draws=inclusion_draws, seed=config.seed + 1)
    return SyntheticBundle(bundle, pref, weights, inclusion, z)


def save_bundle(synth: SyntheticBundle, directory) -> None:
    """Write triple files the dataset loader reads, plus the ground truth."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, table in (("train.txt", synth.dataset.train), ("test.txt", synth.dataset.test)):
        with open(directory / name, "w") as f:
            for u, i, r in zip(table.users, table.items, table.ratings):
                f.write(f"{u} {i} {r}\n")
    np.savez(directory / "ground_truth.npz",
             true_preference=synth.true_preference,
             exposure_weights=synth.exposure_weights,
             inclusion_probs=synth.inclusion_probs,
             confounder=synth.confounder)
