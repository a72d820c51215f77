"""Exposure-probability (propensity) and item-popularity estimation.

Propensities feed the IPS/SNIPS objectives and the propensity-difference
positive sampler; popularity feeds the popularity-difference sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from cclrec.data import DatasetBundle, InteractionTable

PROPENSITY_FLOOR = 0.05  # of the estimated tables
POPULARITY_FLOOR = 1e-3
# the logistic-regression propensity estimator's fit
LR_LEARNING_RATE = 0.5
LR_EPOCHS = 300
LR_NEGATIVE_RATE = 1.0
LR_SEED = 0
LR_L2 = 1e-4


@dataclass(frozen=True)
class PopularityTable:
    """Per-item popularity in (0, 1]; sqrt of count normalized by the max."""

    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


def estimate_popularity(bundle: DatasetBundle) -> PopularityTable:
    """pop(i) = sqrt(count(i) / max_j count(j)); zero-count items get POPULARITY_FLOOR."""
    return popularity_from_counts(bundle.exposure.item_counts())


def popularity_from_counts(counts: np.ndarray) -> PopularityTable:
    counts = np.asarray(counts, dtype=np.float64)
    top = counts.max()
    if top <= 0:
        raise ValueError("no interactions: all item counts are zero")
    pop = np.sqrt(counts / top)
    pop[counts == 0] = POPULARITY_FLOOR
    return PopularityTable(pop)


class PropensityTable:
    """Estimated exposure probabilities P_{u,i}, clipped to [floor, 1].

    Two storage layouts:
      * dense: the full m x n matrix (logistic-regression estimator);
      * per-class: (p0, p1, marginal) plus a required m x n int8 label grid
        (naive-Bayes estimator). The grid holds each pair's observed label,
        or -1 where none was observed, and a row is the lookup
        [marginal, p0, p1][grid + 1], so an unlabeled pair gets the
        marginal exposure rate.
    """

    def __init__(self, m: int, n: int, floor: float,
                 dense: Optional[np.ndarray] = None,
                 class_probs: Optional[tuple[float, float]] = None,
                 marginal: Optional[float] = None,
                 label_grid: Optional[np.ndarray] = None):
        if (dense is None) == (class_probs is None):
            raise ValueError("exactly one of dense / class_probs must be given")
        if not (0 < floor < 1):
            raise ValueError(f"floor must be in (0, 1), got {floor}")
        self.m = m
        self.n = n
        if dense is not None:
            if np.shape(dense) != (m, n):
                raise ValueError(f"dense must be {m} x {n}, got shape {np.shape(dense)}")
            self.kind = "dense"
            self.dense = np.clip(dense, floor, 1.0)
            self.dense.setflags(write=False)
            return
        for name, value in (("marginal", marginal), ("label_grid", label_grid)):
            if value is None:
                raise ValueError(f"class_probs needs {name}")
        if np.shape(label_grid) != (m, n):
            raise ValueError(f"label_grid must be {m} x {n}, got shape {np.shape(label_grid)}")
        if label_grid.min() < -1 or label_grid.max() > 1:
            raise ValueError("label_grid holds a value outside {-1, 0, 1}")
        self.kind = "per-class"
        self.class_probs = (min(max(class_probs[0], floor), 1.0),
                            min(max(class_probs[1], floor), 1.0))
        self.marginal = min(max(marginal, floor), 1.0)
        self.label_grid = label_grid  # m x n int8: observed label, or -1

    def gather(self, users: np.ndarray, items: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per-sample propensities for observed pairs."""
        if self.kind == "dense":
            return self.dense[users, items]
        p0, p1 = self.class_probs
        return np.where(np.asarray(labels) == 1, p1, p0)

    def rows(self, users) -> np.ndarray:
        """len(users) x n propensity matrix (sampler input)."""
        users = np.asarray(users, dtype=np.int64)
        if len(users) and (users.min() < 0 or users.max() >= self.m):
            raise IndexError(f"user id out of range [0, {self.m})")
        if self.kind == "dense":
            return self.dense[users]
        return np.array([self.marginal, *self.class_probs])[self.label_grid[users] + 1]

    def row(self, user: int) -> np.ndarray:
        """Length-n propensity vector for one user."""
        return self.rows([user])[0]


def estimate_propensity_nb(train: InteractionTable, mcar: InteractionTable,
                           m: int, n: int) -> PropensityTable:
    """Naive-Bayes propensity from a small MCAR sample.

    P(O=1 | Y=y) = P(Y=y | O=1) * P(O=1) / P(Y=y), with the label
    likelihood and marginal exposure rate from the biased training data
    and the label prior from the MCAR sample.
    """
    if len(train) == 0 or len(mcar) == 0:
        raise ValueError("train and MCAR tables must be non-empty")
    p_o = len(train) / (m * n)
    p_y1_given_o = train.labels.mean()
    p_y1 = mcar.labels.mean()
    if p_y1 == 0.0 or p_y1 == 1.0:
        raise ValueError("MCAR sample is missing one label class")
    p1 = p_y1_given_o * p_o / p_y1
    p0 = (1.0 - p_y1_given_o) * p_o / (1.0 - p_y1)
    grid = np.full((m, n), -1, dtype=np.int8)
    grid[train.users, train.items] = train.labels
    grid.setflags(write=False)
    return PropensityTable(m, n, PROPENSITY_FLOOR, class_probs=(p0, p1), marginal=p_o,
                           label_grid=grid)


def estimate_propensity_lr(bundle: DatasetBundle) -> PropensityTable:
    """Logistic regression on concatenated user/item features predicting exposure.

    Positives are the exposed training pairs; negatives are unexposed pairs
    sampled uniformly at LR_NEGATIVE_RATE : 1 with a fixed seed. Full-batch
    gradient descent; deterministic for a fixed seed.
    """
    if bundle.user_features is None or bundle.item_features is None:
        raise ValueError("logistic propensity needs user and item features; "
                         "use popularity or naive Bayes instead")
    m, n = bundle.m, bundle.n
    xu = bundle.user_features.values
    xi = bundle.item_features.values

    pos_u = bundle.train.users
    pos_i = bundle.train.items
    rng = np.random.default_rng(LR_SEED)
    n_neg = int(round(LR_NEGATIVE_RATE * len(pos_u)))
    neg_u = np.empty(n_neg, dtype=np.int64)
    neg_i = np.empty(n_neg, dtype=np.int64)
    filled = 0
    while filled < n_neg:
        cu = rng.integers(0, m, size=n_neg - filled)
        ci = rng.integers(0, n, size=n_neg - filled)
        keep = ~bundle.exposure.contains(cu, ci)
        take = keep.sum()
        neg_u[filled:filled + take] = cu[keep]
        neg_i[filled:filled + take] = ci[keep]
        filled += take

    X = np.hstack([
        np.vstack([xu[pos_u], xu[neg_u]]),
        np.vstack([xi[pos_i], xi[neg_i]]),
    ])
    y = np.concatenate([np.ones(len(pos_u)), np.zeros(n_neg)])

    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(LR_EPOCHS):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        err = p - y
        w -= LR_LEARNING_RATE * (X.T @ err / len(y) + LR_L2 * w)
        b -= LR_LEARNING_RATE * err.mean()

    su = xu @ w[:xu.shape[1]]
    si = xi @ w[xu.shape[1]:]
    dense = 1.0 / (1.0 + np.exp(-(su[:, None] + si[None, :] + b)))
    return PropensityTable(m, n, PROPENSITY_FLOOR, dense=dense)
