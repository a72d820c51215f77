"""Exposure-probability (propensity) and item-popularity estimation.

Propensities feed the IPS/SNIPS objectives and the propensity-difference
positive sampler; popularity feeds the popularity-difference sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from cclrec.data import DataFormatError, DatasetBundle, InteractionTable

DEFAULT_FLOOR = 0.05
POPULARITY_FLOOR = 1e-3


@dataclass(frozen=True)
class PopularityTable:
    """Per-item popularity in (0, 1]; sqrt of count normalized by the max."""

    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


def estimate_popularity(bundle: DatasetBundle, floor: float = POPULARITY_FLOOR) -> PopularityTable:
    """pop(i) = sqrt(count(i) / max_j count(j)); zero-count items get `floor`."""
    counts = bundle.exposure.item_counts().astype(np.float64)
    return popularity_from_counts(counts, floor)


def popularity_from_counts(counts: np.ndarray, floor: float = POPULARITY_FLOOR) -> PopularityTable:
    counts = np.asarray(counts, dtype=np.float64)
    top = counts.max()
    if top <= 0:
        raise ValueError("no interactions: all item counts are zero")
    pop = np.sqrt(counts / top)
    pop[counts == 0] = floor
    return PopularityTable(pop)


class PropensityTable:
    """Estimated exposure probabilities P_{u,i}, clipped to [floor, 1].

    Two storage layouts:
      * dense: full m x n matrix (logistic-regression estimator);
      * per-class: one probability per observed label class (naive-Bayes
        estimator), expanded on demand. Pairs without an observed label
        get the marginal exposure rate.
    """

    def __init__(self, m: int, n: int, floor: float,
                 dense: Optional[np.ndarray] = None,
                 class_probs: Optional[tuple[float, float]] = None,
                 marginal: Optional[float] = None,
                 label_grid: Optional[np.ndarray] = None):
        if (dense is None) == (class_probs is None):
            raise ValueError("exactly one of dense / class_probs must be given")
        self.m = m
        self.n = n
        self.floor = floor
        if dense is not None:
            self.kind = "dense"
            self.dense = np.clip(dense, floor, 1.0)
            self.dense.setflags(write=False)
        else:
            self.kind = "per-class"
            self.class_probs = (min(max(class_probs[0], floor), 1.0),
                                min(max(class_probs[1], floor), 1.0))
            self.marginal = min(max(marginal, floor), 1.0)
            self.label_grid = label_grid  # m x n int8: observed label, or -1

    def gather(self, users: np.ndarray, items: np.ndarray,
               labels: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-sample propensities for observed pairs."""
        if self.kind == "dense":
            return self.dense[users, items]
        if labels is None:
            if self.label_grid is None:
                raise ValueError("per-class table needs labels (none recorded)")
            labels = self.label_grid[users, items]
            if (labels < 0).any():
                raise ValueError("pair without observed label; pass labels explicitly")
        p0, p1 = self.class_probs
        return np.where(np.asarray(labels) == 1, p1, p0)

    def rows(self, users) -> np.ndarray:
        """len(users) x n propensity matrix (sampler input)."""
        users = np.asarray(users, dtype=np.int64)
        if len(users) and (users.min() < 0 or users.max() >= self.m):
            raise IndexError(f"user id out of range [0, {self.m})")
        if self.kind == "dense":
            return self.dense[users]
        out = np.full((len(users), self.n), self.marginal)
        if self.label_grid is not None:
            lab = self.label_grid[users]
            p0, p1 = self.class_probs
            out[lab == 0] = p0
            out[lab == 1] = p1
        return out

    def row(self, user: int) -> np.ndarray:
        """Length-n propensity vector for one user."""
        return self.rows([user])[0]


def clip_propensity(table: PropensityTable, floor: float) -> PropensityTable:
    """Re-clip a table to [floor, 1]."""
    if not (0 < floor < 1):
        raise ValueError(f"floor must be in (0, 1), got {floor}")
    if table.kind == "dense":
        return PropensityTable(table.m, table.n, floor, dense=np.clip(table.dense, floor, 1.0))
    return PropensityTable(table.m, table.n, floor, class_probs=table.class_probs,
                           marginal=table.marginal, label_grid=table.label_grid)


def estimate_propensity_nb(train: InteractionTable, mcar: InteractionTable,
                           m: int, n: int, floor: float = DEFAULT_FLOOR) -> PropensityTable:
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
    return PropensityTable(m, n, floor, class_probs=(p0, p1), marginal=p_o, label_grid=grid)


@dataclass
class LogisticHyper:
    learning_rate: float = 0.5
    epochs: int = 300
    negative_rate: float = 1.0
    seed: int = 0
    l2: float = 1e-4


def estimate_propensity_lr(bundle: DatasetBundle,
                           hyper: Optional[LogisticHyper] = None,
                           floor: float = DEFAULT_FLOOR) -> PropensityTable:
    """Logistic regression on concatenated user/item features predicting exposure.

    Positives are the exposed training pairs; negatives are unexposed pairs
    sampled uniformly at `negative_rate` : 1 with a fixed seed. Full-batch
    gradient descent; deterministic for a fixed seed.
    """
    if bundle.user_features is None or bundle.item_features is None:
        raise ValueError("logistic propensity needs user and item features; "
                         "use popularity or naive Bayes instead")
    hyper = hyper or LogisticHyper()
    m, n = bundle.m, bundle.n
    xu = bundle.user_features.values
    xi = bundle.item_features.values

    pos_u = bundle.train.users
    pos_i = bundle.train.items
    rng = np.random.default_rng(hyper.seed)
    n_neg = int(round(hyper.negative_rate * len(pos_u)))
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
    lr = hyper.learning_rate
    for _ in range(hyper.epochs):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        err = p - y
        w -= lr * (X.T @ err / len(y) + hyper.l2 * w)
        b -= lr * err.mean()

    su = xu @ w[:xu.shape[1]]
    si = xi @ w[xu.shape[1]:]
    dense = 1.0 / (1.0 + np.exp(-(su[:, None] + si[None, :] + b)))
    return PropensityTable(m, n, floor, dense=dense)


def save_table(path, table) -> None:
    """One header line, then float64 values; a per-class table stores (p0, p1,
    marginal) and, when the header ends in 1, its m x n int8 label grid."""
    if isinstance(table, PopularityTable):
        header, values, grid = f"popularity 1 {len(table.values)} 0", table.values, None
    elif table.kind == "dense":
        header, values, grid = f"dense {table.m} {table.n} {table.floor}", table.dense, None
    else:
        grid = table.label_grid
        header = f"per-class {table.m} {table.n} {table.floor} {int(grid is not None)}"
        values = np.array([*table.class_probs, table.marginal])
    with open(Path(path), "wb") as f:
        f.write((header + "\n").encode())
        f.write(np.ascontiguousarray(values, dtype=np.float64).tobytes())
        if grid is not None:
            f.write(np.ascontiguousarray(grid).tobytes())


def load_table(path):
    """Inverse of save_table; a malformed or truncated file is a DataFormatError."""
    with open(Path(path), "rb") as f:
        header_line, raw = f.readline(), f.read()
    try:
        header = header_line.decode().split()
        kind, m, n, floor = header[0], int(header[1]), int(header[2]), float(header[3])
        n_values = {"popularity": n, "dense": m * n, "per-class": 3}[kind]
    except (IndexError, ValueError, KeyError) as e:
        raise DataFormatError(f"{path}: bad table header ({e})") from e
    grid_bytes = m * n if header[4:] == ["1"] else 0
    if len(raw) != 8 * n_values + grid_bytes:
        raise DataFormatError(f"{path}: {kind} table payload is {len(raw)} bytes, "
                              f"its header needs {8 * n_values + grid_bytes}")
    values = np.frombuffer(raw, dtype=np.float64, count=n_values).copy()
    if kind == "popularity":
        return PopularityTable(values)
    if kind == "dense":
        return PropensityTable(m, n, floor, dense=values.reshape(m, n))
    grid = None
    if grid_bytes:
        # frombuffer over bytes is read-only, like the grid the estimator builds
        grid = np.frombuffer(raw, dtype=np.int8, offset=24).reshape(m, n)
        if ((grid < -1) | (grid > 1)).any():
            raise DataFormatError(f"{path}: label grid holds a byte outside {{-1, 0, 1}}")
    return PropensityTable(m, n, floor, class_probs=(values[0], values[1]),
                           marginal=values[2], label_grid=grid)
