"""Unbiased-test evaluation: MAE, AUC, NDCG@k, Recall@k, MRR, Gini, global utility.

Each user is ranked over their own test items (the MNAR evaluation
protocol these datasets were built for), score descending with item-index
ascending tie-break. Users without a relevant test item contribute 0 to
the ranking means and are counted in the report. `ranking_metrics` holds
the one implementation of every ranking metric; `ranking_report` adds the
pooled MAE and AUC, the Mann-Whitney rank sum over numpy average ranks.

One ascending argsort of the scores serves both: the AUC's tie groups come
from it, and so does each row's tie-group rank, which with the user and the
item forms one int64 key whose stable argsort is the ranking order.

The per-user reductions need labels of 0 or 1. Users are summed in width
groups found by one bincount, as a view when one group holds every row;
IDCG is a lookup in a (k+1) x (k+1) table summed the same way, and MRR is
one minimum.reduceat over each user's hit positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cclrec.data import DatasetBundle
from cclrec.model import ModelParams, check_lengths, forward

CUTOFF = 5  # the k of Gini and global utility
SCORE_ROWS = 8192  # rows per forward call when scoring a table: bounds the activations held


@dataclass
class MetricsReport:
    mae: float
    auc: float
    ndcg5: float
    ndcg10: float
    recall1: float
    recall5: float
    mrr: float
    gini: float
    global_utility: float
    users_evaluated: int = 0
    users_without_relevant: int = 0

    COLUMNS = ("mae", "auc", "ndcg5", "ndcg10", "recall1", "recall5",
               "mrr", "gini", "global_utility")

    def as_dict(self) -> dict:
        return {c: getattr(self, c) for c in self.COLUMNS}


def mae(predictions, labels) -> float:
    check_lengths(predictions=predictions, labels=labels)
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if len(predictions) == 0:
        raise ValueError("empty input")
    return float(np.abs(predictions - labels).mean())


def _tie_groups(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """The ascending argsort of `scores`, the sorted position where each tie group
    starts, and whether the last group is NaN. numpy sorts NaN after every number,
    and all NaNs form one group, as lexsort keeps them together."""
    order = np.argsort(scores)
    s = scores[order]
    new = np.r_[True, s[1:] != s[:-1]]
    n_nan = int(np.isnan(s).sum())
    new[len(s) - n_nan + 1:] = False  # NaN != NaN, yet the NaNs tie
    return order, np.flatnonzero(new), n_nan > 0


def _auc(labels, order: np.ndarray, starts: np.ndarray, nan: bool) -> float:
    """auc, from the tie groups of one ascending sort of the scores."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: needs both label classes")
    if nan:
        return float("nan")
    ends = np.r_[starts[1:], len(order)]
    ranks = np.empty(len(order))
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _binary(labels) -> np.ndarray:
    """labels as an array; a ValueError names the first one that is not 0 or 1."""
    labels = np.asarray(labels)
    bad = labels[(labels != 0) & (labels != 1)]
    if len(bad):
        raise ValueError(f"labels must be 0 or 1, got {bad[0]}")
    return labels


def auc(predictions, labels) -> float:
    """P(random positive outranks random negative), ties counted 1/2."""
    check_lengths(predictions=predictions, labels=labels)
    predictions = np.asarray(predictions, dtype=np.float64)
    return _auc(_binary(labels), *_tie_groups(predictions))


def gini(counts) -> float:
    """Gini coefficient of item-exposure counts; 0 = perfectly equitable."""
    x = np.sort(np.asarray(counts, dtype=np.float64))
    n = len(x)
    total = x.sum()
    if total <= 0:
        raise ValueError("all counts are zero")
    i = np.arange(1, n + 1)
    return float(((2 * i - n - 1) * x).sum() / (n * total))


def _row_prefix_sums(values: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Each row of `values` summed over its first `widths[u]` columns.

    numpy adds fewer than 8 numbers left to right and 8 or more pairwise,
    so a zero-padded row can round differently from the unpadded one; rows
    of equal width are summed together, as 1-D sums of that width. When one
    width holds every row, the rows are summed as a view, without a copy.
    """
    counts = np.bincount(widths)
    if counts[-1] == len(widths):
        return values[:, :len(counts) - 1].sum(axis=1)
    out = np.zeros(len(values))
    for w in np.flatnonzero(counts):
        rows = np.flatnonzero(widths == w)
        out[rows] = values[rows, :w].sum(axis=1)
    return out


def _ranked_rows(users: np.ndarray, items: np.ndarray, scores: np.ndarray, n_items: int,
                 order: np.ndarray, starts: np.ndarray, nan: bool) -> np.ndarray:
    """The rows in np.lexsort((items, -scores, users)) order, by one stable argsort
    of the int64 key (user, descending tie-group rank, item); items lie in
    [0, n_items). Where the key could reach 2**63 the rows are lexsorted instead.
    """
    n_groups = len(starts)
    lo = int(users.min())
    if (int(users.max()) - lo + 1) * n_groups * n_items > 2**63:
        return np.lexsort((items, -scores, users))
    # ascending group g ranks n_numbers - 1 - g, the largest number first; a NaN
    # group's -1 wraps round to the last rank, as lexsort sorts -NaN last
    n_numbers = n_groups - nan
    rank = (n_numbers - 1 - np.arange(n_groups)) % n_groups
    row_rank = np.empty(len(order), dtype=np.int64)
    row_rank[order] = np.repeat(rank, np.diff(np.r_[starts, len(order)]))
    key = (np.subtract(users, lo, dtype=np.int64) * n_groups + row_rank) * n_items + items
    return np.argsort(key, kind="stable")


def ranking_metrics(users: np.ndarray, items: np.ndarray, scores: np.ndarray,
                    labels: np.ndarray, n_items: int) -> dict:
    """The MetricsReport fields that need the ranking.

    Each metric is a reduction over the users' segments of the rows sorted by
    (user, score descending, item); Gini and global utility read each user's
    top CUTOFF rows. No AUC is computed, so a table with one label class is
    accepted. Every item must lie in [0, n_items).
    """
    scores = np.asarray(scores, dtype=np.float64)
    return _ranking_metrics(users, items, scores, labels, n_items, _tie_groups(scores))


def _ranking_metrics(users, items, scores, labels, n_items, ties) -> dict:
    """ranking_metrics, given the tie groups of the scores (see _tie_groups)."""
    check_lengths(users=users, items=items, scores=scores, labels=labels)
    users, items, labels = np.asarray(users), np.asarray(items), _binary(labels)
    if len(users) == 0:
        raise ValueError("empty test table")
    if items.min() < 0 or items.max() >= n_items:
        raise ValueError(f"items must lie in [0, n_items) = [0, {n_items}), "
                         f"got {items.min()}..{items.max()}")
    order = _ranked_rows(users, items, scores, n_items, *ties)
    grouped, rel, ranked_items = users[order], labels[order], items[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    n_users = len(starts)
    lengths = np.diff(np.r_[starts, len(order)])
    seg = np.repeat(np.arange(n_users), lengths)  # user index of each sorted row
    pos = np.arange(len(order)) - starts[seg]  # 0-based rank within the user's list
    total = np.add.reduceat(rel, starts)
    has_rel = total > 0

    depth = min(int(lengths.max()), 10)  # the longest list, cut at NDCG@10's k
    top = pos < depth
    rel_top = np.zeros((n_users, depth), dtype=rel.dtype)
    rel_top[seg[top], pos[top]] = rel[top]

    def ndcg(k):
        discounts = 1.0 / np.log2(np.arange(2, k + 2))
        widths = np.minimum(lengths, k)
        dcg = _row_prefix_sums(rel_top[:, :k] * discounts[:depth], widths)
        # idcg[t, w]: t relevant items ranked first, summed as a user's row of width w
        ideal = (np.arange(k) < np.arange(k + 1)[:, None]) * discounts
        idcg = np.stack([ideal[:, :w].sum(axis=1) for w in range(k + 1)], axis=1)
        return np.divide(dcg, idcg[np.minimum(total, k).astype(np.intp), widths],
                         out=np.zeros(n_users), where=has_rel)

    def recall(k):
        return np.divide(rel_top[:, :k].sum(axis=1), total, out=np.zeros(n_users), where=has_rel)

    # each user's first hit, or len(order) for a user without one
    first = np.minimum.reduceat(np.where(rel != 0, pos, len(order)), starts)
    reciprocal_rank = np.divide(1.0, first + 1, out=np.zeros(n_users), where=first < len(order))

    shown = pos < CUTOFF
    exposure_counts = np.bincount(ranked_items[shown], minlength=n_items)
    return dict(
        ndcg5=float(np.mean(ndcg(5))),
        ndcg10=float(np.mean(ndcg(10))),
        recall1=float(np.mean(recall(1))),
        recall5=float(np.mean(recall(5))),
        mrr=float(np.mean(reciprocal_rank)),
        gini=gini(exposure_counts) if exposure_counts.sum() > 0 else 0.0,
        global_utility=float(rel[shown].sum()) / (n_users * CUTOFF),
        users_evaluated=n_users,
        users_without_relevant=int((~has_rel).sum()),
    )


def ranking_report(users: np.ndarray, items: np.ndarray, scores: np.ndarray,
                   labels: np.ndarray, n_items: int) -> MetricsReport:
    """The metric suite: the ranking metrics plus MAE and AUC pooled over all rows,
    both from one sort of the scores."""
    scores = np.asarray(scores, dtype=np.float64)
    ties = _tie_groups(scores)
    ranking = _ranking_metrics(users, items, scores, labels, n_items, ties)
    return MetricsReport(mae=mae(scores, labels), auc=_auc(labels, *ties), **ranking)


def predict(params: ModelParams, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    """forward(params, users, items).y, computed SCORE_ROWS rows at a time (one call if empty)."""
    return np.concatenate([forward(params, users[lo:lo + SCORE_ROWS], items[lo:lo + SCORE_ROWS]).y
                           for lo in range(0, max(len(users), 1), SCORE_ROWS)])


def evaluate(params: ModelParams, bundle: DatasetBundle) -> MetricsReport:
    """Rank each user's own test items and compute the full metric suite."""
    test = bundle.test
    scores = predict(params, test.users, test.items)
    return ranking_report(test.users, test.items, scores, test.labels, bundle.n)
