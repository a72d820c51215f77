"""Unbiased-test evaluation: MAE, AUC, NDCG@k, Recall@k, MRR, Gini, global utility.

Each user is ranked over their own test items (the MNAR evaluation
protocol these datasets were built for), score descending with item-index
ascending tie-break. Users without a relevant test item contribute 0 to
the ranking means and are counted in the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from cclrec.data import DatasetBundle
from cclrec.model import ModelParams, forward


@dataclass
class RankedList:
    user: int
    items: np.ndarray  # ordered by descending predicted score
    relevance: np.ndarray  # binary, aligned with items


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
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if len(predictions) == 0:
        raise ValueError("empty input")
    return float(np.abs(predictions - labels).mean())


def auc(predictions, labels) -> float:
    """P(random positive outranks random negative), ties counted 1/2."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: needs both label classes")
    ranks = rankdata(predictions)  # average ranks handle ties as 1/2
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def ndcg_at_k(ranked: RankedList, k: int) -> float:
    rel = ranked.relevance
    if rel.sum() == 0:
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    dcg = float((rel[:k] * discounts[:len(rel[:k])]).sum())
    ideal = np.sort(rel)[::-1]
    idcg = float((ideal[:k] * discounts[:len(ideal[:k])]).sum())
    return dcg / idcg


def recall_at_k(ranked: RankedList, k: int) -> float:
    rel = ranked.relevance
    total = rel.sum()
    if total == 0:
        return 0.0
    return float(rel[:k].sum() / total)


def mrr(ranked: RankedList) -> float:
    hits = np.nonzero(ranked.relevance)[0]
    if len(hits) == 0:
        return 0.0
    return 1.0 / (hits[0] + 1)


def gini(counts) -> float:
    """Gini coefficient of item-exposure counts; 0 = perfectly equitable."""
    x = np.sort(np.asarray(counts, dtype=np.float64))
    n = len(x)
    total = x.sum()
    if total <= 0:
        raise ValueError("all counts are zero")
    i = np.arange(1, n + 1)
    return float(((2 * i - n - 1) * x).sum() / (n * total))


def global_utility(ranked_lists: list[RankedList], k: int) -> float:
    """Mean precision@k over the evaluated users."""
    if not ranked_lists:
        return 0.0
    hits = sum(float(r.relevance[:k].sum()) for r in ranked_lists)
    return hits / (len(ranked_lists) * k)


def rank_user(user: int, items: np.ndarray, scores: np.ndarray,
              relevance: np.ndarray) -> RankedList:
    """Score-descending order with ascending item index on ties."""
    order = np.lexsort((items, -scores))
    return RankedList(user, items[order], relevance[order])


def rank_users(users: np.ndarray, items: np.ndarray, scores: np.ndarray,
               relevance: np.ndarray) -> list[RankedList]:
    """One rank_user list per distinct user, ascending by user, from one sort."""
    if len(users) == 0:
        return []
    order = np.lexsort((items, -scores, users))
    grouped = users[order]
    bounds = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
    return [RankedList(int(u[0]), it, rel) for u, it, rel in
            zip(np.split(grouped, bounds), np.split(items[order], bounds),
                np.split(relevance[order], bounds))]


def evaluate(params: ModelParams, bundle: DatasetBundle, ks=(5, 10),
             gini_k: int = 5) -> MetricsReport:
    """Rank each user's own test items and compute the full metric suite."""
    test = bundle.test
    if len(test) == 0:
        raise ValueError("empty test table")
    batch = forward(params, test.users, test.items)
    scores = batch.y

    ranked_lists = rank_users(test.users, test.items, scores, test.labels)

    exposure_counts = np.zeros(bundle.n, dtype=np.int64)
    for r in ranked_lists:
        np.add.at(exposure_counts, r.items[:gini_k], 1)

    no_rel = sum(1 for r in ranked_lists if r.relevance.sum() == 0)
    return MetricsReport(
        mae=mae(scores, test.labels),
        auc=auc(scores, test.labels),
        ndcg5=float(np.mean([ndcg_at_k(r, 5) for r in ranked_lists])),
        ndcg10=float(np.mean([ndcg_at_k(r, 10) for r in ranked_lists])),
        recall1=float(np.mean([recall_at_k(r, 1) for r in ranked_lists])),
        recall5=float(np.mean([recall_at_k(r, 5) for r in ranked_lists])),
        mrr=float(np.mean([mrr(r) for r in ranked_lists])),
        gini=gini(exposure_counts) if exposure_counts.sum() > 0 else 0.0,
        global_utility=global_utility(ranked_lists, gini_k),
        users_evaluated=len(ranked_lists),
        users_without_relevant=no_rel,
    )
