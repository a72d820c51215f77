import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cclrec.data import DatasetBundle, ExposureMatrix, InteractionTable
from cclrec.metrics import (
    SCORE_ROWS,
    MetricsReport,
    _ranked_rows,
    _tie_groups,
    auc,
    evaluate,
    gini,
    mae,
    predict,
    ranking_metrics,
    ranking_report,
)
from cclrec.model import forward, init_params

TOL = 1e-9


def ranked_lists(*relevances):
    """ranking_metrics of one user per list, items in list order, scores strictly descending."""
    users = np.concatenate([np.full(len(r), u) for u, r in enumerate(relevances)])
    items = np.concatenate([np.arange(len(r)) for r in relevances])
    rel = np.concatenate([np.asarray(r, dtype=np.int64) for r in relevances])
    return ranking_metrics(users, items, -items.astype(np.float64), rel, int(items.max()) + 1)


# The single-list metrics below are the reference the segment reductions of
# ranking_metrics are checked against; no cclrec run calls them.

@dataclass
class RankedList:
    user: int
    items: np.ndarray  # ordered by descending predicted score
    relevance: np.ndarray  # binary, aligned with items


def rank_user(user: int, items: np.ndarray, scores: np.ndarray,
              relevance: np.ndarray) -> RankedList:
    """Score-descending order with ascending item index on ties."""
    order = np.lexsort((items, -scores))
    return RankedList(user, items[order], relevance[order])


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


def global_utility(ranked_lists: list[RankedList], k: int) -> float:
    """Mean precision@k over the evaluated users."""
    if not ranked_lists:
        return 0.0
    hits = sum(float(r.relevance[:k].sum()) for r in ranked_lists)
    return hits / (len(ranked_lists) * k)


def rank_users(users, items, scores, relevance):
    """One rank_user list per distinct user, ascending by user, from one sort."""
    if len(users) == 0:
        return []
    order = np.lexsort((items, -scores, users))
    grouped = users[order]
    bounds = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
    return [RankedList(int(u[0]), it, rel) for u, it, rel in
            zip(np.split(grouped, bounds), np.split(items[order], bounds),
                np.split(relevance[order], bounds))]


def per_list_report(users, items, scores, labels, n_items, gini_k):
    """The metric suite as one rank_user list and one call per metric per user."""
    lists = rank_users(users, items, scores, labels)
    exposure_counts = np.zeros(n_items, dtype=np.int64)
    for r in lists:
        np.add.at(exposure_counts, r.items[:gini_k], 1)
    return MetricsReport(
        mae=mae(scores, labels),
        auc=auc(scores, labels),
        ndcg5=float(np.mean([ndcg_at_k(r, 5) for r in lists])),
        ndcg10=float(np.mean([ndcg_at_k(r, 10) for r in lists])),
        recall1=float(np.mean([recall_at_k(r, 1) for r in lists])),
        recall5=float(np.mean([recall_at_k(r, 5) for r in lists])),
        mrr=float(np.mean([mrr(r) for r in lists])),
        gini=gini(exposure_counts) if exposure_counts.sum() > 0 else 0.0,
        global_utility=global_utility(lists, gini_k),
        users_evaluated=len(lists),
        users_without_relevant=sum(1 for r in lists if r.relevance.sum() == 0),
    )


class TestMAE:
    def test_single_sample(self):
        assert mae([0.3], [1]) == pytest.approx(0.7, abs=TOL)

    def test_perfect(self):
        assert mae([0.0, 1.0], [0, 1]) == 0.0

    def test_hand_mean(self):
        assert mae([0.2, 0.4], [0, 1]) == pytest.approx(0.4, abs=TOL)

    def test_empty(self):
        with pytest.raises(ValueError):
            mae([], [])


def rank_sum_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """The rank-sum AUC over brute-force average ranks,
    rank_i = #{x_j < x_i} + (#{x_j = x_i} + 1) / 2."""
    below = (scores[None, :] < scores[:, None]).sum(axis=1)
    equal = (scores[None, :] == scores[:, None]).sum(axis=1)
    ranks = below + (equal + 1) / 2
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


class TestAUC:
    def test_separable(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5], [1, 0, 1]) == pytest.approx(0.5, abs=TOL)

    def test_hand_enumeration(self):
        # pairs: (0.9 vs 0.8) correct, (0.3 vs 0.8) wrong -> 1/2
        assert auc([0.9, 0.8, 0.3], [1, 0, 1]) == pytest.approx(0.5, abs=TOL)

    def test_single_class(self):
        with pytest.raises(ValueError):
            auc([0.5, 0.6], [1, 1])

    @pytest.mark.parametrize("labels", [[1, 0, 2], [1, 0, -1], [1.0, 0.0, 0.5]])
    def test_label_outside_zero_and_one_is_refused(self, labels):
        # a label of 2 would count as neither class and push the AUC past 1
        with pytest.raises(ValueError, match=f"^labels must be 0 or 1, got {labels[2]}$"):
            auc([0.9, 0.1, 0.5], labels)

    def test_nan_score_gives_nan(self):
        assert np.isnan(auc([0.9, np.nan, 0.1, 0.2], [1, 1, 0, 0]))

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 10_000), st.booleans())
    def test_matches_pair_enumeration(self, n_pos, n_neg, seed, tied):
        rng = np.random.default_rng(seed)
        size = n_pos + n_neg
        scores = rng.integers(0, 4, size) / 4 if tied else rng.random(size)
        labels = rng.permutation(np.array([1] * n_pos + [0] * n_neg))
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        assert auc(scores, labels) == pytest.approx(wins / (n_pos * n_neg), abs=TOL)
        assert auc(scores, labels) == rank_sum_auc(scores, labels)


class TestNDCG:
    def test_relevant_at_rank_one(self):
        assert ranked_lists([1, 0, 0, 0, 0])["ndcg5"] == pytest.approx(1.0, abs=TOL)

    def test_relevant_at_rank_two(self):
        got = ranked_lists([0, 1, 0, 0, 0])["ndcg5"]
        assert got == pytest.approx(1 / np.log2(3), abs=TOL)

    def test_no_relevant(self):
        assert ranked_lists([0, 0, 0])["ndcg5"] == 0.0

    def test_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert 0.0 <= ranked_lists(rng.integers(0, 2, 10))["ndcg5"] <= 1.0


class TestRecall:
    def test_single_relevant_hit(self):
        assert ranked_lists([1, 0, 0])["recall1"] == 1.0

    def test_half_of_two_relevant(self):
        assert ranked_lists([1, 0, 1])["recall1"] == pytest.approx(0.5, abs=TOL)

    def test_relevant_outside_top_k(self):
        # the one relevant item is ranked k + 1 = 6th
        assert ranked_lists([0, 0, 0, 0, 0, 1])["recall5"] == 0.0

    def test_full_list_recall_is_one(self):
        assert ranked_lists([0, 1, 0, 1, 1])["recall5"] == 1.0


class TestMRR:
    def test_first(self):
        assert ranked_lists([1, 0, 0])["mrr"] == 1.0

    def test_third(self):
        assert ranked_lists([0, 0, 1])["mrr"] == pytest.approx(1 / 3, abs=TOL)

    def test_none(self):
        assert ranked_lists([0, 0, 0])["mrr"] == 0.0


class TestGini:
    def test_perfect_equality(self):
        assert gini([3, 3, 3, 3]) == pytest.approx(0.0, abs=TOL)

    def test_total_concentration(self):
        assert gini([0, 0, 0, 4]) == pytest.approx(0.75, abs=TOL)

    def test_hand_two_values(self):
        assert gini([1, 3]) == pytest.approx(0.25, abs=TOL)

    def test_scale_invariant(self):
        counts = np.array([1, 5, 2, 9])
        assert gini(counts) == pytest.approx(gini(10 * counts), abs=TOL)

    def test_all_zero(self):
        with pytest.raises(ValueError):
            gini([0, 0])

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=20).filter(lambda c: sum(c) > 0))
    def test_in_range(self, counts):
        assert 0.0 <= gini(counts) < 1.0


class TestGlobalUtility:
    def test_all_relevant(self):
        assert ranked_lists(*[[1] * 5] * 3)["global_utility"] == 1.0

    def test_two_hits_of_five(self):
        assert ranked_lists([1, 0, 1, 0, 0])["global_utility"] == pytest.approx(0.4, abs=TOL)

    def test_none(self):
        assert ranked_lists([0] * 5)["global_utility"] == 0.0


class TestRankUser:
    def test_descending_scores(self):
        r = rank_user(0, np.array([3, 1, 2]), np.array([0.1, 0.9, 0.5]),
                      np.array([0, 1, 0]))
        assert r.items.tolist() == [1, 2, 3]
        assert r.relevance.tolist() == [1, 0, 0]

    def test_tie_broken_by_item_index(self):
        r = rank_user(0, np.array([7, 2, 5]), np.array([0.5, 0.5, 0.5]),
                      np.zeros(3))
        assert r.items.tolist() == [2, 5, 7]

    @given(st.integers(0, 10_000))
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        items = np.arange(8)
        scores = rng.random(8)
        rel = rng.integers(0, 2, 8)
        a = rank_user(0, items, scores, rel)
        b = rank_user(0, items, np.exp(3 * scores) + 1, rel)
        assert a.items.tolist() == b.items.tolist()


class TestRankUsers:
    @given(st.integers(0, 10_000))
    def test_equals_per_user_rank_user(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 60))
        users = rng.integers(0, 7, k)
        items = rng.integers(0, 9, k)
        scores = rng.integers(0, 3, k) / 2  # few distinct values: many tied scores
        rel = rng.integers(0, 2, k)
        got = rank_users(users, items, scores, rel)
        want = []
        for u in np.unique(users):
            mask = users == u
            want.append(rank_user(int(u), items[mask], scores[mask], rel[mask]))
        assert [r.user for r in got] == [r.user for r in want]
        for a, b in zip(got, want):
            assert a.items.tolist() == b.items.tolist()
            assert a.relevance.tolist() == b.relevance.tolist()

    def test_ties_by_item_within_each_user(self):
        got = rank_users(np.array([1, 0, 1, 0, 1]), np.array([9, 4, 3, 2, 5]),
                         np.array([0.5, 0.5, 0.5, 0.5, 0.7]), np.array([1, 0, 0, 1, 0]))
        assert [(r.user, r.items.tolist(), r.relevance.tolist()) for r in got] == \
            [(0, [2, 4], [1, 0]), (1, [5, 3, 9], [0, 0, 1])]

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        assert rank_users(empty, empty, np.array([]), empty) == []


def shared_sort_order(users, items, scores, n_items):
    scores = np.asarray(scores, dtype=np.float64)
    return _ranked_rows(users, items, scores, n_items, *_tie_groups(scores))


def lexsort_order(users, items, scores):
    return np.lexsort((items, -np.asarray(scores, dtype=np.float64), users))


# scores whose order lexsort has rules for: NaNs (either sign) after every number, +0 == -0
ODD_SCORES = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 0.5, 1e-300])


class TestRankedRows:
    """The order from the shared score sort equals np.lexsort((items, -scores, users))."""

    @given(st.integers(0, 10_000), st.sampled_from(["ties", "odd", "all-nan", "distinct"]))
    def test_equals_lexsort(self, seed, kind):
        # rows come shuffled, not grouped by user, and (user, item) pairs repeat
        rng = np.random.default_rng(seed)
        k, n_items = int(rng.integers(1, 120)), int(rng.integers(1, 12))
        users, items = rng.integers(0, 6, k), rng.integers(0, n_items, k)
        scores = {"ties": lambda: rng.integers(0, 3, k) / 2,
                  "odd": lambda: rng.choice(ODD_SCORES, k),
                  "all-nan": lambda: np.full(k, np.nan),
                  "distinct": lambda: rng.random(k)}[kind]()
        assert np.array_equal(shared_sort_order(users, items, scores, n_items),
                              lexsort_order(users, items, scores))

    def test_nan_ranks_after_every_number_of_its_user(self):
        users, items = np.array([0, 0, 0, 1]), np.array([0, 1, 2, 0])
        scores = np.array([np.nan, -np.inf, 0.5, np.nan])
        assert shared_sort_order(users, items, scores, 3).tolist() == [2, 1, 0, 3]

    def test_signed_zeros_tie_and_items_break_the_tie(self):
        users, items = np.zeros(3, dtype=np.int64), np.array([2, 0, 1])
        assert shared_sort_order(users, items, np.array([0.0, -0.0, 0.0]), 3).tolist() == [1, 2, 0]

    def test_one_row(self):
        one = np.array([4])
        assert shared_sort_order(one, np.array([0]), np.array([0.3]), 1).tolist() == [0]

    def test_user_id_too_large_for_the_key_takes_lexsort(self):
        rng = np.random.default_rng(3)
        users = rng.choice([0, 7, 2**45], 3000)
        items, n_items = rng.integers(0, 4096, 3000), 4096
        scores = rng.integers(0, 100, 3000) / 7
        scores[::50] = np.nan
        groups = len(np.unique(scores[~np.isnan(scores)])) + 1
        assert (2**45 + 1) * groups * n_items > 2**63  # the int64 key cannot hold it
        assert np.array_equal(shared_sort_order(users, items, scores, n_items),
                              lexsort_order(users, items, scores))

    def test_yahoo_shaped_table(self):
        rng = np.random.default_rng(4)
        users = rng.permutation(np.repeat(np.arange(15_400), 4))
        items = rng.integers(0, 1_000, len(users))
        scores = np.round(rng.random(len(users)), 3)  # about 1,000 tie groups
        assert np.array_equal(shared_sort_order(users, items, scores, 1_000),
                              lexsort_order(users, items, scores))


class TestItemRange:
    @pytest.mark.parametrize("bad", [3, 4, -1])
    @pytest.mark.parametrize("fn", [ranking_metrics, ranking_report])
    def test_item_outside_n_items_is_refused(self, fn, bad):
        users, items = np.array([0, 0, 1]), np.array([0, bad, 2])
        with pytest.raises(ValueError, match="n_items"):
            fn(users, items, np.array([0.2, 0.5, 0.1]), np.array([1, 0, 1]), 3)

    def test_last_item_is_accepted(self):
        got = ranking_metrics(np.array([0, 0]), np.array([0, 2]), np.array([0.2, 0.5]),
                              np.array([1, 0]), 3)
        assert got["users_evaluated"] == 1


class TestLabels:
    """The IDCG table counts relevant items, so a label must be 0 or 1."""

    @pytest.mark.parametrize("bad, shown", [(2, "2"), (-1, "-1"), (0.5, "0.5"), (np.nan, "nan")])
    @pytest.mark.parametrize("fn", [ranking_metrics, ranking_report])
    def test_label_outside_zero_and_one_is_refused(self, fn, bad, shown):
        labels = np.array([0, bad, 1])
        with pytest.raises(ValueError, match=f"^labels must be 0 or 1, got {shown}$"):
            fn(np.array([0, 0, 1]), np.array([0, 1, 2]), np.array([0.2, 0.5, 0.1]), labels, 3)

    @pytest.mark.parametrize("labels", [[1, 0, 1], [True, False, True], [1.0, 0.0, 1.0]])
    def test_binary_labels_of_any_dtype_give_one_report(self, labels):
        args = (np.array([0, 0, 1]), np.array([0, 1, 2]), np.array([0.2, 0.5, 0.1]))
        want = ranking_report(*args, np.array([1, 0, 1]), 3)
        assert_same_report(ranking_report(*args, np.array(labels), 3), want)

    @pytest.mark.parametrize("fn", [ranking_metrics, ranking_report])
    def test_python_lists_are_accepted(self, fn):
        table = ([0, 0, 1], [0, 1, 2], [0.2, 0.5, 0.1], [1, 0, 1])
        got = fn(*table, 3)
        assert got == fn(*map(np.array, table), 3)


RANKING_TABLE = {"users": [0, 0, 1], "items": [0, 1, 2], "scores": [0.2, 0.5, 0.1],
                 "labels": [1, 0, 1]}


def one_row_short(column):
    """RANKING_TABLE's columns with `column` one row short, n_items, and the lengths named."""
    table = {k: v[:-1] if k == column else v for k, v in RANKING_TABLE.items()}
    return (*table.values(), 3), ", ".join(f"{k} {len(v)}" for k, v in table.items())


class TestUnequalLengths:
    """Columns of unequal length are refused, not broadcast or indexed past."""

    @pytest.mark.parametrize("fn, args, lengths", [
        (mae, ([0.2], [0, 1, 1]), "predictions 1, labels 3"),
        (mae, ([0.2, 0.3, 0.4], [0, 1]), "predictions 3, labels 2"),
        (auc, ([0.2, 0.3], [0, 1, 1]), "predictions 2, labels 3"),
        (auc, ([0.2, 0.3, 0.4], [0, 1]), "predictions 3, labels 2"),
        *[(fn, *one_row_short(column)) for fn in (ranking_metrics, ranking_report)
          for column in RANKING_TABLE],
    ])
    def test_is_refused_naming_both_lengths(self, fn, args, lengths):
        with pytest.raises(ValueError, match=f"^unequal lengths: {lengths}$"):
            fn(*args)


REPORT_FIELDS = MetricsReport.COLUMNS + ("users_evaluated", "users_without_relevant")


def assert_same_report(got, want):
    for name in REPORT_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


def shuffled_table(rng, lengths, n_items=40):
    """(users, items, scores, labels, n_items): one user per list length, rows shuffled.

    Relevance rates run from none to all, so some users have no relevant item;
    four distinct scores make many ties. The first row is relevant and the last
    is not, so AUC is defined.
    """
    users = np.repeat(rng.choice(1000, len(lengths), replace=False), lengths)
    items = np.concatenate([rng.choice(n_items, k, replace=False) for k in lengths])
    rate = np.repeat(rng.choice([0.0, 0.3, 0.7, 1.0], len(lengths)), lengths)
    labels = (rng.random(len(users)) < rate).astype(np.int64)
    labels[0], labels[-1] = 1, 0
    scores = rng.integers(0, 4, len(users)) / 4
    shuffle = rng.permutation(len(users))
    return users[shuffle], items[shuffle], scores[shuffle], labels[shuffle], n_items


class TestRankingReport:
    """ranking_report equals the per-list loop bit for bit (==, not within a tolerance)."""

    @given(st.integers(0, 10_000), st.integers(1, 12))
    def test_equals_per_list_loop(self, seed, n_users):
        rng = np.random.default_rng(seed)
        n_items = 40
        user_ids = rng.choice(100, n_users, replace=False)
        lengths = rng.integers(1, 31, n_users)
        users = np.repeat(user_ids, lengths)
        items = np.concatenate([rng.choice(n_items, k, replace=False) for k in lengths])
        # per-user relevance rates from none to all, so some users have no relevant
        # item and some long lists are mostly relevant
        rate = np.repeat(rng.choice([0.0, 0.3, 0.7, 1.0], n_users), lengths)
        labels = (rng.random(len(users)) < rate).astype(np.int64)
        scores = rng.integers(0, 4, len(users)) / 4  # four distinct values: many ties
        # user 100 has one relevant and one irrelevant item, so AUC is defined
        users, items = np.append(users, [100, 100]), np.append(items, [0, 1])
        labels, scores = np.append(labels, [1, 0]), np.append(scores, [0.5, 0.5])
        shuffle = rng.permutation(len(users))  # rows not grouped by user
        args = (users[shuffle], items[shuffle], scores[shuffle], labels[shuffle], n_items)
        assert_same_report(ranking_report(*args), per_list_report(*args, gini_k=5))

    def test_every_relevance_pattern_up_to_ten_items(self):
        # numpy sums fewer than 8 numbers left to right and 8 or more pairwise,
        # so a list's gains padded with zeros can round differently. User 1 has
        # one irrelevant item: it gives AUC a negative and adds 0 to every mean.
        for length in range(1, 11):
            for pattern in range(1, 2 ** length):
                rel = np.append((pattern >> np.arange(length)) & 1, 0)
                users = np.append(np.zeros(length, dtype=np.int64), 1)
                items = np.append(np.arange(length), 0)
                scores = np.append(1 - np.arange(length) / 16, 0.5)
                args = (users, items, scores, rel, length)
                assert_same_report(ranking_report(*args), per_list_report(*args, gini_k=5))

    @pytest.mark.parametrize("length", [1, 4, 7, 10, 16])
    def test_every_user_with_the_same_list_length(self, length):
        # one width group holds every row; at length 7 the NDCG@5 widths are all 5
        # and the NDCG@10 widths all 7
        for seed in range(10):
            args = shuffled_table(np.random.default_rng(seed), np.full(40, length))
            assert_same_report(ranking_report(*args), per_list_report(*args, gini_k=5))

    def test_one_uniform_group_with_ragged_users(self):
        # most users have 7 items and a few have 1-16, so no width group holds
        # every row and the widest is not the largest
        for seed in range(10):
            rng = np.random.default_rng(seed)
            lengths = rng.permutation(np.r_[np.full(60, 7), rng.integers(1, 17, 8)])
            args = shuffled_table(rng, lengths)
            assert_same_report(ranking_report(*args), per_list_report(*args, gini_k=5))


class TestEvaluate:
    @pytest.fixture
    def bundle(self):
        rng = np.random.default_rng(0)
        m, n = 20, 15
        users = np.repeat(np.arange(m), 5)
        items = np.concatenate([rng.choice(n, 5, replace=False) for _ in range(m)])
        ratings = rng.integers(1, 6, len(users))
        test = InteractionTable.from_lists(users, items, ratings)
        train = InteractionTable.from_lists([0], [0], [5])
        return DatasetBundle(m=m, n=n, train=train, test=test,
                             exposure=ExposureMatrix(m, n, train))

    def test_report_fields_in_range(self, bundle):
        params = init_params(bundle.m, bundle.n, 4, 1, np.random.default_rng(1))
        rep = evaluate(params, bundle)
        for name in ("auc", "ndcg5", "ndcg10", "recall1", "recall5", "mrr",
                     "global_utility", "mae"):
            assert 0.0 <= getattr(rep, name) <= 1.0
        assert 0.0 <= rep.gini < 1.0
        assert rep.users_evaluated == 20

    def test_zero_relevant_users_flagged(self):
        test = InteractionTable.from_lists([0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 5, 1])
        train = InteractionTable.from_lists([0], [0], [5])
        b = DatasetBundle(m=2, n=2, train=train, test=test,
                          exposure=ExposureMatrix(2, 2, train))
        params = init_params(2, 2, 2, 1, np.random.default_rng(0))
        rep = evaluate(params, b)
        assert rep.users_without_relevant == 1

    def test_empty_test(self):
        train = InteractionTable.from_lists([0], [0], [5])
        b = DatasetBundle(m=1, n=1, train=train,
                          test=InteractionTable.from_lists((), (), ()),
                          exposure=ExposureMatrix(1, 1, train))
        params = init_params(1, 1, 2, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            evaluate(params, b)


class TestPredict:
    @pytest.mark.parametrize("rows", [1, SCORE_ROWS - 1, SCORE_ROWS, SCORE_ROWS + 1,
                                      2 * SCORE_ROWS + 3])
    @pytest.mark.parametrize("hidden_layers", [0, 1, 2])
    def test_equals_one_forward(self, rows, hidden_layers):
        rng = np.random.default_rng(rows + hidden_layers)
        params = init_params(300, 50, 8, hidden_layers, rng)
        users, items = rng.integers(0, 300, rows), rng.integers(0, 50, rows)
        assert np.array_equal(predict(params, users, items), forward(params, users, items).y)

    def test_empty(self):
        params = init_params(2, 2, 2, 1, np.random.default_rng(0))
        assert predict(params, np.array([], dtype=np.int64), np.array([], dtype=np.int64)).shape == (0,)

    def test_evaluate_holds_one_chunk_of_activations(self):
        # a Yahoo!-R3-shaped test table: 15,400 users x 4 items of 1,000, d = 8;
        # scored by one forward over all 61,600 rows, evaluate peaked at 24.2 MiB
        rng = np.random.default_rng(0)
        m, n = 15_400, 1_000
        users = np.repeat(np.arange(m), 4)
        items = rng.integers(0, n, len(users))
        test = InteractionTable.from_lists(users, items, rng.integers(1, 6, len(users)))
        train = InteractionTable.from_lists([0], [0], [5])
        bundle = DatasetBundle(m=m, n=n, train=train, test=test, exposure=ExposureMatrix(m, n, train))
        params = init_params(m, n, 8, 1, rng)
        tracemalloc.start()
        try:
            evaluate(params, bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
