import numpy as np
import pytest
from hypothesis import given, strategies as st

from cclrec.data import DatasetBundle, ExposureMatrix, InteractionTable
from cclrec.metrics import (
    RankedList,
    auc,
    evaluate,
    gini,
    global_utility,
    mae,
    mrr,
    ndcg_at_k,
    rank_user,
    rank_users,
    recall_at_k,
)
from cclrec.model import init_params

TOL = 1e-9


def ranked(relevance):
    rel = np.asarray(relevance)
    return RankedList(0, np.arange(len(rel)), rel)


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

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 10_000))
    def test_matches_pair_enumeration(self, n_pos, n_neg, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(n_pos + n_neg)
        labels = np.array([1] * n_pos + [0] * n_neg)
        pos, neg = scores[:n_pos], scores[n_pos:]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        assert auc(scores, labels) == pytest.approx(wins / (n_pos * n_neg), abs=TOL)


class TestNDCG:
    def test_relevant_at_rank_one(self):
        assert ndcg_at_k(ranked([1, 0, 0, 0, 0]), 5) == pytest.approx(1.0, abs=TOL)

    def test_relevant_at_rank_two(self):
        got = ndcg_at_k(ranked([0, 1, 0, 0, 0]), 5)
        assert got == pytest.approx(1 / np.log2(3), abs=TOL)

    def test_no_relevant(self):
        assert ndcg_at_k(ranked([0, 0, 0]), 5) == 0.0

    def test_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = ranked(rng.integers(0, 2, 10))
            assert 0.0 <= ndcg_at_k(r, 5) <= 1.0


class TestRecall:
    def test_single_relevant_hit(self):
        assert recall_at_k(ranked([1, 0, 0]), 1) == 1.0

    def test_half_of_two_relevant(self):
        assert recall_at_k(ranked([1, 0, 1]), 1) == pytest.approx(0.5, abs=TOL)

    def test_relevant_outside_top_k(self):
        assert recall_at_k(ranked([0, 0, 1]), 2) == 0.0

    def test_full_list_recall_is_one(self):
        rel = np.array([0, 1, 0, 1, 1])
        assert recall_at_k(ranked(rel), len(rel)) == 1.0


class TestMRR:
    def test_first(self):
        assert mrr(ranked([1, 0, 0])) == 1.0

    def test_third(self):
        assert mrr(ranked([0, 0, 1])) == pytest.approx(1 / 3, abs=TOL)

    def test_none(self):
        assert mrr(ranked([0, 0, 0])) == 0.0


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
        lists = [ranked([1] * 5) for _ in range(3)]
        assert global_utility(lists, 5) == 1.0

    def test_two_hits_of_five(self):
        assert global_utility([ranked([1, 0, 1, 0, 0])], 5) == pytest.approx(0.4, abs=TOL)

    def test_none(self):
        assert global_utility([ranked([0] * 5)], 5) == 0.0


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
