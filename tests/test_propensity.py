import numpy as np
import pytest

from cclrec import propensity as P
from cclrec.data import (
    DatasetBundle,
    ExposureMatrix,
    FeatureTable,
    InteractionTable,
)
from cclrec.propensity import (
    PropensityTable,
    estimate_popularity,
    estimate_propensity_lr,
    estimate_propensity_nb,
    popularity_from_counts,
)


def make_bundle(m, n, train_triplets, test_triplets=None,
                user_features=None, item_features=None):
    tu, ti, tr = zip(*train_triplets) if train_triplets else ((), (), ())
    train = InteractionTable.from_lists(tu, ti, tr)
    if test_triplets:
        su, si, sr = zip(*test_triplets)
        test = InteractionTable.from_lists(su, si, sr)
    else:
        test = InteractionTable.from_lists((), (), ())
    return DatasetBundle(
        m=m, n=n, train=train, test=test, exposure=ExposureMatrix(m, n, train),
        user_features=FeatureTable(user_features) if user_features is not None else None,
        item_features=FeatureTable(item_features) if item_features is not None else None)


def _estimate_propensity_lr_per_pair(bundle):
    """estimate_propensity_lr's dense table, filtering negatives one pair at a time."""
    m, n = bundle.m, bundle.n
    xu, xi = bundle.user_features.values, bundle.item_features.values
    pos_u, pos_i = bundle.train.users, bundle.train.items
    exposed = set(zip(pos_u.tolist(), pos_i.tolist()))
    rng = np.random.default_rng(P.LR_SEED)
    n_neg = int(round(P.LR_NEGATIVE_RATE * len(pos_u)))
    neg_u, neg_i = [], []
    while len(neg_u) < n_neg:
        cu = rng.integers(0, m, size=n_neg - len(neg_u))
        ci = rng.integers(0, n, size=n_neg - len(neg_i))
        for u, i in zip(cu.tolist(), ci.tolist()):
            if (u, i) not in exposed:
                neg_u.append(u)
                neg_i.append(i)
    X = np.hstack([np.vstack([xu[pos_u], xu[neg_u]]), np.vstack([xi[pos_i], xi[neg_i]])])
    y = np.concatenate([np.ones(len(pos_u)), np.zeros(n_neg)])
    w, b = np.zeros(X.shape[1]), 0.0
    for _ in range(P.LR_EPOCHS):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        err = p - y
        w -= P.LR_LEARNING_RATE * (X.T @ err / len(y) + P.LR_L2 * w)
        b -= P.LR_LEARNING_RATE * err.mean()
    su, si = xu @ w[:xu.shape[1]], xi @ w[xu.shape[1]:]
    dense = 1.0 / (1.0 + np.exp(-(su[:, None] + si[None, :] + b)))
    return np.clip(dense, P.PROPENSITY_FLOOR, 1.0)


class TestPopularity:
    def test_sqrt_of_normalized_counts(self):
        pop = popularity_from_counts([4, 2, 1])
        np.testing.assert_allclose(pop.values, [1.0, np.sqrt(0.5), 0.5], atol=1e-12)

    def test_equal_counts(self):
        pop = popularity_from_counts([7, 7, 7])
        np.testing.assert_allclose(pop.values, [1, 1, 1])

    def test_zero_count_floored(self):
        pop = popularity_from_counts([0, 5])
        np.testing.assert_allclose(pop.values, [1e-3, 1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="no interactions"):
            popularity_from_counts([0, 0])

    def test_scale_invariance(self):
        a = popularity_from_counts([3, 6, 9]).values
        b = popularity_from_counts([30, 60, 90]).values
        np.testing.assert_allclose(a, b)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(1, 100, 30)
        pop = popularity_from_counts(counts).values
        order = np.argsort(counts)
        assert (np.diff(pop[order]) >= 0).all()

    def test_from_bundle(self):
        b = make_bundle(2, 3, [(0, 0, 5), (1, 0, 2), (0, 1, 3)])
        pop = estimate_popularity(b)
        np.testing.assert_allclose(pop.values, [1.0, np.sqrt(0.5), 1e-3])


class TestNaiveBayes:
    def test_hand_computed_value(self):
        # train: 2000 pairs in a 100x100 grid -> P(O=1)=0.2, 80% positive
        rng = np.random.default_rng(1)
        users, items = np.divmod(rng.choice(10_000, 2000, replace=False), 100)
        ratings = np.where(np.arange(2000) < 1600, 5, 1)
        train = InteractionTable.from_lists(users, items, ratings)
        # MCAR sample with 50% positive; both ratios sit above the 0.05 floor
        mcar = InteractionTable.from_lists([0] * 10, range(10), [5] * 5 + [1] * 5)
        table = estimate_propensity_nb(train, mcar, m=100, n=100)
        p0, p1 = table.class_probs
        assert p1 == pytest.approx(0.8 * 0.2 / 0.5)
        assert p0 == pytest.approx(0.2 * 0.2 / 0.5)

    def test_independence_gives_constant(self):
        # P(Y=y|O=1) == P(Y=y) -> propensity equals P(O=1) for both classes
        train = InteractionTable.from_lists([0, 0, 1, 1], [0, 1, 0, 1], [5, 1, 5, 1])
        mcar = InteractionTable.from_lists([0, 0], [2, 3], [5, 1])
        table = estimate_propensity_nb(train, mcar, m=2, n=4)
        p_o = 4 / 8
        assert table.class_probs == (pytest.approx(p_o), pytest.approx(p_o))

    def test_inconsistent_inputs_clipped_to_one(self):
        # rare positives in MCAR push the Bayes ratio above 1
        train = InteractionTable.from_lists([0, 0, 1, 1], [0, 1, 0, 1], [5] * 4)
        mcar = InteractionTable.from_lists([0] * 10, range(10), [5] + [1] * 9)
        table = estimate_propensity_nb(train, mcar, m=2, n=2)
        assert table.class_probs[1] == 1.0

    def test_single_class_mcar_rejected(self):
        train = InteractionTable.from_lists([0], [0], [5])
        mcar = InteractionTable.from_lists([0, 0], [0, 1], [5, 4])
        with pytest.raises(ValueError, match="label class"):
            estimate_propensity_nb(train, mcar, m=1, n=2)

    def test_gather_and_row(self):
        train = InteractionTable.from_lists([0, 0], [0, 1], [5, 1])
        mcar = InteractionTable.from_lists([0, 0], [0, 1], [5, 1])
        table = estimate_propensity_nb(train, mcar, m=2, n=3)
        p = table.gather(np.array([0, 0]), np.array([0, 1]), np.array([1, 0]))
        assert p[0] == table.class_probs[1]
        assert p[1] == table.class_probs[0]
        row = table.row(0)
        assert row[2] == table.marginal  # unlabeled pair gets the marginal

    def test_rows_stack_the_rows_of_each_user(self):
        train = InteractionTable.from_lists([0, 0, 1], [0, 1, 2], [5, 1, 5])
        table = estimate_propensity_nb(train, train, m=2, n=3)
        got = table.rows([1, 0, 1])
        assert got.shape == (3, 3)
        assert [r.tolist() for r in got] == [table.row(u).tolist() for u in (1, 0, 1)]
        assert table.rows([]).shape == (0, 3)

    def test_builds_a_read_only_label_grid(self):
        train = InteractionTable.from_lists([0, 0, 1], [0, 1, 2], [5, 1, 5])
        table = estimate_propensity_nb(train, train, m=2, n=3)
        assert table.label_grid.dtype == np.int8
        assert table.label_grid.tolist() == [[1, 0, -1], [-1, -1, 1]]
        assert not table.label_grid.flags.writeable


class TestRowsRejectUsersOutOfRange:
    """row / rows raise IndexError outside [0, m) instead of wrapping negative ids."""

    def tables(self):
        train = InteractionTable.from_lists([0, 1], [0, 1], [5, 1])
        dense = PropensityTable(2, 3, 0.05, dense=np.full((2, 3), 0.5))
        grid = estimate_propensity_nb(train, train, m=2, n=3)
        plain = PropensityTable(2, 3, 0.05, class_probs=(0.2, 0.4), marginal=0.3,
                                label_grid=np.full((2, 3), -1, dtype=np.int8))
        return dense, grid, plain

    @pytest.mark.parametrize("user", [-1, -2, 2, 7])
    def test_row(self, user):
        for table in self.tables():
            with pytest.raises(IndexError, match="out of range"):
                table.row(user)

    @pytest.mark.parametrize("users", [[0, -1], [2], [1, 0, 3]])
    def test_rows(self, users):
        for table in self.tables():
            with pytest.raises(IndexError, match="out of range"):
                table.rows(users)


class TestLogisticRegression:
    def test_separable_toy(self):
        # exposure fully determined by the item feature
        feat_u = np.array([[1.0], [1.0]])
        feat_i = np.array([[1.0], [0.0]])
        b = make_bundle(2, 2, [(0, 0, 5), (1, 0, 4)],
                        user_features=feat_u, item_features=feat_i)
        table = estimate_propensity_lr(b)
        assert table.dense[0, 0] > table.dense[0, 1]
        assert table.dense[1, 0] > table.dense[1, 1]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        fu = rng.integers(0, 2, (6, 3)).astype(float)
        fi = rng.integers(0, 2, (8, 3)).astype(float)
        triplets = [(u, i, 4) for u in range(6) for i in range(0, 8, 2)]
        b = make_bundle(6, 8, triplets, user_features=fu, item_features=fi)
        t1 = estimate_propensity_lr(b)
        t2 = estimate_propensity_lr(b)
        assert (t1.dense == t2.dense).all()

    def test_negative_filter_matches_per_pair_membership(self):
        # half the grid is exposed, so about half the candidates are redrawn
        rng = np.random.default_rng(11)
        fu = rng.normal(size=(7, 3))
        fi = rng.normal(size=(9, 2))
        triplets = [(u, i, 4) for u in range(7) for i in range(9) if (u * 5 + i * 3) % 4 < 2]
        b = make_bundle(7, 9, triplets, user_features=fu, item_features=fi)
        got = estimate_propensity_lr(b)
        assert np.array_equal(got.dense, _estimate_propensity_lr_per_pair(b))

    def test_missing_features_error(self):
        b = make_bundle(2, 2, [(0, 0, 5)])
        with pytest.raises(ValueError, match="features"):
            estimate_propensity_lr(b)


class TestClip:
    def test_floor_applied(self):
        t = PropensityTable(1, 2, 0.05, dense=np.array([[0.001, 0.5]]))
        np.testing.assert_allclose(t.dense, [[0.05, 0.5]])

    def test_cap_at_one(self):
        t = PropensityTable(1, 1, 0.05, dense=np.array([[1.2]]))
        assert t.dense[0, 0] == 1.0

    def test_bad_floor(self):
        for floor in (0.0, 1.0, 2.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="floor"):
                PropensityTable(1, 1, floor, dense=np.array([[0.5]]))
            with pytest.raises(ValueError, match="floor"):
                PropensityTable(1, 1, floor, class_probs=(0.2, 0.4), marginal=0.3,
                                label_grid=np.array([[-1]], dtype=np.int8))

    def test_per_class_floor_applied(self):
        grid = np.array([[1, -1, 0]], dtype=np.int8)
        t = PropensityTable(1, 3, 0.05, class_probs=(0.02, 0.4), marginal=0.03, label_grid=grid)
        assert t.row(0).tolist() == [0.4, 0.05, 0.05]



class TestConstructorChecks:
    """A table that `rows` would read wrongly is refused, naming the argument."""

    GRID = np.array([[1, -1, 0], [-1, 0, 1]], dtype=np.int8)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 4), (3, 3), (6,), (1, 2, 3)])
    def test_dense_that_is_not_m_by_n(self, shape):
        with pytest.raises(ValueError, match=r"dense must be 2 x 3"):
            PropensityTable(2, 3, 0.05, dense=np.full(shape, 0.5))

    def test_per_class_without_marginal(self):
        with pytest.raises(ValueError, match="marginal"):
            PropensityTable(2, 3, 0.05, class_probs=(0.2, 0.4), label_grid=self.GRID)

    def test_per_class_without_label_grid(self):
        with pytest.raises(ValueError, match="label_grid"):
            PropensityTable(2, 3, 0.05, class_probs=(0.2, 0.4), marginal=0.3)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 4), (6,)])
    def test_label_grid_that_is_not_m_by_n(self, shape):
        with pytest.raises(ValueError, match="label_grid must be 2 x 3"):
            PropensityTable(2, 3, 0.05, class_probs=(0.2, 0.4), marginal=0.3,
                            label_grid=np.zeros(shape, dtype=np.int8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_dense(self, bad):
        dense = np.full((2, 3), 0.5)
        dense[1, 2] = bad
        with pytest.raises(ValueError, match="dense holds a non-finite propensity"):
            PropensityTable(2, 3, 0.05, dense=dense)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_class_probs(self, bad):
        # min(max(nan, floor), 1) is nan, so the clip alone kept it
        for probs in ((bad, 0.3), (0.3, bad)):
            with pytest.raises(ValueError, match="class_probs must be finite"):
                PropensityTable(2, 3, 0.05, class_probs=probs, marginal=0.3, label_grid=self.GRID)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_marginal(self, bad):
        with pytest.raises(ValueError, match="marginal must be finite"):
            PropensityTable(2, 3, 0.05, class_probs=(0.2, 0.4), marginal=bad, label_grid=self.GRID)

    @pytest.mark.parametrize("code", [-2, 2, 7, -128])
    def test_label_grid_code_outside_its_values(self, code):
        # the lookup [marginal, p0, p1][grid + 1] would read -2 as p1, 2 past the end
        grid = self.GRID.copy()
        grid[1, 2] = code
        with pytest.raises(ValueError, match="label_grid holds a value outside"):
            PropensityTable(2, 3, 0.05, class_probs=(0.2, 0.4), marginal=0.3, label_grid=grid)

