import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cclrec.data import (
    DataFormatError,
    InteractionTable,
    binarize,
    holdout_split,
    load_coat,
    load_triples,
    serialize_matrix,
    unexposed_items,
)


def write_coat_dir(tmp_path, train, test):
    for name, mat in (("train.ascii", train), ("test.ascii", test)):
        with open(tmp_path / name, "w") as f:
            for row in mat:
                f.write(" ".join(str(v) for v in row) + "\n")
    return tmp_path


@pytest.fixture
def tiny_coat(tmp_path):
    train = [[5, 0, 2, 0], [0, 3, 0, 1], [4, 0, 0, 0]]
    test = [[0, 1, 0, 0], [5, 0, 0, 0], [0, 0, 3, 0]]
    return write_coat_dir(tmp_path, train, test)


class TestBinarize:
    def test_threshold_boundary(self):
        assert binarize(3) == 1
        assert binarize(2) == 0
        assert binarize(5) == 1

    def test_unobserved_rejected(self):
        with pytest.raises(ValueError):
            binarize(0)

    def test_monotone(self):
        labels = [binarize(r) for r in range(1, 6)]
        assert labels == sorted(labels)

    def test_custom_threshold(self):
        assert binarize(2, threshold=2) == 1
        assert binarize(1, threshold=2) == 0


class TestLoadCoat:
    def test_tiny_matrix(self, tiny_coat):
        b = load_coat(tiny_coat)
        assert (b.m, b.n) == (3, 4)
        assert len(b.train) == 5
        assert len(b.test) == 3
        # labels binarized at 3
        got = dict(zip(zip(b.train.users.tolist(), b.train.items.tolist()),
                       b.train.labels.tolist()))
        assert got[(0, 0)] == 1 and got[(0, 2)] == 0 and got[(1, 3)] == 0

    def test_all_zero_matrix(self, tmp_path):
        b = load_coat(write_coat_dir(tmp_path, [[0, 0], [0, 0]], [[0, 0], [0, 0]]))
        assert (b.m, b.n) == (2, 2)
        assert len(b.train) == 0

    def test_round_trip(self, tiny_coat):
        b = load_coat(tiny_coat)
        original = np.loadtxt(tiny_coat / "train.ascii", dtype=np.int64)
        assert (serialize_matrix(b.train, b.m, b.n) == original).all()

    def test_exposure_equals_train(self, tiny_coat):
        b = load_coat(tiny_coat)
        assert len(b.exposure) == len(b.train)
        for u, i in zip(b.train.users, b.train.items):
            assert (u, i) in b.exposure

    def test_ragged_row_rejected(self, tmp_path):
        (tmp_path / "train.ascii").write_text("1 2 3\n4 5\n")
        (tmp_path / "test.ascii").write_text("0 0 0\n0 0 0\n")
        with pytest.raises(DataFormatError, match="width"):
            load_coat(tmp_path)

    def test_bad_rating_rejected(self, tmp_path):
        (tmp_path / "train.ascii").write_text("1 7\n")
        (tmp_path / "test.ascii").write_text("0 0\n")
        with pytest.raises(DataFormatError, match="outside"):
            load_coat(tmp_path)

    def test_non_integer_rejected(self, tmp_path):
        (tmp_path / "train.ascii").write_text("1 x\n")
        (tmp_path / "test.ascii").write_text("0 0\n")
        with pytest.raises(DataFormatError, match="non-integer"):
            load_coat(tmp_path)

    def test_feature_files_loaded(self, tiny_coat):
        (tiny_coat / "user_features.ascii").write_text("1 0\n0 1\n1 1\n")
        (tiny_coat / "item_features.ascii").write_text("1\n0\n1\n0\n")
        b = load_coat(tiny_coat)
        assert b.user_features.values.shape == (3, 2)
        assert b.item_features.values.shape == (4, 1)


class TestLoadTriples:
    def test_basic(self, tmp_path):
        (tmp_path / "train.txt").write_text("0 0 5\n0 1 1\n")
        (tmp_path / "test.txt").write_text("1 0 4\n")
        b = load_triples(tmp_path / "train.txt", tmp_path / "test.txt", m=2, n=2)
        assert b.train.labels.tolist() == [1, 0]

    def test_duplicate_keeps_last_with_warning(self, tmp_path):
        (tmp_path / "train.txt").write_text("0 0 5\n0 0 1\n")
        (tmp_path / "test.txt").write_text("0 1 4\n")
        with pytest.warns(UserWarning, match="1 duplicate"):
            b = load_triples(tmp_path / "train.txt", tmp_path / "test.txt", m=1, n=2)
        assert len(b.train) == 1
        assert b.train.labels.tolist() == [0]

    def test_empty_train_ok(self, tmp_path):
        (tmp_path / "train.txt").write_text("")
        (tmp_path / "test.txt").write_text("0 0 4\n")
        b = load_triples(tmp_path / "train.txt", tmp_path / "test.txt", m=1, n=1)
        assert len(b.train) == 0

    @pytest.mark.parametrize("sep", ["\t", ",", " "])
    def test_separator_autodetect(self, tmp_path, sep):
        (tmp_path / "train.txt").write_text(f"0{sep}1{sep}4\n")
        (tmp_path / "test.txt").write_text(f"0{sep}0{sep}2\n")
        b = load_triples(tmp_path / "train.txt", tmp_path / "test.txt", m=1, n=2)
        assert b.train.items.tolist() == [1]

    def test_one_based_ids(self, tmp_path):
        (tmp_path / "train.txt").write_text("1 2 4\n")
        (tmp_path / "test.txt").write_text("1 1 2\n")
        b = load_triples(tmp_path / "train.txt", tmp_path / "test.txt",
                         m=1, n=2, one_based=True)
        assert b.train.items.tolist() == [1]

    def test_out_of_range_id(self, tmp_path):
        (tmp_path / "train.txt").write_text("5 0 4\n")
        (tmp_path / "test.txt").write_text("0 0 2\n")
        with pytest.raises(DataFormatError, match="out of range"):
            load_triples(tmp_path / "train.txt", tmp_path / "test.txt", m=2, n=2)

    def test_unparsable_line_reports_number(self, tmp_path):
        (tmp_path / "train.txt").write_text("0 0 4\nnot a triple line here\n")
        (tmp_path / "test.txt").write_text("0 0 2\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_triples(tmp_path / "train.txt", tmp_path / "test.txt", m=1, n=1)


class TestUnexposedItems:
    def test_partition(self, tiny_coat):
        b = load_coat(tiny_coat)
        for u in range(b.m):
            un = set(unexposed_items(b, u).tolist())
            ex = set(b.exposure.user_items(u).tolist())
            assert un | ex == set(range(b.n))
            assert not (un & ex)

    def test_small_example(self, tmp_path):
        b = load_coat(write_coat_dir(tmp_path, [[0, 4, 0]], [[0, 0, 1]]))
        assert unexposed_items(b, 0).tolist() == [0, 2]

    def test_out_of_range_user(self, tiny_coat):
        with pytest.raises(IndexError):
            unexposed_items(load_coat(tiny_coat), 99)


class TestHoldoutSplit:
    @pytest.fixture
    def table(self):
        rng = np.random.default_rng(3)
        return InteractionTable.from_lists(
            rng.integers(0, 10, 100), np.arange(100), rng.integers(1, 6, 100))

    def test_fraction_zero(self, table):
        tr, val = holdout_split(table, 0.0, seed=1)
        assert len(val) == 0
        assert tr.users.tolist() == table.users.tolist()

    def test_size_and_determinism(self, table):
        tr1, val1 = holdout_split(table, 0.1, seed=7)
        tr2, val2 = holdout_split(table, 0.1, seed=7)
        assert len(val1) == 10
        assert val1.items.tolist() == val2.items.tolist()
        assert tr1.items.tolist() == tr2.items.tolist()

    def test_partition(self, table):
        tr, val = holdout_split(table, 0.3, seed=5)
        combined = sorted(tr.items.tolist() + val.items.tolist())
        assert combined == sorted(table.items.tolist())

    def test_bad_fraction(self, table):
        with pytest.raises(ValueError):
            holdout_split(table, 1.0, seed=0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 12),
           st.floats(0.0, 0.95))
    def test_matches_per_user_loop(self, seed, rows, users, fraction):
        rng = np.random.default_rng(seed)
        table = InteractionTable.from_lists(rng.integers(-2, users, rows), rng.integers(0, 9, rows),
                                            rng.integers(1, 6, rows))
        got = holdout_split(table, fraction, seed)
        want = per_user_loop_split(table, fraction, seed)
        for a, b in zip(got, want):
            for column in ("users", "items", "ratings", "labels"):
                assert getattr(a, column).tolist() == getattr(b, column).tolist()


def per_user_loop_split(table, fraction, seed):
    """The split as one scan per user (the former implementation), for reference."""
    k = len(table)
    n_val = int(round(fraction * k))
    if n_val == 0:
        return table, table.subset(np.array([], dtype=np.int64))
    keys = np.random.default_rng(seed).random(k)
    val_mask = np.zeros(k, dtype=bool)
    taken = 0
    for u in np.unique(table.users):
        idx = np.nonzero(table.users == u)[0]
        quota = int(np.floor(fraction * len(idx)))
        if quota > 0:
            val_mask[idx[np.argsort(keys[idx], kind="stable")[:quota]]] = True
            taken += quota
    remaining = n_val - taken
    if remaining > 0:
        pool = np.nonzero(~val_mask)[0]
        val_mask[pool[np.argsort(keys[pool], kind="stable")[:remaining]]] = True
    return table.subset(np.nonzero(~val_mask)[0]), table.subset(np.nonzero(val_mask)[0])
