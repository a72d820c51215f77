import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cclrec import data as D
from cclrec.data import (
    DataFormatError,
    ExposureMatrix,
    InteractionTable,
    holdout_split,
    load_coat,
    load_triples,
    unexposed_items,
)


def test_every_exported_name_resolves():
    import cclrec
    missing = [name for name in cclrec.__all__ if not hasattr(cclrec, name)]
    assert missing == []


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
    """The label rule every loader applies, through InteractionTable.from_lists."""

    @staticmethod
    def labels(ratings):
        n = len(ratings)
        return InteractionTable.from_lists(np.zeros(n), np.arange(n), ratings).labels.tolist()

    def test_threshold_boundary(self):
        assert self.labels([3, 2, 5]) == [1, 0, 1]

    def test_monotone(self):
        labels = self.labels(range(1, 6))
        assert labels == sorted(labels)


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
        dense = np.zeros((b.m, b.n), dtype=np.int64)
        dense[b.train.users, b.train.items] = b.train.ratings
        assert (dense == original).all()

    def test_exposure_equals_train(self, tiny_coat):
        b = load_coat(tiny_coat)
        assert len(b.exposure) == len(b.train)
        for u, i in zip(b.train.users, b.train.items):
            assert b.exposure.contains([u], [i])[0]

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

    def test_byte_that_is_not_utf8_rejected(self, tmp_path):
        (tmp_path / "train.ascii").write_bytes(b"1 0\r0 \xff\n")
        (tmp_path / "test.ascii").write_text("0 1\n1 0\n")
        with pytest.raises(DataFormatError, match=r"train.ascii:2: not UTF-8 text"):
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


    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(1, 5)),
                    max_size=40),
           st.sampled_from([" ", "\t", ","]), st.booleans())
    def test_matches_dict_reference(self, rows, sep, one_based):
        # the per-line dict the parser used to keep: the last line of a pair wins
        seen, dups = {}, 0
        for u, i, r in rows:
            dups += (u, i) in seen
            seen[(u, i)] = r
        want = sorted((u, i, r) for (u, i), r in seen.items())
        off = int(one_based)
        with tempfile.TemporaryDirectory() as d:
            train, test = Path(d) / "train.txt", Path(d) / "test.txt"
            train.write_text("".join(f"{u + off}{sep}{i + off}{sep}{r}\n" for u, i, r in rows))
            test.write_text(f"{off} {off} 2\n")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                b = load_triples(train, test, m=5, n=6, one_based=one_based)
        assert list(zip(b.train.users.tolist(), b.train.items.tolist(),
                        b.train.ratings.tolist())) == want
        assert b.train.users.dtype == b.train.items.dtype == b.train.ratings.dtype == np.int64
        expected = [f"{train}: {dups} duplicate (user,item) lines, kept last"] if dups else []
        assert [str(w.message) for w in caught] == expected


def _reference_parse_triple_file(path, m, n, one_based):
    """The per-line parser that _parse_triple_file replaced (text mode, UTF-8)."""
    users, items, ratings = [], [], []
    offset = 1 if one_based else 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = None
            for sep in ("\t", ",", None):
                cand = line.split(sep)
                if len(cand) == 3:
                    parts = cand
                    break
            if parts is None:
                raise DataFormatError(f"{path}:{lineno}: expected 3 fields, got {line!r}")
            try:
                u, i, r = (int(p) for p in parts)
            except ValueError as e:
                raise DataFormatError(f"{path}:{lineno}: non-integer field ({e})") from e
            u -= offset
            i -= offset
            if not (0 <= u < m) or not (0 <= i < n):
                raise DataFormatError(f"{path}:{lineno}: id ({u},{i}) out of range {m}x{n}")
            if r < 1 or r > 5:
                raise DataFormatError(f"{path}:{lineno}: rating {r} outside 1..5")
            users.append(u)
            items.append(i)
            ratings.append(r)
    columns = [np.array(c, dtype=np.int64) for c in (users, items, ratings)]
    keys = columns[0] * n + columns[1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    keep = order[last]
    return [c[keep] for c in columns], len(keys) - len(keep)


ORACLE_M, ORACLE_N = 4, 5

# Clean lines load with and without one_based: ids 1..3, ratings 1..5, spelled
# plainly or in ways only the per-line decode reads (sign, underscore, padding).
_clean_id = st.one_of(st.integers(1, 3).map(str), st.sampled_from(["01", "002", "+1", "0_1", "\u0663"]))
_clean_rating = st.one_of(st.integers(1, 5).map(str), st.sampled_from(["05", "+4", " 2", "3 "]))
_sep = st.sampled_from([" ", "\t", " ", "\t", "  ", " \t", "\t "])
# Wild fields sit on both sides of every range edge (id 0 is -1 when one_based),
# spell a value only the per-line decode reads, or do not parse.
_wild_field = st.one_of(
    st.sampled_from(["0", "1", "4", "5", "6"]),
    st.sampled_from(["-1", "-0", "1_0", "x", "", "1.0", "000000000000000003", "123456789012345678",
                     "1234567890123456789", "9999999999999999999", "99999999999999999999999",
                     "-99999999999999999999999"]),
)


@st.composite
def _clean_line(draw):
    u, i, r = draw(_clean_id), draw(_clean_id), draw(_clean_rating)
    kind = draw(st.sampled_from(["seps"] * 4 + ["commas", "blank", "padded"]))
    if kind == "commas":
        return f"{u},{i},{r}"
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t\t", "\x0c"]))
    line = f"{u}{draw(_sep)}{i}{draw(_sep)}{r}"
    return f" {line}\t" if kind == "padded" else line


@st.composite
def _wild_line(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(["1 2", "1 2 3 4", "1,2 3", "1,2\t3", "1\t2,3", "1\t\t2\t3", "1, 2, 3",
                                     "a b c", "1\xa02 3", "\ufeff1 2 3", "1,2,3,4"]))
    fields = [draw(_clean_id), draw(_clean_id), draw(_clean_rating)]
    for k in draw(st.sets(st.integers(0, 2), min_size=1)):
        fields[k] = draw(_wild_field)
    f1, f2, f3 = fields
    if draw(st.booleans()):
        return f"{f1},{f2},{f3}"
    return f"{f1}{draw(_sep)}{f2}{draw(_sep)}{f3}"


@st.composite
def _triple_file(draw, max_lines):
    lines = draw(st.lists(_clean_line(), max_size=max_lines))
    wild_lines = draw(st.sampled_from([0, 0, 0, 1, 2, 3]))
    for wild in draw(st.lists(_wild_line(), min_size=wild_lines, max_size=wild_lines)):
        lines.insert(draw(st.integers(0, len(lines))), wild)
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no final newline
    return text


def _load_outcome(train, test, one_based):
    """What load_triples gives: the tables and warnings, or the error and warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            b = load_triples(train, test, m=ORACLE_M, n=ORACLE_N, one_based=one_based)
            result = [(str(c.dtype), c.tolist()) for t in (b.train, b.test)
                      for c in (t.users, t.items, t.ratings, t.labels)]
        except DataFormatError as e:
            result = (type(e), str(e))
    return result, [str(w.message) for w in caught]


class TestParseTriplesOracle:
    @settings(max_examples=400, deadline=None)
    @given(_triple_file(12), _triple_file(4), st.booleans(),
           st.sampled_from([1, 2, 3, 5, 8, 1 << 17]))
    @example("", "", False, 1)
    @example("3 4 5\n4 0 1\n", "", False, 1)  # each side of each range edge
    @example("0 5 1\n", "", False, 1)
    @example("4 5 5\n0 1 1\n", "", True, 1)
    @example("1 6 1\n", "", True, 1)
    @example("1 1 0\n", "", True, 1)
    @example("1 1 6\n", "", False, 1)
    @example("0 0 3\n9999999999999999999 0 3\n", "", False, 1)  # 19 digits, over int64
    @example("1 1 3\n\n", "", True, 1)
    @example("0 0 3\n0 9 3\nx\n", "0 0 1", False, 2)  # a range error before a format error
    @example("0 0 3\nx\n0 9 3\n", "0 0 1", False, 2)  # and after one
    @example("0 0 3\r\n1234567890123456789 0 3\r\n0 0 7\r\n", "", False, 1)
    @example("0 0 3\n0 0 7\r1 1 1234567890123456789\n", "", False, 3)
    @example("0 0 4\n0 0 2\n1,1,3", "0\t0 1\n0 0 5", False, 2)  # duplicates in both files
    def test_matches_the_per_line_parser(self, train_text, test_text, one_based, block):
        with tempfile.TemporaryDirectory() as d:
            train, test = Path(d) / "train.txt", Path(d) / "test.txt"
            train.write_bytes(train_text.encode())
            test.write_bytes(test_text.encode())
            with mock.patch.object(D, "_parse_triple_file", _reference_parse_triple_file):
                want = _load_outcome(train, test, one_based)
            with mock.patch.object(D, "_BLOCK_BYTES", block):
                got = _load_outcome(train, test, one_based)
        assert got == want

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        (tmp_path / "train.txt").write_bytes(b"0 0 4\r\n\n0 1 \xff\n0 9 9\n")
        (tmp_path / "test.txt").write_text("0 0 2\n")
        with pytest.raises(DataFormatError, match=r"train.txt:3: not UTF-8 text"):
            load_triples(tmp_path / "train.txt", tmp_path / "test.txt", m=1, n=2)

    def test_an_earlier_problem_wins_over_a_byte_that_is_not_utf8(self, tmp_path):
        (tmp_path / "train.txt").write_bytes(b"0 0 4\n0 7 4\n0 1 \xff\n")
        (tmp_path / "test.txt").write_text("0 0 2\n")
        with pytest.raises(DataFormatError, match=r"train.txt:2: id \(0,7\) out of range"):
            load_triples(tmp_path / "train.txt", tmp_path / "test.txt", m=1, n=2)


def _exposure_reference(m, users, items):
    """The pair set and per-user sorted lists ExposureMatrix used to build pair by pair."""
    pairs, per_user = set(), [[] for _ in range(m)]
    for u, i in zip(users, items):
        if (u, i) in pairs:
            raise ValueError(f"duplicate pair ({u}, {i}) in interaction table")
        pairs.add((u, i))
        per_user[u].append(i)
    return pairs, [sorted(x) for x in per_user]


def _exposure(m, n, users, items):
    return ExposureMatrix(m, n, InteractionTable.from_lists(users, items, [4] * len(users)))


class TestExposureMatrix:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.data())
    def test_matches_set_reference(self, m, n, data):
        cells = data.draw(st.lists(st.integers(0, m * n - 1), unique=True, max_size=m * n))
        users, items = [c // n for c in cells], [c % n for c in cells]
        ex = _exposure(m, n, users, items)
        pairs, per_user = _exposure_reference(m, users, items)
        assert len(ex) == len(pairs)
        for u in range(m):
            assert ex.user_items(u).tolist() == per_user[u]
        grid = [(u, i) for u in range(-1, m + 1) for i in range(-1, n + 1)]
        want = [pair in pairs for pair in grid]
        assert [ex.contains([u], [i])[0] for u, i in grid] == want
        gu, gi = zip(*grid)
        assert ex.contains(np.array(gu), np.array(gi)).tolist() == want
        assert ex.item_counts().tolist() == np.bincount(items, minlength=n).tolist()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 11), min_size=2, max_size=20))
    def test_duplicate_names_the_first_repeated_row(self, cells):
        if len(set(cells)) == len(cells):
            cells = cells + cells[:1]
        users, items = [c // 4 for c in cells], [c % 4 for c in cells]
        with pytest.raises(ValueError) as want:
            _exposure_reference(3, users, items)
        with pytest.raises(ValueError) as got:
            _exposure(3, 4, users, items)
        assert str(got.value) == str(want.value)

    def test_empty(self):
        ex = _exposure(2, 3, [], [])
        assert len(ex) == 0 and not ex.contains([0], [0])[0]
        assert ex.user_items(1).tolist() == [] and ex.item_counts().tolist() == [0, 0, 0]

    @pytest.mark.parametrize("user, item", [(2, 0), (-1, 0), (0, 3), (0, -1)])
    def test_pair_outside_the_grid_rejected(self, user, item):
        with pytest.raises(ValueError, match="outside 2 x 3"):
            _exposure(2, 3, [0, user], [1, item])

    def test_user_out_of_range(self):
        with pytest.raises(IndexError):
            _exposure(2, 3, [0], [1]).user_items(2)


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
