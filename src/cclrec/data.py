"""Loading, validation, binarization and splitting of explicit-feedback data.

Two on-disk formats are supported:
  * Coat-style: whitespace-separated integer matrix, one user per row,
    0 = unobserved, 1..5 = rating; optional binary feature matrices.
  * Triple-style: one "user item rating" line per interaction, separator
    auto-detected among tab / space / comma (grammar in load_triples).

All returned tables are immutable after construction and safe for concurrent
reads, except DatasetBundle._unexposed_cache: unexposed_items (the cf sampler)
fills it per user on first use. It remains until ROADMAP.md item 1 removes it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

LABEL_THRESHOLD = 3  # a rating of at least this is a positive label


class DataFormatError(ValueError):
    """Malformed input file (bad row width, non-integer cell, bad rating)."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class InteractionTable:
    """Observed (user, item, rating, label) records."""

    users: np.ndarray  # int64
    items: np.ndarray  # int64
    ratings: np.ndarray  # int64, 1..5
    labels: np.ndarray  # int64, {0,1}

    def __post_init__(self):
        for a in (self.users, self.items, self.ratings, self.labels):
            _freeze(a)

    def __len__(self) -> int:
        return len(self.users)

    @staticmethod
    def from_lists(users, items, ratings) -> "InteractionTable":
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        ratings = np.asarray(ratings, dtype=np.int64)
        labels = (ratings >= LABEL_THRESHOLD).astype(np.int64)
        return InteractionTable(users, items, ratings, labels)

    def subset(self, idx: np.ndarray) -> "InteractionTable":
        """The rows at the integer positions `idx`, in new arrays (indexing by an array copies)."""
        return InteractionTable(self.users[idx], self.items[idx], self.ratings[idx], self.labels[idx])


class ExposureMatrix:
    """Sparse binary m x n exposure indicator: the pair keys u * n + i, sorted.

    The items of the sorted pairs, cut at user offsets, form a CSR index, so
    a user's exposed items are one slice and membership is a binary search.
    """

    def __init__(self, m: int, n: int, table: InteractionTable):
        self.m = m
        self.n = n
        users, items = table.users, table.items
        if len(users) and (users.min() < 0 or users.max() >= m
                           or items.min() < 0 or items.max() >= n):
            raise ValueError(f"interaction table has a pair outside {m} x {n}")
        keys = users * n + items
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeats = order[1:][keys[1:] == keys[:-1]]  # every occurrence after a pair's first
        if len(repeats):
            row = repeats.min()
            raise ValueError(f"duplicate pair ({users[row]}, {items[row]}) in interaction table")
        self._keys = _freeze(keys)
        self._items = _freeze(items[order])
        self._starts = _freeze(np.searchsorted(users[order], np.arange(m + 1)))

    def __len__(self) -> int:
        return len(self._keys)

    def contains(self, users, items) -> np.ndarray:
        """Membership of each pair (users[j], items[j]), as a boolean array."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        keys = np.where((items >= 0) & (items < self.n), users * self.n + items, -1)
        at = np.searchsorted(self._keys, keys)
        found = at < len(self._keys)
        found[found] = self._keys[at[found]] == keys[found]
        return found

    def user_items(self, user: int) -> np.ndarray:
        """Sorted exposed item indices for one user."""
        if not 0 <= user < self.m:
            raise IndexError(f"user {user} out of range [0, {self.m})")
        return self._items[self._starts[user]:self._starts[user + 1]]

    def item_counts(self) -> np.ndarray:
        """Column sums of the exposure indicator (interactions per item)."""
        return np.bincount(self._items, minlength=self.n)


@dataclass(frozen=True)
class FeatureTable:
    """Dense per-entity feature matrix (binary-encoded attributes)."""

    values: np.ndarray  # float64, one row per entity

    def __post_init__(self):
        _freeze(self.values)


@dataclass
class DatasetBundle:
    m: int
    n: int
    train: InteractionTable
    test: InteractionTable
    exposure: ExposureMatrix = field(repr=False)
    user_features: Optional[FeatureTable] = None
    item_features: Optional[FeatureTable] = None
    _unexposed_cache: dict = field(default_factory=dict, repr=False, compare=False)


def _read_int_matrix(path: Path, max_value: int = 5) -> np.ndarray:
    rows = []
    width = None
    b = np.fromfile(path, dtype=np.uint8)
    for lineno, (start, end) in enumerate(zip(*_line_bounds(b)), start=1):
        parts = _decode_line(path, lineno, b[start:end].tobytes()).split()
        if not parts:
            continue
        try:
            row = [int(p) for p in parts]
        except ValueError as e:
            raise DataFormatError(f"{path}:{lineno}: non-integer cell ({e})") from e
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataFormatError(
                f"{path}:{lineno}: row width {len(row)} != {width}")
        bad = [v for v in row if v < 0 or v > max_value]
        if bad:
            raise DataFormatError(f"{path}:{lineno}: value {bad[0]} outside 0..{max_value}")
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    return np.array(rows, dtype=np.int64)


def _table_from_matrix(mat: np.ndarray) -> InteractionTable:
    users, items = np.nonzero(mat)
    ratings = mat[users, items]
    return InteractionTable.from_lists(users, items, ratings)


def _read_feature_file(directory: Path, kind: str) -> Optional[FeatureTable]:
    for path in (directory / f"{kind}_features.ascii",
                 directory / "user_item_features" / f"{kind}_features.ascii"):
        if path.exists():
            return FeatureTable(_read_int_matrix(path, max_value=1).astype(np.float64))
    return None


def load_coat(directory_path) -> DatasetBundle:
    """Load a Coat-format directory (train.ascii / test.ascii matrices)."""
    directory = Path(directory_path)
    train_mat = _read_int_matrix(directory / "train.ascii")
    test_mat = _read_int_matrix(directory / "test.ascii")
    if train_mat.shape != test_mat.shape:
        raise DataFormatError(
            f"train {train_mat.shape} and test {test_mat.shape} shapes differ")
    m, n = train_mat.shape
    train = _table_from_matrix(train_mat)
    test = _table_from_matrix(test_mat)
    return DatasetBundle(m=m, n=n, train=train, test=test,
                         exposure=ExposureMatrix(m, n, train),
                         user_features=_read_feature_file(directory, "user"),
                         item_features=_read_feature_file(directory, "item"))


_SEPARATORS = ("\t", ",", None)  # None = any whitespace
_BLOCK_BYTES = 1 << 17  # bytes parsed at a time (more for a longer line); bounds the temporaries
_MAX_DIGITS = 18  # 10**18 - 1 < 2**63: Horner's rule cannot overflow int64
_TAB, _LF, _CR, _SPACE, _COMMA, _ZERO = b"\t\n\r ,0"
_INT64 = np.iinfo(np.int64)


def _line_bounds(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of each line's content in the bytes `b`.

    Lines end at \\n, \\r\\n or a lone \\r, as in text mode's universal
    newlines, and the content excludes the terminator.
    """
    cr = b == _CR
    lone_cr = cr.copy()
    lone_cr[:-1] &= b[1:] != _LF
    breaks = np.flatnonzero((b == _LF) | lone_cr)
    starts = np.r_[0, breaks + 1]
    ends = np.r_[breaks, len(b)]
    if starts[-1] == len(b):  # nothing follows the last break
        starts, ends = starts[:-1], ends[:-1]
    ends -= (ends > starts) & cr[ends - 1]  # the \r of a \r\n
    return starts, ends


def _decode_line(path: Path, lineno: int, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}:{lineno}: not UTF-8 text ({e})") from e


def _decode_regular(b: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(3 x lines) int64 values of the regular lines (see load_triples) among
    the non-empty list [starts, ends), and their mask; other lines get garbage."""
    lo, hi = starts[0], ends[-1]
    seg = b[lo:hi]
    nondigit = (seg < _ZERO) | (seg > _ZERO + 9)
    before = np.zeros(len(seg) + 1, dtype=np.int64)  # non-digit bytes before each offset
    np.cumsum(nondigit, out=before[1:])
    first = before[starts - lo]
    regular = before[ends - lo] - first == 2
    marks = np.append(np.flatnonzero(nondigit) + lo, [lo, lo])  # lo: in range for any line
    p1, p2 = marks[first], marks[first + 1]
    s1, s2 = b[p1], b[p2]
    regular &= (((s1 == _SPACE) | (s1 == _TAB)) & ((s2 == _SPACE) | (s2 == _TAB))
                | (s1 == _COMMA) & (s2 == _COMMA))
    fields = ((starts, p1), (p1 + 1, p2), (p2 + 1, ends))
    for a, z in fields:
        regular &= (z - a >= 1) & (z - a <= _MAX_DIGITS)
    cols = np.zeros((3, len(starts)), dtype=np.int64)
    for v, (a, z) in zip(cols, fields):
        width = np.where(regular, z - a, 0)
        for d in range(int(width.max())):  # Horner's rule, one digit position at a time
            np.copyto(v, 10 * v + (b[np.minimum(a + d, len(b) - 1)] - _ZERO), where=d < width)
    return cols, regular


def _split_triple(path: Path, lineno: int, line: str):
    """Per-line decode: [user, item, rating] as ints, or None for a blank line."""
    line = line.strip()
    if not line:
        return None
    for sep in _SEPARATORS:
        parts = line.split(sep)
        if len(parts) == 3:
            break
    else:
        raise DataFormatError(f"{path}:{lineno}: expected 3 fields, got {line!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as e:
        raise DataFormatError(f"{path}:{lineno}: non-integer field ({e})") from e


def _row_problem(u: int, i: int, r: int, m: int, n: int) -> Optional[str]:
    if not (0 <= u < m) or not (0 <= i < n):
        return f"id ({u},{i}) out of range {m}x{n}"
    if r < 1 or r > 5:
        return f"rating {r} outside 1..5"
    return None


def _parse_lines(path: Path, lineno: int, data: bytes, m: int, n: int, offset: int):
    """(3 x rows) int64 columns of the non-empty `data`, whose first line is
    number lineno + 1, and its number of lines.

    Regular lines are decoded in bulk, the rest by _split_triple; the range
    checks then run once on the merged columns, and the first problem in
    file order is raised.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    starts, ends = _line_bounds(b)
    cols, kept = _decode_regular(b, starts, ends)
    cols[:2] -= offset
    stop, error = len(starts), None  # lines from `stop` on cannot hold the first problem
    for j in np.flatnonzero(~kept).tolist():
        at = lineno + j + 1
        try:
            row = _split_triple(path, at, _decode_line(path, at, data[starts[j]:ends[j]]))
            if row is None:
                continue
            row[0] -= offset
            row[1] -= offset
            if not all(_INT64.min <= v <= _INT64.max for v in row):  # so out of range
                raise DataFormatError(f"{path}:{at}: {_row_problem(*row, m, n)}")
        except DataFormatError as e:
            stop, error = j, e
            break
        cols[:, j] = row
        kept[j] = True
    u, i, r = cols[:, :stop]
    bad = kept[:stop] & ((u < 0) | (u >= m) | (i < 0) | (i >= n) | (r < 1) | (r > 5))
    if bad.any():
        j = int(bad.argmax())
        raise DataFormatError(f"{path}:{lineno + j + 1}: {_row_problem(*cols[:, j].tolist(), m, n)}")
    if error is not None:
        raise error
    return cols[:, kept], len(starts)


def _parse_triple_file(path: Path, m: int, n: int, one_based: bool):
    """Parse triples into (users, items, ratings) int64 columns sorted by
    (user, item); duplicates keep the last occurrence. Returns columns + dup count.

    The file is read once, in blocks of whole lines, each parsed by _parse_lines.
    """
    offset = 1 if one_based else 0
    blocks, lineno, carry = [np.empty((3, 0), dtype=np.int64)], 0, b""
    with open(path, "rb") as f:
        while True:
            chunk = f.read(_BLOCK_BYTES + len(carry))  # grows with a long line: linear, not quadratic
            data = carry + chunk
            # cut after the last line break; a \r at the very end may begin a \r\n
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1 if chunk else len(data)
            if cut:
                cols, lines = _parse_lines(path, lineno, data[:cut], m, n, offset)
                blocks.append(cols)
                lineno += lines
            carry = data[cut:]
            if not chunk:
                break
    columns = [np.concatenate(c) for c in zip(*blocks)]
    keys = columns[0] * n + columns[1]
    order = np.argsort(keys, kind="stable")  # equal keys stay in file order
    keys = keys[order]
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    keep = order[last]
    return [c[keep] for c in columns], len(keys) - len(keep)


def load_triples(train_path, test_path, m: int, n: int, one_based: bool = False) -> DatasetBundle:
    """Load Yahoo-style "user item rating" triple files.

    Lines end at \\n, \\r\\n or a lone \\r, and blank lines are skipped.
    A line holds three integers split by tabs, else commas, else any
    whitespace: the first separator giving exactly three fields wins.
    Regular lines, ``digits SEP digits SEP digits`` with SEP one space or
    tab (or both SEPs one comma) and fields of 1 to 18 digits, are decoded
    in bulk; any other line is stripped, split and read by int() on its
    own. Both paths give the same columns, and the first problem in file
    order (a malformed line, a byte that is not UTF-8, an id outside
    m x n, a rating outside 1..5) is a DataFormatError naming its line.
    """
    tables = []
    for path in (train_path, test_path):
        columns, dups = _parse_triple_file(Path(path), m, n, one_based)
        if dups:
            warnings.warn(f"{path}: {dups} duplicate (user,item) lines, kept last")
        tables.append(InteractionTable.from_lists(*columns))
    train, test = tables
    return DatasetBundle(m=m, n=n, train=train, test=test,
                         exposure=ExposureMatrix(m, n, train))


def unexposed_items(bundle: DatasetBundle, user: int) -> np.ndarray:
    """Sorted item indices the user was never exposed to in training."""
    if user < 0 or user >= bundle.m:
        raise IndexError(f"user {user} out of range [0, {bundle.m})")
    cached = bundle._unexposed_cache.get(user)
    if cached is None:
        exposed = bundle.exposure.user_items(user)
        mask = np.ones(bundle.n, dtype=bool)
        mask[exposed] = False
        cached = _freeze(np.nonzero(mask)[0])
        bundle._unexposed_cache[user] = cached
    return cached


def holdout_split(table: InteractionTable, fraction: float, seed: int):
    """Deterministic per-user stratified (train_part, validation_part) split.

    |validation| = round(fraction * |table|). Each user contributes the
    floor(fraction * count) rows with the lowest random keys, topped up
    globally by the lowest remaining keys to the exact total.
    """
    if not (0 <= fraction < 1):
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    k = len(table)
    n_val = int(round(fraction * k))
    if n_val == 0:
        return table, table.subset(np.array([], dtype=np.int64))
    rng = np.random.default_rng(seed)
    keys = rng.random(k)
    val_mask = np.zeros(k, dtype=bool)
    val_mask[_lowest_keys_per_user(table.users, keys, fraction)] = True
    remaining = n_val - int(val_mask.sum())
    if remaining > 0:
        pool = np.nonzero(~val_mask)[0]
        top_up = pool[np.argsort(keys[pool], kind="stable")[:remaining]]
        val_mask[top_up] = True
    return table.subset(np.nonzero(~val_mask)[0]), table.subset(np.nonzero(val_mask)[0])


def _lowest_keys_per_user(users: np.ndarray, keys: np.ndarray, fraction: float) -> np.ndarray:
    """Rows holding each user's floor(fraction * count) lowest keys (row order on ties)."""
    order = np.lexsort((keys, users))  # grouped by user, ascending key within a group
    grouped = users[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    counts = np.diff(starts, append=len(users))
    ends = starts + np.floor(fraction * counts).astype(np.int64)
    return order[np.arange(len(users)) < np.repeat(ends, counts)]
