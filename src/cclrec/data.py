"""Loading, validation, binarization and splitting of explicit-feedback data.

Two on-disk formats are supported:
  * Coat-style: whitespace-separated integer matrix, one user per row,
    0 = unobserved, 1..5 = rating; optional binary feature matrices.
  * Triple-style: one "user item rating" line per interaction, separator
    auto-detected among tab / space / comma.

All returned tables are immutable after construction and safe for concurrent
reads, except DatasetBundle._unexposed_cache: unexposed_items (the cf sampler)
fills it per user on first use. It remains until ROADMAP.md item 3 removes it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

DEFAULT_THRESHOLD = 3


class DataFormatError(ValueError):
    """Malformed input file (bad row width, non-integer cell, bad rating)."""


def binarize(rating: int, threshold: int = DEFAULT_THRESHOLD) -> int:
    """Map a 1..5 rating to a binary label: 1 iff rating >= threshold."""
    if rating < 1 or rating > 5:
        raise ValueError(f"rating must be in 1..5, got {rating} (0 means unobserved; filter first)")
    return 1 if rating >= threshold else 0


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
    def from_lists(users, items, ratings, threshold: int = DEFAULT_THRESHOLD) -> "InteractionTable":
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        ratings = np.asarray(ratings, dtype=np.int64)
        labels = (ratings >= threshold).astype(np.int64)
        return InteractionTable(users, items, ratings, labels)

    def subset(self, idx: np.ndarray) -> "InteractionTable":
        return InteractionTable(
            self.users[idx].copy(), self.items[idx].copy(),
            self.ratings[idx].copy(), self.labels[idx].copy())


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

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, i = pair
        return bool(self.contains([u], [i])[0])

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

    kind: str  # "user" | "item"
    values: np.ndarray  # float64, one row per entity

    def __post_init__(self):
        _freeze(self.values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


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
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
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


def _table_from_matrix(mat: np.ndarray, threshold: int) -> InteractionTable:
    users, items = np.nonzero(mat)
    ratings = mat[users, items]
    return InteractionTable.from_lists(users, items, ratings, threshold)


def _find_feature_file(directory: Path, kind: str) -> Optional[Path]:
    candidates = [
        directory / f"{kind}_features.ascii",
        directory / "user_item_features" / f"{kind}_features.ascii",
    ]
    for c in candidates:
        if c.exists():
            return c
    return None


def load_coat(directory_path, threshold: int = DEFAULT_THRESHOLD) -> DatasetBundle:
    """Load a Coat-format directory (train.ascii / test.ascii matrices)."""
    directory = Path(directory_path)
    train_mat = _read_int_matrix(directory / "train.ascii")
    test_mat = _read_int_matrix(directory / "test.ascii")
    if train_mat.shape != test_mat.shape:
        raise DataFormatError(
            f"train {train_mat.shape} and test {test_mat.shape} shapes differ")
    m, n = train_mat.shape
    train = _table_from_matrix(train_mat, threshold)
    test = _table_from_matrix(test_mat, threshold)
    user_features = item_features = None
    uf = _find_feature_file(directory, "user")
    if uf is not None:
        user_features = FeatureTable("user", _read_int_matrix(uf, max_value=1).astype(np.float64))
    itf = _find_feature_file(directory, "item")
    if itf is not None:
        item_features = FeatureTable("item", _read_int_matrix(itf, max_value=1).astype(np.float64))
    return DatasetBundle(m=m, n=n, train=train, test=test,
                         exposure=ExposureMatrix(m, n, train),
                         user_features=user_features, item_features=item_features)


def serialize_matrix(table: InteractionTable, m: int, n: int) -> np.ndarray:
    """Densify an interaction table back to the Coat matrix form."""
    mat = np.zeros((m, n), dtype=np.int64)
    mat[table.users, table.items] = table.ratings
    return mat


_SEPARATORS = ("\t", ",", None)  # None = any whitespace


def _parse_triple_file(path: Path, m: int, n: int, one_based: bool):
    """Parse triples into (users, items, ratings) int64 columns sorted by
    (user, item); duplicates keep the last occurrence. Returns columns + dup count."""
    users, items, ratings = [], [], []
    offset = 1 if one_based else 0
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = None
            for sep in _SEPARATORS:
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
    order = np.argsort(keys, kind="stable")  # equal keys stay in file order
    keys = keys[order]
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    keep = order[last]
    return [c[keep] for c in columns], len(keys) - len(keep)


def load_triples(train_path, test_path, m: int, n: int, one_based: bool = False,
                 threshold: int = DEFAULT_THRESHOLD) -> DatasetBundle:
    """Load Yahoo-style "user item rating" triple files."""
    tables = []
    for path in (train_path, test_path):
        columns, dups = _parse_triple_file(Path(path), m, n, one_based)
        if dups:
            warnings.warn(f"{path}: {dups} duplicate (user,item) lines, kept last")
        tables.append(InteractionTable.from_lists(*columns, threshold=threshold))
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
