"""Yahoo! R3-shaped triple files, generated by the benchmark from its seed.

The generator is the benchmark's own, so the ``yahoo-mle`` inputs stay the
same when ``cclrec.simulate`` changes. Shape: 15,400 users x 1,000 items;
each user has 20 train exposures drawn without replacement with
popularity-skewed weights and 4 test exposures drawn uniformly from the
items the user was not exposed to in train.

Labels: item i has a quality q_i ~ N(0, 1); user and item latents
u, v ~ N(0, 1/d) with d = 8. A pair is relevant with probability
sigmoid(2 u.v + q_i), and its rating is uniform on 3..5 when relevant and
on 1..2 otherwise, so rating >= 3 is the label. Exposure weight
w_i = exp(SKEW * (0.8 q_i + 0.6 e_i)) with e_i ~ N(0, 1): popular items
are better on average, so train labels are confounded by popularity while
test exposure is uniform.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

USERS = 15_400
ITEMS = 1_000
TRAIN_PER_USER = 20
TEST_PER_USER = 4
LATENT_DIM = 8
SKEW = 1.5
VERSION = 1  # bump when the generator's output changes, so old caches are not reused
_CHUNK = 1_000  # users per block of Gumbel keys (1,000 x 1,000 float64 = 8 MB)


@dataclass
class Triples:
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray


def generate(seed: int) -> tuple[Triples, Triples]:
    """(train, test) triples; the same seed gives the same arrays."""
    rng = np.random.default_rng([seed, 2022])
    quality = rng.normal(0.0, 1.0, ITEMS)
    user_lat = rng.normal(0.0, LATENT_DIM ** -0.5, (USERS, LATENT_DIM))
    item_lat = rng.normal(0.0, LATENT_DIM ** -0.5, (ITEMS, LATENT_DIM))
    log_w = SKEW * (0.8 * quality + 0.6 * rng.normal(0.0, 1.0, ITEMS))

    train_items = np.empty((USERS, TRAIN_PER_USER), dtype=np.int64)
    test_items = np.empty((USERS, TEST_PER_USER), dtype=np.int64)
    for lo in range(0, USERS, _CHUNK):
        rows = min(_CHUNK, USERS - lo)
        # Gumbel-top-k: the k largest log w + Gumbel keys are a weighted draw
        # of k items without replacement.
        keys = log_w + rng.gumbel(size=(rows, ITEMS))
        top = np.argpartition(-keys, TRAIN_PER_USER, axis=1)[:, :TRAIN_PER_USER]
        train_items[lo:lo + rows] = top
        uniform = rng.random((rows, ITEMS))
        np.put_along_axis(uniform, top, -1.0, axis=1)
        test_items[lo:lo + rows] = np.argpartition(-uniform, TEST_PER_USER, axis=1)[:, :TEST_PER_USER]

    def triples(items: np.ndarray) -> Triples:
        users = np.repeat(np.arange(USERS, dtype=np.int64), items.shape[1])
        items = items.ravel()
        logit = 2.0 * np.einsum("kd,kd->k", user_lat[users], item_lat[items]) + quality[items]
        relevant = rng.random(len(users)) < 1.0 / (1.0 + np.exp(-logit))
        ratings = np.where(relevant, rng.integers(3, 6, len(users)), rng.integers(1, 3, len(users)))
        return Triples(users, items, ratings.astype(np.int64))

    return triples(train_items), triples(test_items)


def _write(path: Path, t: Triples) -> None:
    with open(path, "w") as f:
        f.writelines(f"{u} {i} {r}\n" for u, i, r in zip(t.users.tolist(), t.items.tolist(), t.ratings.tolist()))


def ensure_files(cache_root: Path, seed: int, train: Triples, test: Triples) -> tuple[Path, Path]:
    """Write the triple files once per seed and generator version; return their paths."""
    directory = cache_root / f"yahoo-shape-v{VERSION}-seed{seed}"
    if not directory.is_dir():
        partial = cache_root / f".{directory.name}.{os.getpid()}"
        partial.mkdir(parents=True, exist_ok=True)
        _write(partial / "train.txt", train)
        _write(partial / "test.txt", test)
        try:
            os.replace(partial, directory)
        except OSError:  # another run wrote the same files first
            for f in partial.iterdir():
                f.unlink()
            partial.rmdir()
    return directory / "train.txt", directory / "test.txt"
