"""Contrastive counterfactual module: positive samplers and the NT-Xent-style loss.

A mini-batch of N observed pairs is expanded to 2N interleaved views
[anchor_1, positive_1, ..., anchor_N, positive_N]; each positive keeps the
anchor's user and swaps in an item chosen by one of three samplers:

  * cf  - uniform over the user's unexposed items (random counterfactual);
  * ps  - item with the largest propensity difference from the anchor item;
  * pop - item with the largest popularity difference from the anchor item.

ps and pop are array argmaxes over fixed-size row chunks; cf draws pair by pair.
The farthest value from the anchor's is the largest or the smallest of the
row, lowest index first, so ps and pop reduce to a few fixed items. pop has
at most 2 positives per dataset (items 18 and 26 on SimConfig(seed=0)). ps on
a naive-Bayes table, where p0 < marginal < p1 (0.175 < 0.200 < 0.226 on seed
0), picks the user's lowest-indexed exposed item of the opposite label: 2
positives per user. ps on a logistic table sigmoid(s_u + s_i + b) picks one of
each user's two row extremes. cf gives about 17.8 per user of 20 anchors.
The loss runs over blocks of whole rows of the 2N x 2N logits, spread over the
CPUs by `model.split_map`, and sums their parts in block order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cclrec.data import DatasetBundle, unexposed_items
from cclrec.model import ModelParams, add_rows, embedding_rows, split_map
from cclrec.propensity import PopularityTable, PropensityTable

SAMPLER_KINDS = ("cf", "ps", "pop")


@dataclass
class CCLBatch:
    """2N interleaved representations; row 2k is the anchor of row 2k+1."""

    representations: np.ndarray  # 2N x 2d
    temperature: float
    users: np.ndarray | None = None  # length N
    anchor_items: np.ndarray | None = None
    positive_items: np.ndarray | None = None


def sample_random_counterfactual(bundle: DatasetBundle, user: int, item: int,
                                 rng: np.random.Generator) -> int:
    """Uniform draw from the user's unexposed items.

    Falls back to a uniform draw over all other items when every item is
    exposed (cannot happen on the benchmark datasets).
    """
    candidates = unexposed_items(bundle, user)
    if len(candidates) == 0:
        if bundle.n < 2:
            raise ValueError("no candidate item exists (n=1, all exposed)")
        pick = int(rng.integers(0, bundle.n - 1))
        return pick if pick < item else pick + 1
    return int(candidates[rng.integers(0, len(candidates))])


_SAMPLER_ROWS = 512  # rows per chunk of the ps and pop samplers


def _farthest(values_of, anchors) -> np.ndarray:
    """Per row k, argmax over j != anchors[k] of |v[k, j] - v[k, anchors[k]]|, lowest
    index winning ties; v = values_of(rows) holds one fixed-size chunk of rows."""
    anchors = np.asarray(anchors, dtype=np.int64)
    out = np.empty(len(anchors), dtype=np.int64)
    for lo in range(0, len(anchors), _SAMPLER_ROWS):
        rows = slice(lo, lo + _SAMPLER_ROWS)
        values, anchor = values_of(rows), anchors[rows]
        k = np.arange(len(anchor))
        diff = np.abs(values - values[k, anchor][:, None])
        diff[k, anchor] = -np.inf
        out[rows] = diff.argmax(axis=1)
    return out


def sample_propensity_difference(propensities: PropensityTable, users, items) -> np.ndarray:
    """Per pair, the item maximizing |P_{u,i'} - P_{u,item}| over i' != item."""
    return _farthest(lambda rows: propensities.rows(users[rows]), items)


def sample_popularity_difference(popularity: PopularityTable, items) -> np.ndarray:
    """Per anchor, the item maximizing |pop(i') - pop(item)| over i' != item."""
    pop = popularity.values
    return _farthest(lambda rows: np.broadcast_to(pop, (len(items[rows]), len(pop))), items)


def ccl_loss(batch: CCLBatch, cosine: bool = False) -> float:
    """Symmetric NT-Xent over the 2N views with dot-product similarity.

    l(a, b) = -log softmax_b over {m != a} of exp(sim(a, m)/tau);
    total is the mean of both directions over the N pairs.
    """
    return _ccl_loss_impl(batch, cosine, want_grad=False)[0]


def ccl_loss_and_grad(batch: CCLBatch, cosine: bool = False) -> tuple[float, np.ndarray]:
    """Loss plus its exact gradient w.r.t. every representation row."""
    return _ccl_loss_impl(batch, cosine, want_grad=True)


# Each block holds _GRAD_ROWS whole rows of the 2N x 2N logits; its products
# run over _LOGIT_COLS columns at a time. A product is then at most
# 128 x 128 x 2d = 2^18 multiply-adds at 2d = 16, which OpenBLAS runs on the
# calling thread: the bytes do not depend on its thread count, and the threads
# of split_map never queue on OpenBLAS's pool.
_LOGIT_COLS = 128
_GRAD_ROWS = 128


def _ccl_loss_impl(batch: CCLBatch, cosine: bool, want_grad: bool):
    reps, tau = batch.representations, batch.temperature
    if tau <= 0:
        raise ValueError("temperature must be positive")
    two_n = reps.shape[0]
    if two_n < 2 or two_n % 2:
        raise ValueError("batch must hold an even number (>= 2) of views")

    norms = np.maximum(np.linalg.norm(reps, axis=1, keepdims=True), 1e-12) if cosine else None
    h = reps / norms if cosine else reps
    hs, scale = h / tau, 1.0 / (two_n * tau)
    chunks = [slice(c, c + _LOGIT_COLS) for c in range(0, two_n, _LOGIT_COLS)]

    def block(lo: int):
        # rows lo.. of the logits h (h / tau)^T -> exp -> row sums -> losses; with
        # a = scale / denom, the row part a * (E h) and column part E^T (a * h[rows])
        hr = h[lo:lo + _GRAD_ROWS]
        r = np.arange(len(hr))
        e = np.empty((len(hr), two_n))
        for cols in chunks:
            np.matmul(hr, hs[cols].T, out=e[:, cols])
        e[r, lo + r] = -np.inf  # m != anchor index
        row_max = e.max(axis=1)
        # read the positive logit before exp so that a small tau cannot underflow it
        pos_shifted = e[r, (lo + r) ^ 1] - row_max
        e -= row_max[:, None]
        np.exp(e, out=e)  # the diagonal is now exactly 0
        denom = e.sum(axis=1)
        losses = -pos_shifted + np.log(denom)
        if not want_grad:
            return losses, None, None
        a = (scale / denom)[:, None]
        row, col, ah = np.zeros_like(hr), np.empty_like(h), a * hr
        for cols in chunks:
            row += e[:, cols] @ h[cols]
            np.matmul(e[:, cols].T, ah, out=col[cols])
        return losses, a * row, col

    parts = split_map(block, list(range(0, two_n, _GRAD_ROWS)))
    loss = float(np.concatenate([p[0] for p in parts]).sum() / two_n)
    if not want_grad:
        return loss, None
    # dL/dh = (G + G^T) h with G = diag(a) E - scale * [m = partner]; the column
    # parts are summed in block order, so the bytes do not depend on the split
    grad_h = np.concatenate([p[1] for p in parts]) + sum(p[2] for p in parts)
    grad_h -= (2 * scale) * h[np.arange(two_n) ^ 1]
    if cosine:
        # chain through the row normalization
        inner = (grad_h * h).sum(axis=1, keepdims=True)
        grad_h = (grad_h - inner * h) / norms
    return loss, grad_h


def make_sampler(kind: str, bundle: DatasetBundle,
                 propensities: PropensityTable | None = None,
                 popularity: PopularityTable | None = None):
    """The positive sampler of one run: ``sample(users, items, rng)`` -> positive items.

    Checks the kind and its table once. ps is one array call per batch; a pop
    positive depends only on its anchor, so pop indexes an n-entry table made
    here; cf is one call per pair. Each is looked up by its module-global name.
    """
    if kind not in SAMPLER_KINDS:
        raise ValueError(f"sampler must be one of {SAMPLER_KINDS}, got {kind!r}")
    if kind == "ps" and propensities is None:
        raise ValueError("ps sampler needs a propensity table")
    if kind == "pop" and popularity is None:
        raise ValueError("pop sampler needs a popularity table")
    if kind == "ps":
        return lambda users, items, rng=None: sample_propensity_difference(propensities, users, items)
    if kind == "pop":
        table = sample_popularity_difference(popularity, np.arange(len(popularity.values)))
        return lambda users, items, rng=None: table[items]

    def sample(users: np.ndarray, items: np.ndarray, rng: np.random.Generator | None = None):
        if rng is None:
            raise ValueError("cf sampler needs an explicit rng")
        return np.array([sample_random_counterfactual(bundle, u, i, rng)
                         for u, i in zip(users.tolist(), items.tolist())], dtype=np.int64)

    return sample


def build_views(bundle: DatasetBundle, params: ModelParams,
                users: np.ndarray, items: np.ndarray,
                sampler: str, tau: float,
                rng: np.random.Generator | None = None,
                propensities: PropensityTable | None = None,
                popularity: PopularityTable | None = None) -> CCLBatch:
    """Expand a mini-batch to the interleaved 2N-view representation matrix.

    Both views of a pair share the user-embedding half; only the item half
    differs (anchor item vs. sampled counterfactual item).
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    pos_items = make_sampler(sampler, bundle, propensities, popularity)(users, items, rng)
    reps = assemble_views(params, users, items, pos_items)
    return CCLBatch(reps, tau, users=users, anchor_items=items, positive_items=pos_items)


def assemble_views(params: ModelParams, users: np.ndarray, items: np.ndarray,
                   pos_items: np.ndarray) -> np.ndarray:
    """Interleaved 2N x 2d matrix of concatenated embeddings, from one take."""
    rows = embedding_rows(params, np.repeat(users, 2), np.column_stack([items, pos_items]).ravel())
    return np.take(params.embeddings, rows, axis=0).reshape(2 * len(users), 2 * params.d)


def scatter_view_grads(params: ModelParams, batch: CCLBatch, grad_reps: np.ndarray,
                       grads: ModelParams, scale: float = 1.0) -> None:
    """Accumulate representation gradients into embedding-row gradients: the users',
    then the anchor items', then the positive items', in one scatter."""
    d, m = params.d, params.user_embeddings.shape[0]
    g = scale * grad_reps
    rows = np.concatenate([batch.users, m + batch.anchor_items, m + batch.positive_items])
    values = np.concatenate([g[0::2, :d] + g[1::2, :d], g[0::2, d:], g[1::2, d:]])
    add_rows(grads.embeddings, rows, values)
