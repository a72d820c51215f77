"""Contrastive counterfactual module: positive samplers and the NT-Xent-style loss.

A mini-batch of N observed pairs is expanded to 2N interleaved views
[anchor_1, positive_1, ..., anchor_N, positive_N]; each positive keeps the
anchor's user and swaps in an item chosen by one of three samplers:

  * cf  - uniform over the user's unexposed items (random counterfactual);
  * ps  - item with the largest propensity difference from the anchor item;
  * pop - item with the largest popularity difference from the anchor item.

ps and pop are array argmaxes over fixed-size row chunks; cf draws pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cclrec.data import DatasetBundle, unexposed_items
from cclrec.model import ModelParams
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


# Block sizes of the two products. At these sizes OpenBLAS gives the same
# bytes at any thread count, for every even 2N up to 2,100 (checked at 1 and
# 2 threads); a whole-matrix product does not.
_LOGIT_COLS = 128
_GRAD_ROWS = 256


def _ccl_loss_impl(batch: CCLBatch, cosine: bool, want_grad: bool):
    reps = batch.representations
    tau = batch.temperature
    if tau <= 0:
        raise ValueError("temperature must be positive")
    two_n = reps.shape[0]
    if two_n < 2 or two_n % 2:
        raise ValueError("batch must hold an even number (>= 2) of views")

    h = reps
    norms = None
    if cosine:
        norms = np.maximum(np.linalg.norm(reps, axis=1, keepdims=True), 1e-12)
        h = reps / norms
    # One 2N x 2N buffer carries logits -> exp -> softmax -> logit gradient.
    # The logits h (h / tau)^T are GEMMs over column blocks; they need not be
    # exactly symmetric, since the gradient sums both directions.
    hs = h / tau
    g = np.empty((two_n, two_n))
    for c in range(0, two_n, _LOGIT_COLS):
        cols = slice(c, c + _LOGIT_COLS)
        np.matmul(h, hs[cols].T, out=g[:, cols])
    np.fill_diagonal(g, -np.inf)  # m != anchor index
    row_max = g.max(axis=1)
    rows = np.arange(two_n)
    partner = rows ^ 1
    # read the positive logit before exp so that a small tau cannot underflow it
    pos_shifted = g[rows, partner] - row_max
    g -= row_max[:, None]
    np.exp(g, out=g)  # the diagonal is now exactly 0
    denom = g.sum(axis=1)
    losses = -pos_shifted + np.log(denom)
    loss = float(losses.sum() / two_n)
    if not want_grad:
        return loss, None

    # g <- dL/d(h_a . h_m) = (softmax - [m = partner]) / (2N tau)
    scale = 1.0 / (two_n * tau)
    g *= (scale / denom)[:, None]
    g[rows, partner] -= scale
    # (g + g^T) h as two products over fixed row chunks, summed in a fixed order
    grad_h = np.zeros_like(h)
    for k in range(0, two_n, _GRAD_ROWS):
        ks = slice(k, k + _GRAD_ROWS)
        grad_h += g[:, ks] @ h[ks]
        grad_h += g[ks].T @ h[ks]
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
    """Interleaved 2N x 2d matrix of concatenated embeddings."""
    n_pairs = len(users)
    d = params.d
    reps = np.empty((2 * n_pairs, 2 * d))
    h_u = params.user_embeddings[users]
    reps[0::2, :d] = h_u
    reps[1::2, :d] = h_u
    reps[0::2, d:] = params.item_embeddings[items]
    reps[1::2, d:] = params.item_embeddings[pos_items]
    return reps


def scatter_view_grads(params: ModelParams, batch: CCLBatch, grad_reps: np.ndarray,
                       grads: ModelParams, scale: float = 1.0) -> None:
    """Accumulate representation gradients into embedding-row gradients."""
    d = params.d
    g = scale * grad_reps
    np.add.at(grads.user_embeddings, batch.users, g[0::2, :d] + g[1::2, :d])
    np.add.at(grads.item_embeddings, batch.anchor_items, g[0::2, d:])
    np.add.at(grads.item_embeddings, batch.positive_items, g[1::2, d:])
