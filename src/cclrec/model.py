"""Embedding + MLP predictor with exact hand-written gradients.

Architecture: user/item embedding lookups, concatenation, a stack of
ReLU hidden layers (width 2d) and a 1-unit sigmoid output. Everything is
float64 and deterministic; gradients are exact reverse-mode derivatives
verified against finite differences in the test suite. `forward` keeps
only each layer's input (the ReLU is taken in place), and `backward` reads
its ReLU mask from those. A `ModelParams` keeps its arrays in one contiguous
vector, the user table right before the item table, so `embeddings` stacks
both: `forward` gathers every input row with one take from it, and
`backward` scatters the rows' gradients back with one `add_rows`.
`split_map` spreads a large Adam step and the contrastive kernel's row
blocks over the CPUs of the affinity mask, on one thread pool; the bytes do
not depend on it.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cclrec.data import DataFormatError

EPS_LOG = 1e-12
# elements below which one thread runs the whole Adam step: on 2 vCPUs a
# split step pays about 0.2 ms to hand out and gather and wins from ~56k on
ADAM_SPLIT_MIN = 1 << 16
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class ModelParams:
    """Arrays shaped like the model: its parameters, their gradients, or Adam's moments.

    The fields are views into one float64 vector `flat`, in `flat_arrays()`
    order; the constructor packs the arrays it is given into a new vector.
    """

    def __init__(self, user_embeddings: np.ndarray, item_embeddings: np.ndarray,
                 layers: list[tuple[np.ndarray, np.ndarray]]):
        arrays = [user_embeddings, item_embeddings] + [a for pair in layers for a in pair]
        self._bind(np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64),
                   [np.shape(a) for a in arrays])

    @classmethod
    def over(cls, flat: np.ndarray, shapes: list[tuple[int, ...]]) -> "ModelParams":
        """Parameters whose fields are views into `flat`, one per shape, in order."""
        params = cls.__new__(cls)
        params._bind(flat, shapes)
        return params

    def _bind(self, flat: np.ndarray, shapes: list[tuple[int, ...]]) -> None:
        bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes])
        views = [flat[lo:hi].reshape(shape) for lo, hi, shape in zip(bounds, bounds[1:], shapes)]
        if shapes[0][1] != shapes[1][1]:
            raise ValueError(f"embedding shapes {shapes[0]} and {shapes[1]}: need the same width")
        self.flat = flat
        self.user_embeddings, self.item_embeddings = views[0], views[1]  # m x d, n x d
        self.embeddings = flat[:bounds[2]].reshape(-1, shapes[0][1])  # both, stacked: (m+n) x d
        self.layers = list(zip(views[2::2], views[3::2]))  # (W in x out, b out), last out=1

    @property
    def d(self) -> int:
        return self.user_embeddings.shape[1]

    @property
    def shapes(self) -> list[tuple[int, ...]]:
        return [a.shape for a in self.flat_arrays()]

    def copy(self) -> "ModelParams":
        return ModelParams.over(self.flat.copy(), self.shapes)

    @staticmethod
    def zeros_like(params: "ModelParams") -> "ModelParams":
        return ModelParams.over(np.zeros_like(params.flat), params.shapes)

    def flat_arrays(self) -> list[np.ndarray]:
        out = [self.user_embeddings, self.item_embeddings]
        for W, b in self.layers:
            out.extend([W, b])
        return out

    def assert_finite(self) -> None:
        if not np.isfinite(self.flat).all():
            raise FloatingPointError("non-finite gradient")


def init_params(m: int, n: int, d: int, hidden_layers: int,
                rng: np.random.Generator) -> ModelParams:
    """Uniform(-1/sqrt(d)) embeddings, Xavier-uniform MLP weights, zero biases."""
    bound = 1.0 / np.sqrt(d)
    user = rng.uniform(-bound, bound, size=(m, d))
    item = rng.uniform(-bound, bound, size=(n, d))
    widths = [2 * d] + [2 * d] * hidden_layers + [1]
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append((rng.uniform(-limit, limit, size=(fan_in, fan_out)),
                       np.zeros(fan_out)))
    return ModelParams(user, item, layers)


@dataclass
class PredictionBatch:
    users: np.ndarray
    items: np.ndarray
    y: np.ndarray  # B, in (0,1)
    activations: list[np.ndarray] = field(repr=False, default_factory=list)  # [0]: B x 2d input


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, bit for bit.

    min(z, -z) is -|z| except that a NaN keeps its sign bit, as in exp(z).
    """
    t = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, t) / (1.0 + t)


def embedding_rows(params: ModelParams, users: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Rows of params.embeddings, interleaved [user_0, item_0, user_1, ...]: taken
    in this order, 2B rows of width d are the B input rows of width 2d."""
    rows = np.empty(2 * len(users), dtype=np.int64)
    rows[0::2] = users
    np.add(items, params.user_embeddings.shape[0], out=rows[1::2])
    return rows


def add_rows(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """np.add.at(table, rows, values) for a 2-D table, as one 1-D np.add.at over
    element indices: each element gets the same additions in the same order. A
    table that cannot be flattened without a copy is a ValueError."""
    d = table.shape[1]
    elements = (np.asarray(rows, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()
    np.add.at(table.reshape(-1, copy=False), elements, np.ravel(values))


def forward(params: ModelParams, users: np.ndarray, items: np.ndarray) -> PredictionBatch:
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    m, n = params.user_embeddings.shape[0], params.item_embeddings.shape[0]
    if len(users) and (users.min() < 0 or users.max() >= m):
        raise IndexError("user id out of range")
    if len(items) and (items.min() < 0 or items.max() >= n):
        raise IndexError("item id out of range")
    # one contiguous gather for both halves; ids are checked above
    x = np.take(params.embeddings, embedding_rows(params, users, items), axis=0, mode="clip")
    act = [x.reshape(len(users), 2 * params.d)]
    for W, b in params.layers[:-1]:
        z = act[-1] @ W
        z += b
        act.append(np.maximum(z, 0.0, out=z))
    W, b = params.layers[-1]
    y = _sigmoid((act[-1] @ W + b)[:, 0])
    return PredictionBatch(users, items, y, act)


def per_sample_loss(y: np.ndarray, labels: np.ndarray, gamma: float = 0.0) -> np.ndarray:
    """Rating loss delta_k = -(1 - p)^gamma log(p + eps) of each sample, where p is
    the predicted probability of the observed label: the log-loss at gamma = 0
    and the focal loss (Lin et al. 2017) above it."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    y = np.asarray(y, dtype=np.float64)
    p = np.where(np.asarray(labels) == 1, y, 1 - y)
    loss = -np.log(p + EPS_LOG)
    if gamma:
        loss *= (1 - p) ** gamma
    return loss


def rec_weights(objective: str, propensities: np.ndarray | None, batch_size: int) -> np.ndarray:
    """Per-sample weights w_k so the rec objective is sum_k w_k * delta_k.

    plain: 1/B; ips: 1/(B P_k); snips: (1/P_k) / sum_j (1/P_j).
    """
    if objective == "plain":
        return np.full(batch_size, 1.0 / batch_size)
    if objective not in ("ips", "snips"):
        raise ValueError(f"unknown rec objective {objective!r}")
    if propensities is None:
        raise ValueError(f"{objective} objective needs propensities")
    p = np.asarray(propensities, dtype=np.float64)
    if not (p > 0).all():  # NaN included
        raise ValueError("propensities must be positive")
    inv = 1.0 / p
    return inv / batch_size if objective == "ips" else inv / inv.sum()


def backward(params: ModelParams, batch: PredictionBatch, labels: np.ndarray,
             weights: np.ndarray, gamma: float = 0.0,
             grads: ModelParams | None = None) -> ModelParams:
    """Exact gradient of sum_k weights_k * delta(y_k, label_k) w.r.t. all params.

    Embedding rows not touched by the batch keep zero gradient. `grads`
    accumulates in place when given (used for the combined objective).
    """
    labels = np.asarray(labels, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    y = batch.y
    dz = y - labels  # d(delta)/dz for the sigmoid output at gamma = 0
    if gamma:
        # (1 - p)^gamma (dz + s gamma p log(p + eps)), s = +1 for label 1 and -1 for
        # label 0; like dz it drops eps from p / (p + eps), so it is finite at y in {0, 1}
        p = np.where(labels == 1, y, 1 - y)
        dz = (1 - p) ** gamma * (dz + (2 * labels - 1) * gamma * p * np.log(p + EPS_LOG))
    delta = (weights * dz)[:, None]  # B x 1, gradient at the output pre-activation

    if grads is None:
        grads = ModelParams.zeros_like(params)
    for li in range(len(params.layers) - 1, -1, -1):
        W, _ = params.layers[li]
        gW, gb = grads.layers[li]
        gW += batch.activations[li].T @ delta
        gb += delta.sum(axis=0)
        delta = delta @ W.T
        if li > 0:
            delta = delta * (batch.activations[li] > 0)
    add_rows(grads.embeddings, embedding_rows(params, batch.users, batch.items),
             delta.reshape(-1, params.d))
    return grads


@dataclass
class AdamState:
    m: ModelParams
    v: ModelParams
    scratch: tuple[np.ndarray, np.ndarray]  # reused by every step, so a step allocates nothing
    t: int = 0

    @staticmethod
    def for_params(params: ModelParams) -> "AdamState":
        return AdamState(ModelParams.zeros_like(params), ModelParams.zeros_like(params),
                         (np.zeros_like(params.flat), np.zeros_like(params.flat)))


_pool: ThreadPoolExecutor | None = None
# a child forked after the first split inherits no pool threads: it starts its own
os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))


def split_map(fn, items: list) -> list:
    """[fn(x) for x in items] in one contiguous share per CPU of the affinity mask:
    the calling thread runs the first, a module-level pool of (CPUs - 1) threads the rest."""
    global _pool
    cpus = len(os.sched_getaffinity(0))
    k = min(len(items), cpus)
    if k < 2:
        return [fn(x) for x in items]
    _pool = _pool or ThreadPoolExecutor(cpus - 1, "cclrec-split")
    shares = [items[len(items) * i // k:len(items) * (i + 1) // k] for i in range(k)]
    futures = [_pool.submit(list, map(fn, share)) for share in shares[1:]]
    try:
        return list(map(fn, shares[0])) + [y for future in futures for y in future.result()]
    finally:
        wait(futures)  # no share outlives the call, even when one raises


def _adam_slices(size: int) -> int:
    """How many contiguous slices one Adam step over `size` elements runs in."""
    return 1 if size < ADAM_SPLIT_MIN else len(os.sched_getaffinity(0))


def _adam_slice(p, g, m, v, s, r, b1, b2, c1, c2, lr, eps, weight_decay) -> None:
    m *= b1
    m += np.multiply(1 - b1, g, out=s)
    v *= b2
    np.multiply(1 - b2, g, out=s)
    v += np.multiply(s, g, out=s)
    if weight_decay:
        p -= np.multiply(lr * weight_decay, p, out=s)
    np.divide(m, c1, out=s)
    np.multiply(lr, s, out=s)
    np.divide(v, c2, out=r)
    np.sqrt(r, out=r)
    r += eps
    p -= np.divide(s, r, out=s)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              lr: float, weight_decay: float = 0.0) -> None:
    """One bias-corrected Adam step with decoupled weight decay (in place).

    The update is p -= lr * (m / c1) / (sqrt(v / c2) + ADAM_EPS), evaluated in
    that order into the state's scratch arrays. A large vector is cut into
    `_adam_slices` contiguous slices, which `split_map` spreads over the CPUs.
    `grads` is only read.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    b1, b2 = ADAM_BETAS
    state.t += 1
    consts = (b1, b2, 1.0 - b1 ** state.t, 1.0 - b2 ** state.t, lr, ADAM_EPS, weight_decay)
    buffers = (params.flat, grads.flat, state.m.flat, state.v.flat, *state.scratch)
    k = _adam_slices(params.flat.size)
    parts = [[a[a.size * i // k:a.size * (i + 1) // k] for a in buffers] for i in range(k)]
    split_map(lambda part: _adam_slice(*part, *consts), parts)


def save_checkpoint(path, params: ModelParams) -> None:
    """JSON header line + row-major float64 payload; bit-exact round trip."""
    header = {
        "m": params.user_embeddings.shape[0],
        "n": params.item_embeddings.shape[0],
        "d": params.d,
        "widths": [W.shape[1] for W, _ in params.layers],
        "activation": "relu",
    }
    with open(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode())
        f.write(params.flat.tobytes())


def load_checkpoint(path) -> ModelParams:
    """Inverse of save_checkpoint; a bad header or payload length is a DataFormatError."""
    with open(Path(path), "rb") as f:
        header_line, raw = f.readline(), f.read()
    try:
        header = json.loads(header_line.decode())
        m, n, d, widths, activation = (header[k] for k in ("m", "n", "d", "widths", "activation"))
        # forward scores the last layer's column 0; type(v) is int turns away JSON's true
        if not (isinstance(widths, list) and widths and widths[-1] == 1
                and all(type(v) is int and v > 0 for v in (m, n, d, *widths))):
            raise ValueError(f"m, n, d {m}, {n}, {d} and widths {widths}: need positive "
                             "ints, and widths to end in 1")
        shapes = [(m, d), (n, d)]
        for fan_in, w in zip([2 * d] + widths[:-1], widths):
            shapes += [(fan_in, w), (w,)]
        size = sum(math.prod(shape) for shape in shapes)
    except (ValueError, KeyError, TypeError) as e:
        raise DataFormatError(f"{path}: bad checkpoint header ({e})") from e
    if activation != "relu":
        raise DataFormatError(f"{path}: checkpoint activation {activation!r}; "
                              "only 'relu' is implemented")
    if len(raw) != 8 * size:
        raise DataFormatError(f"{path}: checkpoint payload is {len(raw)} bytes, "
                              f"its header needs {8 * size}")
    return ModelParams.over(np.frombuffer(raw, dtype=np.float64).copy(), shapes)
