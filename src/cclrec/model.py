"""Embedding + MLP predictor with exact hand-written gradients.

Architecture: user/item embedding lookups, concatenation, a stack of
ReLU hidden layers (width 2d) and a 1-unit sigmoid output. Everything is
float64 and deterministic; gradients are exact reverse-mode derivatives
verified against finite differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cclrec.data import DataFormatError

EPS_LOG = 1e-12


@dataclass
class ModelParams:
    """Arrays shaped like the model: its parameters, their gradients, or Adam's moments."""
    user_embeddings: np.ndarray  # m x d
    item_embeddings: np.ndarray  # n x d
    layers: list[tuple[np.ndarray, np.ndarray]]  # (W in x out, b out), last out=1

    @property
    def d(self) -> int:
        return self.user_embeddings.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.user_embeddings.copy(), self.item_embeddings.copy(),
                           [(W.copy(), b.copy()) for W, b in self.layers])

    @staticmethod
    def zeros_like(params: "ModelParams") -> "ModelParams":
        return ModelParams(np.zeros_like(params.user_embeddings),
                           np.zeros_like(params.item_embeddings),
                           [(np.zeros_like(W), np.zeros_like(b)) for W, b in params.layers])

    def flat_arrays(self) -> list[np.ndarray]:
        out = [self.user_embeddings, self.item_embeddings]
        for W, b in self.layers:
            out.extend([W, b])
        return out

    def assert_finite(self) -> None:
        for a in self.flat_arrays():
            if not np.isfinite(a).all():
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
    pre_activations: list[np.ndarray] = field(repr=False, default_factory=list)
    activations: list[np.ndarray] = field(repr=False, default_factory=list)  # [0]: B x 2d input


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward(params: ModelParams, users: np.ndarray, items: np.ndarray) -> PredictionBatch:
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    m = params.user_embeddings.shape[0]
    n = params.item_embeddings.shape[0]
    if len(users) and (users.min() < 0 or users.max() >= m):
        raise IndexError("user id out of range")
    if len(items) and (items.min() < 0 or items.max() >= n):
        raise IndexError("item id out of range")
    x = np.hstack([params.user_embeddings[users], params.item_embeddings[items]])
    pre, act = [], [x]
    for li, (W, b) in enumerate(params.layers):
        z = act[-1] @ W + b
        pre.append(z)
        if li < len(params.layers) - 1:
            act.append(np.maximum(z, 0.0))
    y = _sigmoid(pre[-1][:, 0])
    return PredictionBatch(users, items, y, pre, act)


def log_loss_per_sample(y: np.ndarray, labels: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return -(labels * np.log(y + EPS_LOG) + (1 - labels) * np.log(1 - y + EPS_LOG))


def focal_loss_per_sample(y: np.ndarray, labels: np.ndarray, gamma: float) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return -(labels * (1 - y) ** gamma * np.log(y + EPS_LOG)
             + (1 - labels) * y ** gamma * np.log(1 - y + EPS_LOG))


def per_sample_loss(y: np.ndarray, labels: np.ndarray, loss_kind: str = "log",
                    gamma: float = 0.0) -> np.ndarray:
    """Rating loss delta_k of each sample: log-loss, or focal loss with focus gamma."""
    if loss_kind == "log":
        return log_loss_per_sample(y, labels)
    if loss_kind != "focal":
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    return focal_loss_per_sample(y, labels, gamma)


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
    if (p <= 0).any():
        raise ValueError("propensities must be positive")
    inv = 1.0 / p
    return inv / batch_size if objective == "ips" else inv / inv.sum()


def ips_loss(per_sample_losses: np.ndarray, propensities: np.ndarray) -> float:
    """Mean of delta_k / P_k over observed samples."""
    weights = rec_weights("ips", propensities, len(propensities))
    return float((weights * np.asarray(per_sample_losses)).sum())


def snips_loss(per_sample_losses: np.ndarray, propensities: np.ndarray) -> float:
    """Self-normalized IPS: (sum delta/P) / (sum 1/P); invariant under P -> cP."""
    weights = rec_weights("snips", propensities, len(propensities))
    return float((weights * np.asarray(per_sample_losses)).sum())


def backward(params: ModelParams, batch: PredictionBatch, labels: np.ndarray,
             weights: np.ndarray, loss_kind: str = "log", gamma: float = 0.0,
             grads: ModelParams | None = None) -> ModelParams:
    """Exact gradient of sum_k weights_k * delta(y_k, label_k) w.r.t. all params.

    Embedding rows not touched by the batch keep zero gradient. `grads`
    accumulates in place when given (used for the combined objective).
    """
    labels = np.asarray(labels, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    y = batch.y
    if loss_kind == "log":
        dz = y - labels  # d(logloss)/dz for the sigmoid output
    elif loss_kind == "focal":
        d_dy = np.where(
            labels == 1,
            gamma * (1 - y) ** (gamma - 1) * np.log(y + EPS_LOG) - (1 - y) ** gamma / (y + EPS_LOG),
            -gamma * y ** (gamma - 1) * np.log(1 - y + EPS_LOG) + y ** gamma / (1 - y + EPS_LOG),
        )
        dz = d_dy * y * (1 - y)
    else:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
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
            delta = delta * (batch.pre_activations[li - 1] > 0)
    d = params.d
    np.add.at(grads.user_embeddings, batch.users, delta[:, :d])
    np.add.at(grads.item_embeddings, batch.items, delta[:, d:])
    return grads


@dataclass
class AdamState:
    m: ModelParams
    v: ModelParams
    scratch: tuple[ModelParams, ModelParams]  # reused by every step, so a step allocates nothing
    t: int = 0

    @staticmethod
    def for_params(params: ModelParams) -> "AdamState":
        return AdamState(ModelParams.zeros_like(params), ModelParams.zeros_like(params),
                         (ModelParams.zeros_like(params), ModelParams.zeros_like(params)))


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              lr: float, betas: tuple[float, float] = (0.9, 0.999),
              eps: float = 1e-8, weight_decay: float = 0.0) -> None:
    """One bias-corrected Adam step with decoupled weight decay (in place).

    The update is p -= lr * (m / c1) / (sqrt(v / c2) + eps), evaluated in
    that order into the state's scratch arrays.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    b1, b2 = betas
    state.t += 1
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, g, m, v, s, r in zip(params.flat_arrays(), grads.flat_arrays(),
                                state.m.flat_arrays(), state.v.flat_arrays(),
                                state.scratch[0].flat_arrays(), state.scratch[1].flat_arrays()):
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
        for a in params.flat_arrays():
            f.write(np.ascontiguousarray(a, dtype=np.float64).tobytes())


def load_checkpoint(path) -> ModelParams:
    """Inverse of save_checkpoint; a bad header or payload length is a DataFormatError."""
    with open(Path(path), "rb") as f:
        header_line, raw = f.readline(), f.read()
    try:
        header = json.loads(header_line.decode())
        m, n, d, widths, activation = (header[k] for k in ("m", "n", "d", "widths", "activation"))
        shapes = [(m, d), (n, d)]
        for fan_in, w in zip([2 * d] + widths[:-1], widths):
            shapes += [(fan_in, w), (w,)]
        sizes = [int(np.prod(shape)) for shape in shapes]
    except (ValueError, KeyError, TypeError) as e:
        raise DataFormatError(f"{path}: bad checkpoint header ({e})") from e
    if activation != "relu":
        raise DataFormatError(f"{path}: checkpoint activation {activation!r}; "
                              "only 'relu' is implemented")
    if len(raw) != 8 * sum(sizes):
        raise DataFormatError(f"{path}: checkpoint payload is {len(raw)} bytes, "
                              f"its header needs {8 * sum(sizes)}")
    chunks = np.split(np.frombuffer(raw, dtype=np.float64), np.cumsum(sizes)[:-1])
    arrays = [chunk.reshape(shape).copy() for chunk, shape in zip(chunks, shapes)]
    return ModelParams(arrays[0], arrays[1], list(zip(arrays[2::2], arrays[3::2])))
