"""Synthetic exposure-bias generator with known ground truth.

A per-item latent confounder drives both which items get exposed
(train split, skew controlled by beta) and the outcome probabilities,
while the test split is exposed uniformly at random. Ground-truth
preference probabilities and the exposure distribution are kept alongside
the data so debiasing can be verified directly.

The confounder is drawn from a bounded uniform range so that even the
least-exposed items keep a handful of training observations (matching the
density of the real benchmark data, where every item is rated by some
users); the exposure ratio between the most- and least-exposed items is
still about 20:1 at the default skew. User latents carry a positive mean
so items differ in an average quality the model can learn.

Each item's probability of landing in a user's train split, the oracle
propensity of the IPS arms, is computed exactly by
`inclusion_probabilities` as an exponential-race integral, to about 1e-14,
with no random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from cclrec.data import DatasetBundle, ExposureMatrix, InteractionTable

LATENT_DIM = 8
LATENT_SCALE = 0.8  # per-vector norm scale of the latents
USER_LATENT_MEAN = 1.2  # positive shift giving items a mean quality
CONFOUNDER_HALF_RANGE = 0.5  # z ~ Uniform(-r, r)
CONFOUNDER_OUTCOME_WEIGHT = 1.0  # confounder -> outcome path


@dataclass
class SimConfig:
    """The settings `cclrec simulate` has a flag for; the rest are the constants above."""

    m: int = 500
    n: int = 100
    exposure_skew: float = 3.0  # strength of confounder -> exposure
    exposures_per_user: int = 20
    test_exposures_per_user: int = 10
    seed: int = 0

    def validate(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m and n must be >= 1, got {self.m} x {self.n}")
        if not (math.isfinite(self.exposure_skew) and self.exposure_skew >= 0):
            raise ValueError(f"exposure_skew must be finite and >= 0, got {self.exposure_skew}")
        with np.errstate(over="ignore"):  # the largest sum of the exposure weights exp(skew * z)
            weight_sum_bound = self.n * np.exp(self.exposure_skew * CONFOUNDER_HALF_RANGE)
        if not np.isfinite(weight_sum_bound):
            raise ValueError(f"exposure_skew {self.exposure_skew} overflows the exposure "
                             f"weights of {self.n} items")
        for name in ("exposures_per_user", "test_exposures_per_user"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.exposures_per_user + self.test_exposures_per_user > self.n:
            raise ValueError("per-user exposure counts exceed item count")


@dataclass
class SyntheticBundle:
    dataset: DatasetBundle
    true_preference: np.ndarray  # m x n probability matrix
    exposure_weights: np.ndarray  # length n, per-draw softmax weights
    inclusion_probs: np.ndarray  # length n, P(item in a user's train split)
    confounder: np.ndarray  # length n latent scores


_BLOCK = 1000  # rows per block; the draw keeps O(block x n) floats alive


def _check_weights(w: np.ndarray, k: int) -> None:
    if not (np.isfinite(w).all() and np.isfinite(w.sum())) or (w < 0).any():
        raise ValueError("weights must be finite and non-negative")
    if np.count_nonzero(w) < k:
        raise ValueError(f"{k} draws need at least {k} positive weights, "
                         f"got {np.count_nonzero(w)}")


def _draw_without_replacement(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Weighted draws without replacement, one row of picks per row of uniforms.

    Step j of row r picks what ``Generator.choice(n, p=w / w.sum())`` picks
    when its uniform is ``uniforms[r, j]``, with the weights of earlier picks
    zeroed, so feeding it the doubles that k sequential ``choice`` calls
    would read reproduces those calls exactly.
    """
    w = np.asarray(weights, dtype=np.float64)
    rows, k = uniforms.shape
    _check_weights(w, k)
    picks = np.empty((rows, k), dtype=np.int64)
    for lo in range(0, rows, _BLOCK):
        u, out = uniforms[lo:lo + _BLOCK], picks[lo:lo + _BLOCK]
        wb = np.tile(w, (len(u), 1))
        for j in range(k):
            cdf = np.cumsum(wb / wb.sum(axis=1, keepdims=True), axis=1)
            cdf /= cdf[:, -1:]
            out[:, j] = np.count_nonzero(cdf <= u[:, j, None], axis=1)  # searchsorted, side="right"
            np.put_along_axis(wb, out[:, j, None], 0.0, axis=1)
    return picks


# The quadrature of inclusion_probabilities. Its nodes follow the weights;
# these constants only fix how finely.
_GL_NODES = 16  # Gauss-Legendre nodes per panel
_PANEL_FALLS = 5.0  # a panel spans at most this many widths of the CDF's fall
_TAIL = 1e-17  # bound on the part of each integral left outside the panels
_BISECTIONS = 50  # halvings of a log-t bracket at most ~800 wide
_PASS_FLOATS = 1 << 17  # prefix pmfs held per pass: n x nodes x k floats (1 MiB)
_LOG_A_CAP = 7.0  # w t is capped at e^7: e^(-w t) is already 0 from w t = 745


def _gauss_legendre(g: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the g-point rule on [-1, 1], by Newton's method on
    the Legendre recurrence (np.polynomial.legendre.leggauss calls LAPACK)."""
    x = -np.cos(np.pi * (np.arange(g) + 0.75) / (g + 0.5))  # ascending
    for _ in range(10):
        prev, cur = np.ones_like(x), x
        for j in range(2, g + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
        slope = g * (x * cur - prev) / (x * x - 1)  # P_g'(x)
        x = x - cur / slope
    return x, 2 / ((1 - x * x) * slope * slope)


_GL_X, _GL_W = _gauss_legendre(_GL_NODES)


def _quadrature_limits(log_w: np.ndarray, k: int) -> tuple[float, float, float]:
    """x_lo, x_tau and x_hi in x = log t, for the log weights of the positive items.

    Union bounds over the k arrivals and the r = n - k misses give
    P(N(t) >= k) <= mu^k / k! and P(N(t) <= k) <= (sum_j e^(-w_j t))^r / r!,
    with mu = sum_j (1 - e^(-w_j t)). x_lo is where the first bound reaches
    _TAIL, x_hi where the second does, and x_tau where mu = k.
    """
    n = len(log_w)
    r = n - k
    mu_lo = math.exp((math.log(_TAIL) + math.lgamma(k + 1)) / k)
    miss_hi = math.exp((math.log(_TAIL) + math.lgamma(r + 1)) / r)
    lo = np.full(3, math.log(mu_lo / n) - log_w.max())  # there mu <= n max_j w_j t = mu_lo
    hi = np.full(3, math.log(math.log(n / miss_hi)) - log_w.min())  # there each miss <= miss_hi / n
    for _ in range(_BISECTIONS):
        mid = (lo + hi) / 2
        a = np.exp(np.minimum(mid[:, None] + log_w, _LOG_A_CAP))
        past = np.array([-np.expm1(-a[0]).sum() >= mu_lo, -np.expm1(-a[1]).sum() >= k,
                         np.exp(-a[2]).sum() <= miss_hi])
        hi = np.where(past, mid, hi)
        lo = np.where(past, lo, mid)
    return lo[0], (lo[1] + hi[1]) / 2, hi[2]


def inclusion_probabilities(weights: np.ndarray, k: int) -> np.ndarray:
    """P(item i is among k weighted draws without replacement), computed exactly.

    Successive sampling is an exponential race (Efraimidis & Spirakis 2006):
    item j arrives at an Exp(w_j) time and the first k arrivals are drawn, so

        pi_i = int_0^inf w_i e^(-w_i t) P(N_-i(t) <= k - 1) dt,

    where N_-i(t), the number of other items arrived by t, is Poisson-binomial
    in p_j = 1 - e^(-w_j t). Its leave-one-out CDF combines the prefix pmfs
    of items < i with a running suffix CDF of items > i, all truncated at k.
    The integral runs over x = log t on equal Gauss-Legendre panels between
    _quadrature_limits' x_lo and x_hi. A panel is at most 1 wide, the width
    of each item's bump w t e^(-w t), and at most _PANEL_FALLS times
    sigma(N) / (d mu / dx) at x_tau, the width of the CDF's fall. Below x_lo
    the CDF is 1 to within _TAIL and the integral is 1 - e^(-w_i t_lo); above
    x_hi it is below _TAIL. Every sum is element-wise, so no byte depends on
    the BLAS thread count.
    """
    w = np.asarray(weights, dtype=np.float64)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    _check_weights(w, k)
    if k == 0:
        return np.zeros(len(w))
    positive = w > 0
    pi = positive.astype(np.float64)  # k draws of k positive weights take every one
    if k < np.count_nonzero(w):
        pi[positive] = _positive_inclusion(np.log(w[positive]), k)
    return pi


def _positive_inclusion(log_w: np.ndarray, k: int) -> np.ndarray:
    n = len(log_w)
    x_lo, x_tau, x_hi = _quadrature_limits(log_w, k)
    a = np.exp(np.minimum(x_tau + log_w, _LOG_A_CAP))
    miss = np.exp(-a)
    spread, slope = math.sqrt((miss * -np.expm1(-a)).sum()), (a * miss).sum()
    width = _PANEL_FALLS * spread / slope if _PANEL_FALLS * spread < slope else 1.0
    panels = math.ceil((x_hi - x_lo) / width)
    h = (x_hi - x_lo) / panels
    x = (x_lo + h * (np.arange(panels)[:, None] + (_GL_X + 1) / 2)).ravel()
    dx = np.tile(_GL_W * h / 2, panels)

    pi = -np.expm1(-np.exp(x_lo + log_w))  # the integral up to t_lo
    chunk = max(1, _PASS_FLOATS // (n * k))
    prefix = np.empty((n, min(chunk, len(x)), k))
    leave_one_out = np.empty((n, prefix.shape[1]))
    for lo in range(0, len(x), chunk):
        m = min(chunk, len(x) - lo)
        a = np.exp(np.minimum(log_w[:, None] + x[lo:lo + chunk], _LOG_A_CAP))  # w_j t
        miss = np.exp(-a)  # not 1 - p: that loses e^(-w t) where w t is large
        arrive = -np.expm1(-a)
        pre, cdf = prefix[:, :m], leave_one_out[:, :m]
        pre[0] = 0.0
        pre[0, :, 0] = 1.0
        for j in range(n - 1):  # pmf of the arrivals among items < j + 1
            np.multiply(pre[j], miss[j, :, None], out=pre[j + 1])
            pre[j + 1, :, 1:] += pre[j, :, :-1] * arrive[j, :, None]
        suffix = np.ones((m, k))  # CDF of the arrivals among items > j
        for j in range(n - 1, -1, -1):
            cdf[j] = (pre[j] * suffix[:, ::-1]).sum(axis=1)
            step = suffix * miss[j, :, None]
            step[:, 1:] += suffix[:, :-1] * arrive[j, :, None]
            suffix = step
        pi += (dx[lo:lo + m] * a * miss * cdf).sum(axis=1)
    return pi


def generate(config: SimConfig, inclusion_draws: Optional[int] = None) -> SyntheticBundle:
    """Draw a full biased-train / uniform-test bundle; deterministic per seed.

    Per user, in order: k weighted train draws, t test items uniform over the
    rest of the items, then a label for each train and each test item. The
    loop only reads the random numbers; picks and labels are array work.
    `inclusion_probs` is exact (`inclusion_probabilities`).
    """
    # inclusion_draws is ignored. bench/bench_workloads.py and bench/test_bench_checks.py
    # still pass it; the benchmark's next revision drops it there, then here.
    config.validate()
    rng = np.random.default_rng(config.seed)
    m, n = config.m, config.n
    k, t = config.exposures_per_user, config.test_exposures_per_user
    scale = LATENT_SCALE / np.sqrt(LATENT_DIM)
    shift = USER_LATENT_MEAN / np.sqrt(LATENT_DIM)
    u_lat = rng.normal(shift, scale, size=(m, LATENT_DIM))
    i_lat = rng.normal(0.0, 1.0, size=(n, LATENT_DIM)) * scale
    z = rng.uniform(-CONFOUNDER_HALF_RANGE, CONFOUNDER_HALF_RANGE, size=n)
    logits = u_lat @ i_lat.T + CONFOUNDER_OUTCOME_WEIGHT * z[None, :]
    pref = 1.0 / (1.0 + np.exp(-logits))

    weights = np.exp(config.exposure_skew * z)
    weights /= weights.sum()
    positive = np.count_nonzero(weights)  # exp(skew * z) / sum underflows to 0 at a large skew
    if positive < k:
        raise ValueError(f"exposure_skew {config.exposure_skew} leaves {positive} of {n} items "
                         f"a positive exposure weight; {k} train draws per user need {k}")

    train_uniforms = np.empty((m, k))
    test_picks = np.empty((m, t), dtype=np.int64)  # positions in the user's sorted rest:
    # choice(n - k, ...) reads what choice(rest, ...) read, and rest[pos] is its pick
    label_uniforms = np.empty((m, k + t))
    for u in range(m):
        train_uniforms[u] = rng.random(k)
        test_picks[u] = rng.choice(n - k, size=t, replace=False)
        label_uniforms[u] = rng.random(k + t)

    chosen = np.empty((m, k + t), dtype=np.int64)  # train items, then test items
    for lo in range(0, m, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        train_items = _draw_without_replacement(weights, train_uniforms[block])
        unexposed = np.ones((len(train_items), n), dtype=bool)
        np.put_along_axis(unexposed, train_items, False, axis=1)
        rest = np.nonzero(unexposed)[1].reshape(len(train_items), n - k)  # sorted per user
        chosen[block, :k] = train_items
        chosen[block, k:] = np.take_along_axis(rest, test_picks[block], axis=1)
    labels = label_uniforms < np.take_along_axis(pref, chosen, axis=1)
    ratings = labels.astype(np.int64) * 4 + 1  # 5 = positive, 1 = negative

    train = InteractionTable.from_lists(np.repeat(np.arange(m), k),
                                        chosen[:, :k].ravel(), ratings[:, :k].ravel())
    test = InteractionTable.from_lists(np.repeat(np.arange(m), t),
                                       chosen[:, k:].ravel(), ratings[:, k:].ravel())
    bundle = DatasetBundle(m=m, n=n, train=train, test=test,
                           exposure=ExposureMatrix(m, n, train))
    return SyntheticBundle(bundle, pref, weights, inclusion_probabilities(weights, k), z)


def save_bundle(synth: SyntheticBundle, directory) -> None:
    """Write triple files the dataset loader reads, plus the ground truth."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, table in (("train.txt", synth.dataset.train), ("test.txt", synth.dataset.test)):
        rows = np.column_stack([table.users, table.items, table.ratings])
        (directory / name).write_text(("%d %d %d\n" * len(rows)) % tuple(rows.ravel().tolist()))
    np.savez(directory / "ground_truth.npz",
             true_preference=synth.true_preference,
             exposure_weights=synth.exposure_weights,
             inclusion_probs=synth.inclusion_probs,
             confounder=synth.confounder)
