import json
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from cclrec import model as M
from cclrec.data import DataFormatError


@pytest.fixture
def small_params():
    rng = np.random.default_rng(42)
    return M.init_params(m=4, n=4, d=4, hidden_layers=1, rng=rng)


def finite_diff_grads(loss_fn, params, h=1e-5):
    """Central finite differences over every parameter."""
    grads = M.ModelParams.zeros_like(params)
    for p_arr, g_arr in zip(params.flat_arrays(), grads.flat_arrays()):
        it = np.nditer(p_arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p_arr[ix]
            p_arr[ix] = orig + h
            lp = loss_fn(params)
            p_arr[ix] = orig - h
            lm = loss_fn(params)
            p_arr[ix] = orig
            g_arr[ix] = (lp - lm) / (2 * h)
    return grads


def max_rel_error(analytic: M.ModelParams, numeric: M.ModelParams) -> float:
    worst = 0.0
    for a, b in zip(analytic.flat_arrays(), numeric.flat_arrays()):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst


class TestForward:
    def test_zero_weights_give_half(self, small_params):
        for W, b in small_params.layers:
            W[:] = 0.0
            b[:] = 0.0
        out = M.forward(small_params, np.array([0, 1]), np.array([2, 3]))
        np.testing.assert_allclose(out.y, [0.5, 0.5])

    def test_hand_computed_single_linear_layer(self):
        # d=1, one linear layer w=[1,1], b=0, h_u=0.3, h_i=-0.3 -> sigmoid(0)
        params = M.ModelParams(np.array([[0.3]]), np.array([[-0.3]]),
                               [(np.array([[1.0], [1.0]]), np.zeros(1))])
        out = M.forward(params, np.array([0]), np.array([0]))
        assert out.y[0] == pytest.approx(0.5)

    def test_permutation_equivariance(self, small_params):
        users = np.array([0, 1, 2, 3])
        items = np.array([3, 2, 1, 0])
        out = M.forward(small_params, users, items)
        perm = np.array([2, 0, 3, 1])
        out_p = M.forward(small_params, users[perm], items[perm])
        np.testing.assert_allclose(out_p.y, out.y[perm])

    def test_out_of_range_ids(self, small_params):
        with pytest.raises(IndexError):
            M.forward(small_params, np.array([9]), np.array([0]))
        with pytest.raises(IndexError):
            M.forward(small_params, np.array([0]), np.array([-1]))

    def test_output_strictly_interior(self, small_params):
        out = M.forward(small_params, np.arange(4), np.arange(4))
        assert ((out.y > 0) & (out.y < 1)).all()

    @pytest.mark.parametrize("rows", [0, 1, 7, 512])
    def test_input_rows_are_the_two_gathers_side_by_side(self, rows):
        rng = np.random.default_rng(rows)
        params = M.init_params(30, 20, 4, 1, rng)
        users, items = rng.integers(0, 30, rows), rng.integers(0, 20, rows)
        want = np.hstack([params.user_embeddings[users], params.item_embeddings[items]])
        x = M.forward(params, users, items).activations[0]
        assert x.shape == (rows, 8) and np.array_equal(x, want)


def two_branch_sigmoid(z):
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0,
                 np.inf, -np.inf, np.nan, -np.nan]


class TestSigmoid:
    @pytest.mark.parametrize("z", SIGMOID_EDGES)
    @pytest.mark.parametrize("length", [1, 3, 8, 17])  # SIMD tails and full lanes
    def test_each_edge_equals_two_branches_bit_for_bit(self, z, length):
        x = np.full(length, z)
        assert np.array_equal(M._sigmoid(x).view(np.uint64), two_branch_sigmoid(x).view(np.uint64))

    def test_mixed_values_equal_two_branches_bit_for_bit(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([SIGMOID_EDGES, Z_GRID, rng.normal(scale=20, size=5000)])
        x = x[rng.permutation(len(x))]
        assert np.array_equal(M._sigmoid(x).view(np.uint64), two_branch_sigmoid(x).view(np.uint64))


def mean_loss(y, labels, gamma=0.0):
    """The batch-mean rating loss, as the validation loss computes it."""
    return M.per_sample_loss(np.asarray(y), np.asarray(labels), gamma).mean()


# references for per_sample_loss and backward: the log-loss and the focal loss
# as two separate formulas, and the log-loss gradient at the output
def log_loss_per_sample(y, labels):
    y = np.asarray(y, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return -(labels * np.log(y + M.EPS_LOG) + (1 - labels) * np.log(1 - y + M.EPS_LOG))


def focal_loss_per_sample(y, labels, gamma):
    y = np.asarray(y, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return -(labels * (1 - y) ** gamma * np.log(y + M.EPS_LOG)
             + (1 - labels) * y ** gamma * np.log(1 - y + M.EPS_LOG))


def log_loss_dz(y, labels):
    return np.asarray(y, dtype=np.float64) - np.asarray(labels, dtype=np.float64)


def output_dz(y, labels, gamma=0.0):
    """backward's gradient at the output pre-activation for each (y, label), one
    weight-1 sample at a time: it is the gradient of the output bias."""
    params = M.init_params(1, 1, 1, 0, np.random.default_rng(0))
    out = []
    for y_k, label in zip(y, labels):
        batch = M.forward(params, np.array([0]), np.array([0]))
        batch.y = np.array([y_k])
        out.append(M.backward(params, batch, np.array([label]), np.ones(1), gamma).layers[-1][1][0])
    return np.array(out)


# every z from -40 to 40 in steps of 0.5, and sigmoids that round to 1 (37),
# reach the subnormals (-745) or underflow to 0 (-800)
Z_GRID = np.concatenate([np.arange(-40, 40.5, 0.5), [-800, -745, -37, 37, 745, 800]])


class TestLosses:
    def test_log_loss_half(self):
        assert mean_loss([0.5], [1]) == pytest.approx(np.log(2), abs=1e-9)

    def test_log_loss_limit(self):
        assert mean_loss([1 - 1e-9], [1]) < 1e-6

    def test_log_loss_symmetry_at_half(self):
        a = mean_loss([0.5], [0])
        b = mean_loss([0.5], [1])
        assert a == pytest.approx(b)

    def test_focal_reduces_to_log(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0.05, 0.95, 20)
        labels = rng.integers(0, 2, 20)
        assert mean_loss(y, labels, 0.0) == pytest.approx(
            log_loss_per_sample(y, labels).mean(), abs=1e-12)

    def test_focal_hand_value(self):
        got = mean_loss([0.5], [1], gamma=2.0)
        assert got == pytest.approx(0.25 * np.log(2), abs=1e-9)

    def test_focal_downweights_easy_samples(self):
        easy = mean_loss([0.9], [1], 2.0) / mean_loss([0.9], [1])
        hard = mean_loss([0.1], [1], 2.0) / mean_loss([0.1], [1])
        assert easy < hard

    def test_focal_negative_gamma(self):
        with pytest.raises(ValueError):
            mean_loss([0.5], [1], -1.0)

    @pytest.mark.parametrize("label", [0, 1])
    def test_log_loss_and_its_gradient_equal_the_reference(self, label):
        y = M._sigmoid(Z_GRID)
        labels = np.full(len(y), label)
        assert np.array_equal(M.per_sample_loss(y, labels), log_loss_per_sample(y, labels))
        assert np.array_equal(output_dz(y, labels), log_loss_dz(y, labels))

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_focal_loss_equals_the_reference(self, gamma):
        # the reference weighs label 0 by y^gamma, this loss by (1 - (1 - y))^gamma:
        # equal to rtol 1e-12 while y keeps its digits through 1 - y, y in [0.01, 0.99]
        rng = np.random.default_rng(2)
        y = np.concatenate([np.linspace(0.01, 0.99, 99), rng.uniform(0.01, 0.99, 200)])
        for label in (0, 1):
            labels = np.full(len(y), label)
            np.testing.assert_allclose(M.per_sample_loss(y, labels, gamma),
                                       focal_loss_per_sample(y, labels, gamma), rtol=1e-12)


def ips_loss(per_sample_losses, propensities):
    """Mean of delta_k / P_k over observed samples, through the trainer's weights."""
    weights = M.rec_weights("ips", propensities, len(propensities))
    return float((weights * np.asarray(per_sample_losses)).sum())


def snips_loss(per_sample_losses, propensities):
    """(sum delta/P) / (sum 1/P), through the trainer's weights."""
    weights = M.rec_weights("snips", propensities, len(propensities))
    return float((weights * np.asarray(per_sample_losses)).sum())


class TestIPSAndSNIPS:
    def test_ips_hand_value(self):
        assert ips_loss([0.6], [0.5]) == pytest.approx(1.2)

    def test_ips_unit_propensity_is_mean(self):
        losses = np.array([0.2, 0.4, 0.9])
        assert ips_loss(losses, np.ones(3)) == pytest.approx(losses.mean())

    def test_ips_scales_inversely(self):
        losses = np.array([0.3, 0.7])
        p = np.array([0.4, 0.8])
        assert ips_loss(losses, 0.5 * p) == pytest.approx(2 * ips_loss(losses, p))

    def test_ips_zero_propensity(self):
        with pytest.raises(ValueError):
            ips_loss([0.5], [0.0])

    def test_snips_single_sample(self):
        assert snips_loss([0.6], [0.123]) == pytest.approx(0.6)

    def test_snips_hand_value(self):
        assert snips_loss([1.0, 0.0], [0.5, 1.0]) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("c", [0.1, 2.0, 10.0])
    def test_snips_scale_invariant(self, c):
        rng = np.random.default_rng(1)
        losses = rng.uniform(0, 1, 10)
        p = rng.uniform(0.1, 1, 10)
        assert snips_loss(losses, c * p) == pytest.approx(
            snips_loss(losses, p), abs=1e-12)


class TestRecWeights:
    def test_ips_and_snips_wrappers_use_the_weights(self):
        losses = np.array([0.3, 0.7, 0.2])
        p = np.array([0.4, 0.8, 0.5])
        assert ips_loss(losses, p) == float((M.rec_weights("ips", p, 3) * losses).sum())
        assert snips_loss(losses, p) == float((M.rec_weights("snips", p, 3) * losses).sum())
        assert M.rec_weights("plain", None, 4).tolist() == [0.25] * 4

    @pytest.mark.parametrize("objective", ["log", "focal", "dr"])
    def test_rejects_loss_kinds_and_unknown_objectives(self, objective):
        with pytest.raises(ValueError, match="unknown rec objective"):
            M.rec_weights(objective, np.ones(2), 2)

    @pytest.mark.parametrize("objective", ["ips", "snips"])
    def test_rejects_non_positive_propensities(self, objective):
        with pytest.raises(ValueError, match="positive"):
            M.rec_weights(objective, np.array([0.5, 0.0]), 2)

    @pytest.mark.parametrize("objective", ["ips", "snips"])
    def test_rejects_a_nan_propensity(self, objective):
        # NaN <= 0 is False, so a check written that way let [nan, 1.] through
        with pytest.raises(ValueError, match="positive"):
            M.rec_weights(objective, np.array([np.nan, 0.5]), 2)

    def test_per_sample_loss_dispatch(self):
        y, labels = np.array([0.2, 0.9]), np.array([1, 0])
        assert M.per_sample_loss(y, labels).tolist() == log_loss_per_sample(y, labels).tolist()
        np.testing.assert_allclose(M.per_sample_loss(y, labels, 2.0),
                                   focal_loss_per_sample(y, labels, 2.0), rtol=1e-12)
        assert M.per_sample_loss(y, labels).mean() == float(log_loss_per_sample(y, labels).mean())
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            M.per_sample_loss(y, labels, -0.5)


class TestBackward:
    @pytest.mark.parametrize("loss_kind", ["plain", "ips", "snips", "hinge"])
    def test_rejects_anything_but_log_and_focal(self, loss_kind):
        # the one loss is selected by gamma alone: a loss-kind string where the
        # old signature took one fails loudly instead of training some loss
        params = M.init_params(2, 2, 2, 1, np.random.default_rng(0))
        batch = M.forward(params, np.array([0]), np.array([1]))
        with pytest.raises(TypeError):
            M.backward(params, batch, np.array([1.0]), np.array([1.0]), loss_kind)

    @pytest.mark.parametrize("gamma", [pytest.param(0.0, id="log-0.0"),
                                       pytest.param(0.5, id="focal-0.5"),
                                       pytest.param(2.0, id="focal-2.0")])
    def test_matches_finite_differences(self, gamma):
        rng = np.random.default_rng(7)
        params = M.init_params(4, 4, 4, 1, rng)
        users = rng.integers(0, 4, 6)
        items = rng.integers(0, 4, 6)
        labels = rng.integers(0, 2, 6).astype(float)
        weights = rng.uniform(0.05, 0.4, 6)

        def loss_fn(p):
            out = M.forward(p, users, items)
            return float((weights * focal_loss_per_sample(out.y, labels, gamma)).sum())

        batch = M.forward(params, users, items)
        analytic = M.backward(params, batch, labels, weights, gamma)
        numeric = finite_diff_grads(loss_fn, params)
        assert max_rel_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("y", [0.0, 1.0])
    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_finite_at_a_saturated_output(self, gamma, y, label):
        params = M.init_params(2, 2, 2, 1, np.random.default_rng(0))
        batch = M.forward(params, np.array([0]), np.array([1]))
        batch.y = np.array([y])
        with np.errstate(all="raise"):
            grads = M.backward(params, batch, np.array([label]), np.ones(1), gamma)
        assert np.isfinite(grads.flat).all()

    def test_zero_weight_sample_contributes_nothing(self):
        rng = np.random.default_rng(3)
        params = M.init_params(4, 4, 4, 1, rng)
        users = np.array([0, 1])
        items = np.array([0, 1])
        labels = np.array([1.0, 0.0])
        batch = M.forward(params, users, items)
        g_both = M.backward(params, batch, labels, np.array([0.5, 0.0]))
        batch_one = M.forward(params, users[:1], items[:1])
        g_one = M.backward(params, batch_one, labels[:1], np.array([0.5]))
        for a, b in zip(g_both.flat_arrays(), g_one.flat_arrays()):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_untouched_embedding_rows_zero(self, small_params):
        batch = M.forward(small_params, np.array([1]), np.array([2]))
        g = M.backward(small_params, batch, np.array([1.0]), np.array([1.0]))
        assert (g.user_embeddings[0] == 0).all()
        assert (g.user_embeddings[2:] == 0).all()
        assert (g.item_embeddings[0] == 0).all() and (g.item_embeddings[3] == 0).all()

    def test_output_gradient_identity(self):
        # d(mean logloss)/dz = (y - label) / batch_size at the pre-sigmoid output
        rng = np.random.default_rng(5)
        params = M.init_params(3, 3, 2, 0, rng)
        users = np.array([0, 1, 2])
        items = np.array([0, 1, 2])
        labels = np.array([1.0, 0.0, 1.0])
        batch = M.forward(params, users, items)
        g = M.backward(params, batch, labels, np.full(3, 1 / 3))
        expected_dz = (batch.y - labels) / 3
        # the output bias gradient is the summed dz
        np.testing.assert_allclose(g.layers[-1][1], expected_dz.sum(), rtol=1e-12)


class TestAddRows:
    """add_rows against 2-D np.add.at, bit for bit: the additions, in their order."""

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_two_dimensional_add_at(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 6, 400)  # 6 rows: every row many times over
        # magnitudes from 1e-8 to 1e16, so another order of additions rounds differently
        values = rng.normal(size=(400, 3)) * 10.0 ** rng.integers(-8, 17, (400, 3))
        start = rng.normal(size=(6, 3))  # onto a non-zero buffer
        want, got = start.copy(), start.copy()
        np.add.at(want, rows, values)
        M.add_rows(got, rows, values)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_adds_into_a_view_of_a_larger_buffer(self, small_params):
        grads = M.ModelParams.zeros_like(small_params)
        M.add_rows(grads.item_embeddings, np.array([3, 3, 0]), np.arange(12.0).reshape(3, 4))
        assert grads.item_embeddings[3].tolist() == [4, 6, 8, 10]
        assert grads.item_embeddings[0].tolist() == [8, 9, 10, 11]
        assert np.count_nonzero(grads.flat) == 8

    def test_table_that_cannot_flatten_in_place_is_refused(self):
        table = np.zeros((4, 6))[:, :3]  # rows 6 apart, 3 wide: no flat view
        with pytest.raises(ValueError, match="copy"):
            M.add_rows(table, np.array([0]), np.ones((1, 3)))
        assert not table.any()


class TestAdam:
    def test_zero_gradient_no_move(self, small_params):
        state = M.AdamState.for_params(small_params)
        before = [a.copy() for a in small_params.flat_arrays()]
        M.adam_step(small_params, M.ModelParams.zeros_like(small_params), state, lr=0.1)
        assert state.t == 1
        for a, b in zip(small_params.flat_arrays(), before):
            np.testing.assert_allclose(a, b)

    def test_first_step_magnitude(self):
        params = M.ModelParams(np.array([[1.0]]), np.array([[1.0]]),
                               [(np.zeros((2, 1)), np.zeros(1))])
        grads = M.ModelParams(np.array([[3.0]]), np.array([[-2.0]]),
                              [(np.zeros((2, 1)), np.zeros(1))])
        state = M.AdamState.for_params(params)
        M.adam_step(params, grads, state, lr=0.01)
        assert params.user_embeddings[0, 0] == pytest.approx(1.0 - 0.01, rel=1e-6)
        assert params.item_embeddings[0, 0] == pytest.approx(1.0 + 0.01, rel=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(9)

        def run():
            params = M.init_params(3, 3, 2, 1, np.random.default_rng(1))
            grads = M.ModelParams.zeros_like(params)
            for a in grads.flat_arrays():
                a += 0.1
            state = M.AdamState.for_params(params)
            for _ in range(5):
                M.adam_step(params, grads, state, lr=1e-3, weight_decay=1e-2)
            return params

        p1, p2 = run(), run()
        for a, b in zip(p1.flat_arrays(), p2.flat_arrays()):
            assert (a == b).all()

    def test_descends_convex_quadratic(self):
        # single parameter, f(x) = x^2, lr=1e-3
        x = np.array([[1.0]])
        params = M.ModelParams(x, np.array([[0.0]]), [(np.zeros((2, 1)), np.zeros(1))])
        state = M.AdamState.for_params(params)
        grads = M.ModelParams(2 * x.copy(), np.array([[0.0]]),
                              [(np.zeros((2, 1)), np.zeros(1))])
        M.adam_step(params, grads, state, lr=1e-3)
        assert params.user_embeddings[0, 0] ** 2 < 1.0

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_twenty_steps_equal_the_formula(self, weight_decay):
        def reference_step(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for p, g, mi, vi in zip(params.flat_arrays(), grads.flat_arrays(), m, v):
                mi *= b1
                mi += (1 - b1) * g
                vi *= b2
                vi += (1 - b2) * g * g
                if weight_decay:
                    p -= lr * weight_decay * p
                p -= lr * (mi / c1) / (np.sqrt(vi / c2) + eps)

        rng = np.random.default_rng(3)
        got = M.init_params(7, 5, 3, 1, np.random.default_rng(4))
        want = got.copy()
        state = M.AdamState.for_params(got)
        m = [np.zeros_like(a) for a in want.flat_arrays()]
        v = [np.zeros_like(a) for a in want.flat_arrays()]
        for t in range(1, 21):
            grads = M.ModelParams.zeros_like(got)
            for a in grads.flat_arrays():
                a += rng.normal(size=a.shape) * (rng.random(a.shape) < 0.7)
            M.adam_step(got, grads, state, lr=3e-2, weight_decay=weight_decay)
            reference_step(want, grads, m, v, t, lr=3e-2)
        for a, b in zip(got.flat_arrays(), want.flat_arrays()):
            assert np.array_equal(a, b)

    def test_bad_lr(self, small_params):
        with pytest.raises(ValueError):
            M.adam_step(small_params, M.ModelParams.zeros_like(small_params),
                        M.AdamState.for_params(small_params), lr=0.0)


def reference_adam_step(params, grads, m, v, scratch, t, lr, b1=0.9, b2=0.999, eps=1e-8,
                        weight_decay=0.0):
    """The per-array Adam step that came before the packed vector, pass for pass."""
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for p, g, mi, vi, (s, r) in zip(params.flat_arrays(), grads.flat_arrays(), m, v, scratch):
        mi *= b1
        mi += np.multiply(1 - b1, g, out=s)
        vi *= b2
        np.multiply(1 - b2, g, out=s)
        vi += np.multiply(s, g, out=s)
        if weight_decay:
            p -= np.multiply(lr * weight_decay, p, out=s)
        np.divide(mi, c1, out=s)
        np.multiply(lr, s, out=s)
        np.divide(vi, c2, out=r)
        np.sqrt(r, out=r)
        r += eps
        p -= np.divide(s, r, out=s)


def params_of_size(size, rng):
    """Parameters with `size` elements in all: a tall user table, one item row, one layer."""
    return M.ModelParams(rng.normal(size=(size - 4, 1)), rng.normal(size=(1, 1)),
                         [(rng.normal(size=(2, 1)), rng.normal(size=1))])


def assert_adam_matches_reference(params, weight_decay, steps=30):
    rng = np.random.default_rng(11)
    want = params.copy()
    state = M.AdamState.for_params(params)
    m = [np.zeros_like(a) for a in want.flat_arrays()]
    v = [np.zeros_like(a) for a in want.flat_arrays()]
    scratch = [(np.zeros_like(a), np.zeros_like(a)) for a in want.flat_arrays()]
    for t in range(1, steps + 1):
        grads = M.ModelParams.zeros_like(params)
        g = rng.normal(size=grads.flat.size)
        g[rng.random(g.size) < 0.3] = 0.0  # rows a batch does not touch
        g[rng.random(g.size) < 0.1] = -0.0
        grads.flat[:] = g
        before = grads.flat.copy()
        M.adam_step(params, grads, state, lr=3e-2, weight_decay=weight_decay)
        reference_adam_step(want, grads, m, v, scratch, t, lr=3e-2, weight_decay=weight_decay)
        assert np.array_equal(grads.flat, before) and (np.signbit(grads.flat) == np.signbit(before)).all()
    assert state.t == steps
    assert np.array_equal(params.flat, want.flat)
    assert np.array_equal(state.m.flat, np.concatenate([a.ravel() for a in m]))
    assert np.array_equal(state.v.flat, np.concatenate([a.ravel() for a in v]))


class TestAdamSplit:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    @pytest.mark.parametrize("slices", [1, 2, 3, 4, 5])
    def test_any_slice_count_equals_the_per_array_step(self, monkeypatch, slices, weight_decay):
        monkeypatch.setattr(M, "_adam_slices", lambda size: slices)
        params = M.init_params(301, 47, 4, 1, np.random.default_rng(slices))
        assert_adam_matches_reference(params, weight_decay)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_sizes_at_the_split_threshold_equal_the_per_array_step(self, offset, weight_decay):
        size = M.ADAM_SPLIT_MIN + offset
        cpus = len(os.sched_getaffinity(0))
        assert M._adam_slices(size) == (1 if offset < 0 else cpus)
        assert_adam_matches_reference(params_of_size(size, np.random.default_rng(5)), weight_decay)

    def test_pool_has_no_more_threads_than_cpus(self, monkeypatch):
        monkeypatch.setattr(M, "_adam_slices", lambda size: 5)
        params = M.init_params(30, 10, 2, 1, np.random.default_rng(0))
        M.adam_step(params, M.ModelParams.zeros_like(params), M.AdamState.for_params(params), 1e-2)
        assert M._pool._max_workers == max(1, len(os.sched_getaffinity(0)) - 1)
        names = [t.name for t in threading.enumerate() if t.name.startswith("cclrec-split")]
        assert 1 <= len(names) <= M._pool._max_workers

    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(M, "_adam_slices", lambda size: 2)
        params = M.init_params(30, 10, 2, 1, np.random.default_rng(0))
        state = M.AdamState.for_params(params)
        M.adam_step(params, M.ModelParams.zeros_like(params), state, 1e-2)
        assert M._pool is not None

        def child():
            assert M._pool is None
            M.adam_step(params, M.ModelParams.zeros_like(params), state, 1e-2)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        hung = proc.is_alive()
        if hung:
            proc.kill()
            proc.join()
        assert not hung and proc.exitcode == 0

    def test_sim_model_stays_serial(self):
        params = M.init_params(500, 100, 8, 1, np.random.default_rng(0))
        assert params.flat.size < M.ADAM_SPLIT_MIN
        assert M._adam_slices(params.flat.size) == 1


class TestSplitMap:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_results_keep_the_order_of_the_items(self, count):
        threads = set()

        def fn(x):
            threads.add(threading.current_thread().name)
            return 10 * x

        assert M.split_map(fn, list(range(count))) == [10 * x for x in range(count)]
        assert len(threads) <= min(count, len(os.sched_getaffinity(0)))

    def test_no_items_give_an_empty_list(self):
        assert M.split_map(lambda x: 1 / 0, []) == []

    def test_a_raising_share_returns_only_after_the_others(self):
        done = []

        def fn(x):
            if x == 0:
                raise ValueError("first share")
            time.sleep(0.05)
            done.append(x)

        with pytest.raises(ValueError, match="first share"):
            M.split_map(fn, [0, 1])
        assert done == ([1] if len(os.sched_getaffinity(0)) > 1 else [])

    def test_the_first_share_runs_on_the_calling_thread(self):
        names = M.split_map(lambda x: threading.current_thread().name, list(range(4)))
        assert names[0] == threading.current_thread().name


class TestPacking:
    def test_fields_are_views_into_flat_in_order(self, small_params):
        flat = small_params.flat
        assert flat.dtype == np.float64 and flat.flags.c_contiguous and flat.flags.owndata
        offset = 0
        for a in small_params.flat_arrays():
            assert np.shares_memory(a, flat)
            assert a.ctypes.data == flat.ctypes.data + 8 * offset
            offset += a.size
        assert offset == flat.size
        assert np.array_equal(np.concatenate([a.ravel() for a in small_params.flat_arrays()]), flat)

    def test_write_through_a_field_shows_in_flat(self, small_params):
        W, b = small_params.layers[-1]
        b[0] = 7.5
        W[1, 0] = -2.25
        small_params.user_embeddings[2, 3] = 4.0
        offset_b = small_params.flat.size - 1
        offset_w = offset_b - W.size + 1
        assert small_params.flat[offset_b] == 7.5
        assert small_params.flat[offset_w] == -2.25
        assert small_params.flat[2 * 4 + 3] == 4.0

    def test_embeddings_stack_both_tables_in_flat(self, small_params):
        stacked = small_params.embeddings
        assert np.shares_memory(stacked, small_params.flat) and stacked.flags.c_contiguous
        assert np.array_equal(stacked, np.vstack([small_params.user_embeddings,
                                                  small_params.item_embeddings]))
        stacked[5, 1] = 3.5  # item row 1
        assert small_params.item_embeddings[1, 1] == 3.5

    def test_embedding_tables_of_two_widths_are_refused(self):
        with pytest.raises(ValueError, match="same width"):
            M.ModelParams(np.ones((2, 2)), np.ones((2, 3)), [(np.ones((5, 1)), np.zeros(1))])

    def test_constructor_packs_copies_of_its_arrays(self):
        user, item = np.ones((2, 1)), np.full((3, 1), 2.0)
        layers = [(np.full((2, 1), 3.0), np.array([4.0]))]
        params = M.ModelParams(user, item, layers)
        assert params.flat.tolist() == [1, 1, 2, 2, 2, 3, 3, 4]
        user[0, 0] = 9.0
        assert params.user_embeddings[0, 0] == 1.0
        assert [a.shape for a in params.flat_arrays()] == [(2, 1), (3, 1), (2, 1), (1,)]

    def test_copy_and_zeros_like_own_separate_buffers(self, small_params):
        for other in (small_params.copy(), M.ModelParams.zeros_like(small_params)):
            assert not np.shares_memory(other.flat, small_params.flat)
            assert other.shapes == small_params.shapes
            for a in other.flat_arrays():
                assert np.shares_memory(a, other.flat)
        copy = small_params.copy()
        assert np.array_equal(copy.flat, small_params.flat)
        copy.layers[0][0][0, 0] += 1.0
        assert copy.layers[0][0][0, 0] != small_params.layers[0][0][0, 0]
        assert not M.ModelParams.zeros_like(small_params).flat.any()

    def test_checkpoint_bytes_are_the_header_and_each_array(self, small_params, tmp_path):
        M.save_checkpoint(tmp_path / "c.bin", small_params)
        header = {"activation": "relu", "d": 4, "m": 4, "n": 4, "widths": [8, 1]}
        want = (json.dumps(header, sort_keys=True) + "\n").encode()
        want += b"".join(a.tobytes() for a in small_params.flat_arrays())
        assert (tmp_path / "c.bin").read_bytes() == want
        loaded = M.load_checkpoint(tmp_path / "c.bin")
        assert loaded.flat.flags.owndata and loaded.flat.flags.writeable
        assert loaded.shapes == small_params.shapes

    def test_assert_finite_checks_every_array(self, small_params):
        small_params.assert_finite()
        for i in range(len(small_params.flat_arrays())):
            bad = small_params.copy()
            bad.flat_arrays()[i].flat[-1] = np.nan if i % 2 else np.inf
            with pytest.raises(FloatingPointError):
                bad.assert_finite()


class TestCheckpoint:
    def test_bit_exact_round_trip(self, small_params, tmp_path):
        path = tmp_path / "ckpt.bin"
        M.save_checkpoint(path, small_params)
        loaded = M.load_checkpoint(path)
        for a, b in zip(small_params.flat_arrays(), loaded.flat_arrays()):
            assert (a == b).all()
        assert b'"activation": "relu"' in path.read_bytes().split(b"\n", 1)[0]

    def test_other_activation_is_a_data_error(self, small_params, tmp_path):
        M.save_checkpoint(tmp_path / "relu.bin", small_params)
        raw = (tmp_path / "relu.bin").read_bytes()
        (tmp_path / "tanh.bin").write_bytes(
            raw.replace(b'"activation": "relu"', b'"activation": "tanh"', 1))
        with pytest.raises(DataFormatError, match="activation 'tanh'"):
            M.load_checkpoint(tmp_path / "tanh.bin")

    def test_same_params_same_bytes(self, small_params, tmp_path):
        M.save_checkpoint(tmp_path / "a.bin", small_params)
        M.save_checkpoint(tmp_path / "b.bin", small_params)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    @pytest.mark.parametrize("change", [
        {"widths": [3]},  # forward would score column 0 of three
        {"widths": []},  # forward would raise IndexError
        {"widths": [4, 2]},
        {"widths": [0, 1]},
        {"m": 0},
        {"d": True},
    ])
    def test_header_forward_cannot_score_is_a_data_error(self, tmp_path, change):
        header = {"m": 2, "n": 3, "d": 2, "widths": [4, 1], "activation": "relu", **change}
        m, n, d, widths = header["m"], header["n"], header["d"], header["widths"]
        # a payload of the length the header implies, so only the header is wrong
        size = (m + n) * d + sum(a * w + w for a, w in zip([2 * d] + widths[:-1], widths))
        path = tmp_path / "c.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + np.zeros(size).tobytes())
        with pytest.raises(DataFormatError, match="bad checkpoint header"):
            M.load_checkpoint(path)
