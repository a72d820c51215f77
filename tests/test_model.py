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


def mean_loss(y, labels, kind="log", gamma=0.0):
    """The batch-mean rating loss, as the validation loss computes it."""
    return M.per_sample_loss(np.asarray(y), np.asarray(labels), kind, gamma).mean()


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
        assert mean_loss(y, labels, "focal", 0.0) == pytest.approx(mean_loss(y, labels), abs=1e-12)

    def test_focal_hand_value(self):
        got = mean_loss([0.5], [1], "focal", gamma=2.0)
        assert got == pytest.approx(0.25 * np.log(2), abs=1e-9)

    def test_focal_downweights_easy_samples(self):
        easy = mean_loss([0.9], [1], "focal", 2.0) / mean_loss([0.9], [1])
        hard = mean_loss([0.1], [1], "focal", 2.0) / mean_loss([0.1], [1])
        assert easy < hard

    def test_focal_negative_gamma(self):
        with pytest.raises(ValueError):
            mean_loss([0.5], [1], "focal", -1.0)


class TestIPSAndSNIPS:
    def test_ips_hand_value(self):
        assert M.ips_loss([0.6], [0.5]) == pytest.approx(1.2)

    def test_ips_unit_propensity_is_mean(self):
        losses = np.array([0.2, 0.4, 0.9])
        assert M.ips_loss(losses, np.ones(3)) == pytest.approx(losses.mean())

    def test_ips_scales_inversely(self):
        losses = np.array([0.3, 0.7])
        p = np.array([0.4, 0.8])
        assert M.ips_loss(losses, 0.5 * p) == pytest.approx(2 * M.ips_loss(losses, p))

    def test_ips_zero_propensity(self):
        with pytest.raises(ValueError):
            M.ips_loss([0.5], [0.0])

    def test_snips_single_sample(self):
        assert M.snips_loss([0.6], [0.123]) == pytest.approx(0.6)

    def test_snips_hand_value(self):
        assert M.snips_loss([1.0, 0.0], [0.5, 1.0]) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("c", [0.1, 2.0, 10.0])
    def test_snips_scale_invariant(self, c):
        rng = np.random.default_rng(1)
        losses = rng.uniform(0, 1, 10)
        p = rng.uniform(0.1, 1, 10)
        assert M.snips_loss(losses, c * p) == pytest.approx(
            M.snips_loss(losses, p), abs=1e-12)


class TestRecWeights:
    def test_ips_and_snips_wrappers_use_the_weights(self):
        losses = np.array([0.3, 0.7, 0.2])
        p = np.array([0.4, 0.8, 0.5])
        assert M.ips_loss(losses, p) == float((M.rec_weights("ips", p, 3) * losses).sum())
        assert M.snips_loss(losses, p) == float((M.rec_weights("snips", p, 3) * losses).sum())
        assert M.rec_weights("plain", None, 4).tolist() == [0.25] * 4

    @pytest.mark.parametrize("objective", ["log", "focal", "dr"])
    def test_rejects_loss_kinds_and_unknown_objectives(self, objective):
        with pytest.raises(ValueError, match="unknown rec objective"):
            M.rec_weights(objective, np.ones(2), 2)

    @pytest.mark.parametrize("objective", ["ips", "snips"])
    def test_rejects_non_positive_propensities(self, objective):
        with pytest.raises(ValueError, match="positive"):
            M.rec_weights(objective, np.array([0.5, 0.0]), 2)

    def test_per_sample_loss_dispatch(self):
        y, labels = np.array([0.2, 0.9]), np.array([1, 0])
        assert M.per_sample_loss(y, labels).tolist() == M.log_loss_per_sample(y, labels).tolist()
        assert M.per_sample_loss(y, labels, "focal", 2.0).tolist() == \
            M.focal_loss_per_sample(y, labels, 2.0).tolist()
        assert M.per_sample_loss(y, labels).mean() == float(M.log_loss_per_sample(y, labels).mean())
        with pytest.raises(ValueError, match="unknown loss kind"):
            M.per_sample_loss(y, labels, "ips")


class TestBackward:
    @pytest.mark.parametrize("loss_kind", ["plain", "ips", "snips", "hinge"])
    def test_rejects_anything_but_log_and_focal(self, loss_kind):
        params = M.init_params(2, 2, 2, 1, np.random.default_rng(0))
        batch = M.forward(params, np.array([0]), np.array([1]))
        with pytest.raises(ValueError, match="unknown loss kind"):
            M.backward(params, batch, np.array([1.0]), np.array([1.0]), loss_kind)

    @pytest.mark.parametrize("loss_kind,gamma", [("log", 0.0), ("focal", 2.0)])
    def test_matches_finite_differences(self, loss_kind, gamma):
        rng = np.random.default_rng(7)
        params = M.init_params(4, 4, 4, 1, rng)
        users = rng.integers(0, 4, 6)
        items = rng.integers(0, 4, 6)
        labels = rng.integers(0, 2, 6).astype(float)
        weights = rng.uniform(0.05, 0.4, 6)

        def loss_fn(p):
            out = M.forward(p, users, items)
            if loss_kind == "focal":
                per = M.focal_loss_per_sample(out.y, labels, gamma)
            else:
                per = M.log_loss_per_sample(out.y, labels)
            return float((weights * per).sum())

        batch = M.forward(params, users, items)
        analytic = M.backward(params, batch, labels, weights, loss_kind, gamma)
        numeric = finite_diff_grads(loss_fn, params)
        assert max_rel_error(analytic, numeric) < 1e-4

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
