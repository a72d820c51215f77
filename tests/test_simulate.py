import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cclrec import model as M
from cclrec import simulate
from cclrec.data import InteractionTable, load_triples
from cclrec.metrics import gini
from cclrec.simulate import (
    SimConfig,
    _draw_without_replacement,
    generate,
    inclusion_probabilities,
    save_bundle,
)


def exposure_gini(bundle):
    counts = np.bincount(bundle.train.items, minlength=bundle.n)
    return gini(counts)


class TestConfig:
    def test_defaults_valid(self):
        SimConfig().validate()

    def test_negative_skew(self):
        with pytest.raises(ValueError):
            SimConfig(exposure_skew=-1.0).validate()

    @pytest.mark.parametrize("kwargs", [{"m": 0}, {"n": 0, "exposures_per_user": 0,
                                                   "test_exposures_per_user": 0}])
    def test_empty_shape(self, kwargs):
        with pytest.raises(ValueError, match="m and n must be >= 1"):
            SimConfig(**kwargs).validate()

    @pytest.mark.parametrize("name", ["exposures_per_user", "test_exposures_per_user"])
    def test_negative_exposure_count(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -2$"):
            SimConfig(**{name: -2}).validate()

    @pytest.mark.parametrize("skew", [float("nan"), float("inf")])
    def test_non_finite_skew(self, skew):
        with pytest.raises(ValueError, match="exposure_skew must be finite"):
            SimConfig(exposure_skew=skew).validate()

    # n exp(skew / 2) overflows from skew 1412.8 at n = 30
    @pytest.mark.parametrize("skew", [1413.0, 1500.0, 2000.0, 1e300])
    def test_skew_that_overflows_the_exposure_weights(self, skew):
        with pytest.raises(ValueError, match=f"^exposure_skew {re.escape(str(skew))} overflows"):
            SimConfig(m=5, n=30, exposure_skew=skew).validate()

    def test_largest_skew_below_overflow(self):
        SimConfig(m=5, n=30, exposure_skew=1412.0).validate()

    def test_infeasible_counts(self):
        with pytest.raises(ValueError):
            SimConfig(n=10, exposures_per_user=8, test_exposures_per_user=3).validate()


class TestGenerate:
    def test_skew_whose_exposure_weights_underflow(self):
        # exp(1400 z) / sum rounds to 0 for 12 of the 30 items of seed 0
        with pytest.raises(ValueError, match="^exposure_skew 1400.0 leaves 18 of 30 items a "
                                             "positive exposure weight; 20 train draws per "
                                             "user need 20$"):
            generate(SimConfig(m=5, n=30, exposure_skew=1400.0))

    def test_large_skew_that_keeps_enough_positive_weights(self):
        synth = generate(SimConfig(m=5, n=30, exposure_skew=800.0))
        assert np.count_nonzero(synth.exposure_weights) >= 20
        assert len(synth.dataset.train) == 5 * 20

    def test_uniform_exposure_is_equitable(self):
        synth = generate(SimConfig(exposure_skew=0.0, seed=0))
        assert exposure_gini(synth.dataset) < 0.1

    def test_skew_increases_exposure_gini(self):
        flat = generate(SimConfig(exposure_skew=0.0, seed=0))
        skewed = generate(SimConfig(exposure_skew=3.0, seed=0))
        assert exposure_gini(skewed.dataset) > exposure_gini(flat.dataset)

    def test_deterministic(self):
        a = generate(SimConfig(m=40, n=30, seed=5,
                               exposures_per_user=6, test_exposures_per_user=4))
        b = generate(SimConfig(m=40, n=30, seed=5,
                               exposures_per_user=6, test_exposures_per_user=4))
        assert (a.dataset.train.items == b.dataset.train.items).all()
        assert (a.dataset.test.labels == b.dataset.test.labels).all()
        assert (a.true_preference == b.true_preference).all()
        assert (a.inclusion_probs == b.inclusion_probs).all()

    def test_per_user_train_test_disjoint(self):
        synth = generate(SimConfig(m=30, n=40, seed=2, exposures_per_user=8,
                                   test_exposures_per_user=6))
        d = synth.dataset
        for u in range(d.m):
            tr = set(d.train.items[d.train.users == u].tolist())
            te = set(d.test.items[d.test.users == u].tolist())
            assert len(tr) == 8 and len(te) == 6
            assert not (tr & te)

    def test_preference_matrix_is_probabilities(self):
        synth = generate(SimConfig(m=20, n=15, seed=1, exposures_per_user=4,
                                   test_exposures_per_user=3))
        p = synth.true_preference
        assert p.shape == (20, 15)
        assert ((p > 0) & (p < 1)).all()

    def test_test_exposure_independent_of_labels(self):
        # within an item, which users land in the test split must not depend
        # on their preference (exposure is driven by the confounder alone)
        cfg = SimConfig(m=2000, n=100, seed=3, exposures_per_user=20,
                        test_exposures_per_user=10)
        synth = generate(cfg)
        d = synth.dataset
        exposed = np.zeros((d.m, d.n), dtype=bool)
        exposed[d.test.users, d.test.items] = True
        gaps = []
        for i in range(d.n):
            col = exposed[:, i]
            if 0 < col.sum() < d.m:
                gaps.append(synth.true_preference[col, i].mean()
                            - synth.true_preference[~col, i].mean())
        assert abs(np.mean(gaps)) < 0.005


def _inclusion_by_enumeration(weights, k):
    """Sum over every ordered k-subset of the product of its pick probabilities.

    Each step divides by the remaining weights summed afresh: subtracting the
    picked weights from the total cancels, and a pick that should be certain
    then reads below 1.
    """
    w = [float(v) for v in weights]
    pi = [0.0] * len(w)
    for order in itertools.permutations(range(len(w)), k):
        prob, left = 1.0, set(range(len(w)))
        for i in order:
            prob *= w[i] / math.fsum(w[j] for j in left)
            left.discard(i)
        for i in order:
            pi[i] += prob
    return np.array(pi)


def _sim_weights(seed, skew=3.0, n=100):
    return generate(SimConfig(m=1, n=n, exposure_skew=skew, exposures_per_user=0,
                              test_exposures_per_user=0, seed=seed)).exposure_weights


class TestInclusionProbs:
    @pytest.mark.parametrize("skew", [0.0, 3.0, 40.0])
    def test_equals_enumeration(self, skew):
        for n in range(1, 8):
            for seed in range(3):
                w = _sim_weights(seed, skew, n)
                for k in range(n + 1):
                    np.testing.assert_allclose(inclusion_probabilities(w, k),
                                               _inclusion_by_enumeration(w, k), rtol=0, atol=1e-12)

    def test_sums_to_draw_count(self):
        for seed in range(5):
            assert abs(generate(SimConfig(seed=seed)).inclusion_probs.sum() - 20) < 1e-12
        assert abs(inclusion_probabilities(_sim_weights(0, n=1000), 20).sum() - 20) < 1e-12

    def test_weights_that_underflow(self):
        # exp(800 z) / sum leaves weights down to 1e-321, subnormal, beside 0s
        w = generate(SimConfig(m=5, n=30, exposure_skew=800.0)).exposure_weights
        assert w.min() == 0 and 0 < w[w > 0].min() < 1e-300
        pi = inclusion_probabilities(w, 20)
        assert abs(pi.sum() - 20) < 1e-12
        assert (pi[w == 0] == 0).all() and (pi >= 0).all() and (pi <= 1 + 1e-12).all()

    def test_uniform_weights(self):
        for n, k in [(1, 1), (5, 2), (100, 20), (100, 99), (300, 7)]:
            np.testing.assert_allclose(inclusion_probabilities(np.full(n, 0.3), k), k / n,
                                       rtol=0, atol=1e-12)

    def test_monotone_in_weight(self):
        for skew in (0.5, 3.0, 40.0):
            w = np.sort(_sim_weights(0, skew))
            assert (np.diff(inclusion_probabilities(w, 20)) >= 0).all()

    def test_no_draw_and_every_draw(self):
        w = np.array([0.0, 2.0, 0.5, 0.0, 1e-9])
        assert inclusion_probabilities(w, 0).tolist() == [0.0] * 5
        assert inclusion_probabilities(w, 3).tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]

    def test_rejects_a_negative_draw_count(self):
        with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
            inclusion_probabilities(np.ones(3), -1)

    def test_gumbel_top_k_count(self):
        # the k largest of log w + Gumbel noise are k successive weighted draws
        w, k, draws = generate(SimConfig()).exposure_weights, 20, 10**6
        rng = np.random.default_rng(0)
        counts = np.zeros(len(w), dtype=np.int64)
        for _ in range(draws // 25_000):
            keys = np.log(w) + rng.gumbel(size=(25_000, len(w)))
            top = np.argpartition(-keys, k - 1, axis=1)[:, :k]
            counts += np.bincount(top.ravel(), minlength=len(w))
        pi = inclusion_probabilities(w, k)
        z = (counts / draws - pi) / np.sqrt(pi * (1 - pi) / draws)
        assert np.abs(z).max() < 5

    def test_gauss_legendre_nodes(self):
        x, w = simulate._gauss_legendre(simulate._GL_NODES)
        want_x, want_w = np.polynomial.legendre.leggauss(simulate._GL_NODES)
        np.testing.assert_allclose(x, want_x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, want_w, rtol=0, atol=1e-15)

    def test_matches_realized_exposure_rates(self):
        cfg = SimConfig(m=400, n=30, seed=4, exposures_per_user=5,
                        test_exposures_per_user=5)
        synth = generate(cfg)
        realized = np.bincount(synth.dataset.train.items, minlength=30) / cfg.m
        np.testing.assert_allclose(synth.inclusion_probs, realized, atol=0.05)


class TestSaveBundle:
    def test_round_trips_through_triple_loader(self, tmp_path):
        synth = generate(SimConfig(m=15, n=12, seed=6, exposures_per_user=4,
                                   test_exposures_per_user=3))
        save_bundle(synth, tmp_path)
        loaded = load_triples(tmp_path / "train.txt", tmp_path / "test.txt",
                              m=15, n=12)
        d = synth.dataset
        # the loader sorts rows by (user, item); compare as triple sets
        def triples(t):
            return sorted(zip(t.users.tolist(), t.items.tolist(), t.labels.tolist()))
        assert triples(loaded.train) == triples(d.train)
        assert triples(loaded.test) == triples(d.test)
        truth = np.load(tmp_path / "ground_truth.npz")
        np.testing.assert_array_equal(truth["true_preference"], synth.true_preference)

    @pytest.mark.parametrize("config", [SimConfig(), SimConfig(m=1, seed=3),
                                        SimConfig(m=40, test_exposures_per_user=0)])
    def test_bytes_equal_the_per_row_writer(self, config, tmp_path):
        synth = generate(config)
        save_bundle(synth, tmp_path)
        for name, table in (("train.txt", synth.dataset.train), ("test.txt", synth.dataset.test)):
            with open(tmp_path / f"want_{name}", "w") as f:
                for u, i, r in zip(table.users, table.items, table.ratings):
                    f.write(f"{u} {i} {r}\n")
            assert (tmp_path / name).read_bytes() == (tmp_path / f"want_{name}").read_bytes()


class TestOracleIPSIsUnbiased:
    """IPS with the exact inclusion probabilities estimates the full-matrix loss.

    SimConfig(seed=0)'s preference and weights stay fixed; REPLICATES train
    splits are drawn as generate draws them, with labels from the preference.
    The naive mean over the drawn pairs is biased, because the confounder
    drives both exposure and preference (about 65 SE here); the IPS and
    SNIPS estimates, computed with the weights training uses, are not
    (IPS about 1.3 SE, and SNIPS, a ratio with an O(1/N) bias, about 2 SE).
    With 600 replicates the IPS SE is about 2.7e-4, and IPS with a
    2,000-draw Monte-Carlo estimate of the inclusion probabilities (off by
    up to 25 % per item) reads 5.2 SE off.
    """

    REPLICATES = 600

    @pytest.fixture(scope="class")
    def estimates(self):
        synth = generate(SimConfig(seed=0))
        pref, m, n, k = synth.true_preference, 500, 100, 20
        predictors = {"item mean": np.tile(pref.mean(axis=0), (m, 1)), "truth": pref}
        rng = np.random.default_rng(1)
        users = np.repeat(np.arange(m), k)
        out = {name: {"naive": [], "ips": [], "snips": []} for name in predictors}
        for _ in range(self.REPLICATES):
            items = _draw_without_replacement(synth.exposure_weights, rng.random((m, k))).ravel()
            labels = (rng.random(m * k) < pref[users, items]).astype(np.int64)
            pi = synth.inclusion_probs[items]
            for name, pred in predictors.items():
                loss = M.per_sample_loss(pred[users, items], labels)
                out[name]["naive"].append(loss.mean())
                # the IPS sum over the m k drawn pairs / (m n): the batch's IPS loss times k / n
                out[name]["ips"].append((M.rec_weights("ips", pi, m * k) * loss).sum() * k / n)
                out[name]["snips"].append((M.rec_weights("snips", pi, m * k) * loss).sum())
        full = {name: (pref * M.per_sample_loss(pred, np.ones(pred.shape))
                       + (1 - pref) * M.per_sample_loss(pred, np.zeros(pred.shape))).mean()
                for name, pred in predictors.items()}
        return {name: {kind: (np.mean(v) - full[name]) / (np.std(v, ddof=1) / np.sqrt(len(v)))
                       for kind, v in kinds.items()}
                for name, kinds in out.items()}

    @pytest.mark.parametrize("predictor", ["item mean", "truth"])
    def test_ips_and_snips_within_4_se(self, estimates, predictor):
        assert abs(estimates[predictor]["ips"]) < 4
        assert abs(estimates[predictor]["snips"]) < 4

    @pytest.mark.parametrize("predictor", ["item mean", "truth"])
    def test_naive_mean_is_biased(self, estimates, predictor):
        assert abs(estimates[predictor]["naive"]) > 10


# Reference: the sequential simulator that generate batches. Every random
# number is drawn here exactly as generate draws it, one choice call per pick.

def _sample_without_replacement(weights, k, rng):
    """Sequential weighted draws with renormalization."""
    w = weights.copy()
    out = np.empty(k, dtype=np.int64)
    for j in range(k):
        p = w / w.sum()
        pick = rng.choice(len(w), p=p)
        out[j] = pick
        w[pick] = 0.0
    return out


def _generate_reference(config):
    """Per-user loop: (train, test, inclusion_probs, end state of the generator)."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    scale = simulate.LATENT_SCALE / np.sqrt(simulate.LATENT_DIM)
    shift = simulate.USER_LATENT_MEAN / np.sqrt(simulate.LATENT_DIM)
    u_lat = rng.normal(shift, scale, size=(config.m, simulate.LATENT_DIM))
    i_lat = rng.normal(0.0, 1.0, size=(config.n, simulate.LATENT_DIM)) * scale
    z = rng.uniform(-simulate.CONFOUNDER_HALF_RANGE, simulate.CONFOUNDER_HALF_RANGE,
                    size=config.n)
    logits = u_lat @ i_lat.T + simulate.CONFOUNDER_OUTCOME_WEIGHT * z[None, :]
    pref = 1.0 / (1.0 + np.exp(-logits))
    weights = np.exp(config.exposure_skew * z)
    weights /= weights.sum()

    users, items, ratings, split = [], [], [], []
    for u in range(config.m):
        train_items = _sample_without_replacement(weights, config.exposures_per_user, rng)
        rest = np.setdiff1d(np.arange(config.n), train_items)
        test_items = rng.choice(rest, size=config.test_exposures_per_user, replace=False)
        for part, chosen in (("train", train_items), ("test", test_items)):
            labels = (rng.random(len(chosen)) < pref[u, chosen]).astype(np.int64)
            users.extend([u] * len(chosen))
            items.extend(chosen.tolist())
            ratings.extend((labels * 4 + 1).tolist())
            split.extend([part] * len(chosen))
    users, items, ratings = np.array(users), np.array(items), np.array(ratings)
    is_train = np.array([s == "train" for s in split], dtype=bool)
    train = InteractionTable.from_lists(users[is_train], items[is_train], ratings[is_train])
    test = InteractionTable.from_lists(users[~is_train], items[~is_train], ratings[~is_train])

    inclusion = inclusion_probabilities(weights, config.exposures_per_user)
    return train, test, inclusion, [rng.bit_generator.state]


def _generate_recording_states(config):
    """generate(), plus the end state of every generator it made."""
    made = []
    real = np.random.default_rng

    def recording(seed):
        made.append(real(seed))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", recording):
        synth = generate(config)
    return synth, [g.bit_generator.state for g in made]


def _assert_tables_equal(got, want):
    for col in ("users", "items", "ratings", "labels"):
        assert np.array_equal(getattr(got, col), getattr(want, col)), col
        assert getattr(got, col).dtype == getattr(want, col).dtype, col


@st.composite
def small_configs(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    return SimConfig(m=draw(st.integers(1, 25)), n=n,
                     exposure_skew=draw(st.sampled_from([0.0, 3.0, 40.0])),
                     exposures_per_user=k, test_exposures_per_user=draw(st.integers(0, n - k)),
                     seed=draw(st.integers(0, 2**32 - 1)))


class TestBatchedGenerateEqualsPerUserLoop:
    @settings(max_examples=150, deadline=None)
    @given(small_configs(), st.integers(1, 9))
    @example(SimConfig(m=9, n=6, exposures_per_user=0, test_exposures_per_user=4, seed=1), 4)
    @example(SimConfig(m=9, n=6, exposures_per_user=5, test_exposures_per_user=0, seed=2), 4)
    @example(SimConfig(m=9, n=6, exposures_per_user=2, test_exposures_per_user=4, seed=3), 4)
    @example(SimConfig(m=9, n=6, exposures_per_user=3, test_exposures_per_user=2,
                       exposure_skew=0.0, seed=4), 4)
    @example(SimConfig(m=9, n=6, exposures_per_user=3, test_exposures_per_user=2,
                       exposure_skew=40.0, seed=5), 4)
    def test_tables_inclusion_and_generator_states(self, config, block):
        # a small block size puts block boundaries and short tails inside the
        # user loop; generate makes one generator, and its end state must match
        train, test, inclusion, states = _generate_reference(config)
        with mock.patch.object(simulate, "_BLOCK", block):
            synth, got_states = _generate_recording_states(config)
        _assert_tables_equal(synth.dataset.train, train)
        _assert_tables_equal(synth.dataset.test, test)
        assert np.array_equal(synth.inclusion_probs, inclusion)
        assert got_states == states

    def test_default_block_with_a_short_tail(self):
        config = SimConfig(m=1003, n=7, exposures_per_user=2,
                           test_exposures_per_user=3, exposure_skew=3.0, seed=17)
        train, test, inclusion, states = _generate_reference(config)
        synth, got_states = _generate_recording_states(config)
        _assert_tables_equal(synth.dataset.train, train)
        _assert_tables_equal(synth.dataset.test, test)
        assert np.array_equal(synth.inclusion_probs, inclusion)
        assert got_states == states


class FedGenerator(np.random.Generator):
    """Generator whose scalar random() returns given doubles in turn.

    Generator.choice(n, p=...) reads its uniform through self.random(), so
    this feeds the real choice exact CDF steps, which a seeded stream never
    hits.
    """

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = list(uniforms)

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == ()
        return self.uniforms.pop(0)


class TestDrawWithoutReplacement:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from([0.0, 0.0, 1e-12, 0.3, 1.0, 2.5]), min_size=1, max_size=10),
           st.integers(0, 12), st.integers(1, 5), st.data())
    def test_equals_sequential_choice(self, seed, weights, rows, block, data):
        w = np.array(weights)
        k = data.draw(st.integers(0, int(np.count_nonzero(w))))
        ref_rng = np.random.default_rng(seed)
        want = np.array([_sample_without_replacement(w, k, ref_rng) for _ in range(rows)],
                        dtype=np.int64).reshape(rows, k)
        rng = np.random.default_rng(seed)
        with mock.patch.object(simulate, "_BLOCK", block):
            got = _draw_without_replacement(w, rng.random((rows, k)))
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=8), st.integers(1, 4), st.data())
    def test_uniforms_on_cdf_steps_match_choice(self, weights, rows, data):
        # small integer weights put CDF values on multiples of 1/16 and the
        # like; choice counts a uniform equal to a CDF value as past it
        w = np.array(weights, dtype=np.float64)
        positive = int(np.count_nonzero(w))
        if positive == 0:
            return
        k = data.draw(st.integers(1, positive))
        grid = st.sampled_from([j / 16 for j in range(16)] + [1 / 3, 2 / 3, 0.5 / 3])
        u = np.array(data.draw(st.lists(st.lists(grid, min_size=k, max_size=k),
                                        min_size=rows, max_size=rows)))
        fed = FedGenerator(u.ravel().tolist())
        want = np.array([_sample_without_replacement(w, k, fed) for _ in range(rows)])
        assert np.array_equal(_draw_without_replacement(w, u), want)

    @pytest.mark.parametrize("weights, uniforms, picks", [
        ([1.0, 1.0, 2.0, 4.0], [0.25], [2]),  # cdf [1/8, 1/4, 1/2, 1]
        ([1.0, 0.0, 1.0], [0.5], [2]),  # cdf [1/2, 1/2, 1]: item 1 has no mass
        ([1.0, 1.0, 2.0], [0.5, 0.5], [2, 1]),  # then cdf [1/2, 1, 1]
    ])
    def test_uniform_on_a_cdf_step_is_past_it(self, weights, uniforms, picks):
        w = np.array(weights)
        fed = FedGenerator(uniforms)
        assert _sample_without_replacement(w, len(uniforms), fed).tolist() == picks
        assert _draw_without_replacement(w, np.array([uniforms])).tolist() == [picks]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("weights, k", [
        ([1.0, -1.0, 2.0], 1),
        ([1.0, np.nan], 1),
        ([1.0, np.inf], 1),
        ([1e308, 1e308], 1),
        ([1.0, 0.0, 0.0], 2),
        ([0.0, 0.0], 1),
    ])
    def test_rejects_what_choice_rejects(self, weights, k):
        w = np.array(weights)
        with pytest.raises(ValueError):
            _sample_without_replacement(w, k, np.random.default_rng(0))
        with pytest.raises(ValueError):
            _draw_without_replacement(w, np.full((3, k), 0.5))
        with pytest.raises(ValueError):
            inclusion_probabilities(w, k)
