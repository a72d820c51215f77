from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cclrec import simulate
from cclrec.data import InteractionTable, load_triples
from cclrec.metrics import gini
from cclrec.simulate import (
    SimConfig,
    _draw_without_replacement,
    estimate_inclusion_probs,
    generate,
    oracle_propensities,
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

    def test_infeasible_counts(self):
        with pytest.raises(ValueError):
            SimConfig(n=10, exposures_per_user=8, test_exposures_per_user=3).validate()


class TestGenerate:
    def test_uniform_exposure_is_equitable(self):
        synth = generate(SimConfig(exposure_skew=0.0, seed=0), inclusion_draws=10)
        assert exposure_gini(synth.dataset) < 0.1

    def test_skew_increases_exposure_gini(self):
        flat = generate(SimConfig(exposure_skew=0.0, seed=0), inclusion_draws=10)
        skewed = generate(SimConfig(exposure_skew=3.0, seed=0), inclusion_draws=10)
        assert exposure_gini(skewed.dataset) > exposure_gini(flat.dataset)

    def test_deterministic(self):
        a = generate(SimConfig(m=40, n=30, seed=5,
                               exposures_per_user=6, test_exposures_per_user=4),
                     inclusion_draws=20)
        b = generate(SimConfig(m=40, n=30, seed=5,
                               exposures_per_user=6, test_exposures_per_user=4),
                     inclusion_draws=20)
        assert (a.dataset.train.items == b.dataset.train.items).all()
        assert (a.dataset.test.labels == b.dataset.test.labels).all()
        assert (a.true_preference == b.true_preference).all()
        assert (a.inclusion_probs == b.inclusion_probs).all()

    def test_per_user_train_test_disjoint(self):
        synth = generate(SimConfig(m=30, n=40, seed=2, exposures_per_user=8,
                                   test_exposures_per_user=6), inclusion_draws=10)
        d = synth.dataset
        for u in range(d.m):
            tr = set(d.train.items[d.train.users == u].tolist())
            te = set(d.test.items[d.test.users == u].tolist())
            assert len(tr) == 8 and len(te) == 6
            assert not (tr & te)

    def test_preference_matrix_is_probabilities(self):
        synth = generate(SimConfig(m=20, n=15, seed=1, exposures_per_user=4,
                                   test_exposures_per_user=3), inclusion_draws=10)
        p = synth.true_preference
        assert p.shape == (20, 15)
        assert ((p > 0) & (p < 1)).all()

    def test_test_exposure_independent_of_labels(self):
        # within an item, which users land in the test split must not depend
        # on their preference (exposure is driven by the confounder alone)
        cfg = SimConfig(m=2000, n=100, seed=3, exposures_per_user=20,
                        test_exposures_per_user=10)
        synth = generate(cfg, inclusion_draws=10)
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


class TestInclusionProbs:
    def test_sums_to_draw_count(self):
        w = np.array([0.5, 0.3, 0.1, 0.1])
        probs = estimate_inclusion_probs(w, k=2, draws=2000, seed=0)
        assert probs.sum() == pytest.approx(2.0, abs=1e-9)

    def test_uniform_weights(self):
        probs = estimate_inclusion_probs(np.ones(5), k=2, draws=5000, seed=1)
        np.testing.assert_allclose(probs, 0.4, atol=0.03)

    def test_monotone_in_weight(self):
        w = np.array([4.0, 2.0, 1.0, 0.5])
        probs = estimate_inclusion_probs(w, k=2, draws=5000, seed=2)
        assert (np.diff(probs) <= 0).all()

    def test_matches_realized_exposure_rates(self):
        cfg = SimConfig(m=400, n=30, seed=4, exposures_per_user=5,
                        test_exposures_per_user=5)
        synth = generate(cfg, inclusion_draws=2000)
        realized = np.bincount(synth.dataset.train.items, minlength=30) / cfg.m
        np.testing.assert_allclose(synth.inclusion_probs, realized, atol=0.05)


class TestOraclePropensities:
    def test_gathers_per_item_probs(self):
        synth = generate(SimConfig(m=10, n=12, seed=0, exposures_per_user=3,
                                   test_exposures_per_user=2), inclusion_draws=50)
        props = oracle_propensities(synth, synth.dataset.train)
        expected = np.maximum(synth.inclusion_probs[synth.dataset.train.items], 1e-3)
        np.testing.assert_array_equal(props, expected)


class TestSaveBundle:
    def test_round_trips_through_triple_loader(self, tmp_path):
        synth = generate(SimConfig(m=15, n=12, seed=6, exposures_per_user=4,
                                   test_exposures_per_user=3), inclusion_draws=10)
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


def _generate_reference(config, inclusion_draws):
    """Per-user loop: (train, test, inclusion_probs, end states of both generators)."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    scale = config.latent_scale / np.sqrt(config.latent_dim)
    shift = config.user_latent_mean / np.sqrt(config.latent_dim)
    u_lat = rng.normal(shift, scale, size=(config.m, config.latent_dim))
    i_lat = rng.normal(0.0, 1.0, size=(config.n, config.latent_dim)) * scale
    z = rng.uniform(-config.confounder_half_range, config.confounder_half_range,
                    size=config.n)
    logits = u_lat @ i_lat.T + config.confounder_outcome_weight * z[None, :]
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

    inc_rng = np.random.default_rng(config.seed + 1)
    counts = np.zeros(config.n, dtype=np.int64)
    for _ in range(inclusion_draws):
        counts[_sample_without_replacement(weights, config.exposures_per_user, inc_rng)] += 1
    states = [rng.bit_generator.state, inc_rng.bit_generator.state]
    return train, test, counts / inclusion_draws, states


def _generate_recording_states(config, inclusion_draws):
    """generate(), plus the end state of every generator it made."""
    made = []
    real = np.random.default_rng

    def recording(seed):
        made.append(real(seed))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", recording):
        synth = generate(config, inclusion_draws=inclusion_draws)
    return synth, [g.bit_generator.state for g in made]


def _assert_tables_equal(got, want):
    for col in ("users", "items", "ratings", "labels"):
        assert np.array_equal(getattr(got, col), getattr(want, col)), col
        assert getattr(got, col).dtype == getattr(want, col).dtype, col


@st.composite
def small_configs(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    return SimConfig(m=draw(st.integers(1, 25)), n=n, latent_dim=draw(st.integers(1, 4)),
                     exposure_skew=draw(st.sampled_from([0.0, 3.0, 40.0])),
                     exposures_per_user=k, test_exposures_per_user=draw(st.integers(0, n - k)),
                     seed=draw(st.integers(0, 2**32 - 1)))


class TestBatchedGenerateEqualsPerUserLoop:
    @settings(max_examples=150, deadline=None)
    @given(small_configs(), st.integers(1, 40), st.integers(1, 9))
    @example(SimConfig(m=9, n=6, exposures_per_user=0, test_exposures_per_user=4, seed=1), 13, 4)
    @example(SimConfig(m=9, n=6, exposures_per_user=5, test_exposures_per_user=0, seed=2), 13, 4)
    @example(SimConfig(m=9, n=6, exposures_per_user=2, test_exposures_per_user=4, seed=3), 13, 4)
    @example(SimConfig(m=9, n=6, exposures_per_user=3, test_exposures_per_user=2,
                       exposure_skew=0.0, seed=4), 13, 4)
    @example(SimConfig(m=9, n=6, exposures_per_user=3, test_exposures_per_user=2,
                       exposure_skew=40.0, seed=5), 13, 4)
    def test_tables_inclusion_and_generator_states(self, config, draws, block):
        # a small block size puts block boundaries and short tails inside
        # both the user loop and the inclusion Monte Carlo
        train, test, inclusion, states = _generate_reference(config, draws)
        with mock.patch.object(simulate, "_BLOCK", block):
            synth, got_states = _generate_recording_states(config, draws)
        _assert_tables_equal(synth.dataset.train, train)
        _assert_tables_equal(synth.dataset.test, test)
        assert np.array_equal(synth.inclusion_probs, inclusion)
        assert got_states == states

    def test_default_block_with_a_short_tail(self):
        config = SimConfig(m=1003, n=7, latent_dim=2, exposures_per_user=2,
                           test_exposures_per_user=3, exposure_skew=3.0, seed=17)
        train, test, inclusion, states = _generate_reference(config, 1001)
        synth, got_states = _generate_recording_states(config, 1001)
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
