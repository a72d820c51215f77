from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cclrec import contrastive as C
from cclrec.contrastive import (
    CCLBatch,
    assemble_views,
    build_views,
    ccl_loss,
    ccl_loss_and_grad,
    make_sampler,
    sample_popularity_difference,
    sample_propensity_difference,
    sample_random_counterfactual,
    scatter_view_grads,
)
from cclrec.data import DatasetBundle, ExposureMatrix, InteractionTable
from cclrec.model import ModelParams, init_params
from cclrec.propensity import (
    PROPENSITY_FLOOR,
    PopularityTable,
    PropensityTable,
    estimate_popularity,
    estimate_propensity_nb,
    popularity_from_counts,
)
from cclrec.simulate import SimConfig, generate
from cclrec.training import TrainConfig, train


# Per-row ps and pop samplers, one call per positive: the oracle for the
# batched samplers.
def reference_row(table, user):
    """Length-n propensity vector of one user, built without PropensityTable.rows."""
    if table.kind == "dense":
        return table.dense[user]
    out = np.full(table.n, table.marginal)
    lab = table.label_grid[user]
    p0, p1 = table.class_probs
    out[lab == 0] = p0
    out[lab == 1] = p1
    return out


def ps_reference(propensities, user, item):
    """Item maximizing |P_{u,i'} - P_{u,item}| over i' != item; lowest index wins ties."""
    row = reference_row(propensities, user)
    diff = np.abs(row - row[item])
    diff[item] = -np.inf
    return int(np.argmax(diff))


def pop_reference(popularity, item):
    """Item maximizing |pop(i') - pop(item)| over i' != item; lowest index wins ties."""
    pop = popularity.values
    diff = np.abs(pop - pop[item])
    diff[item] = -np.inf
    return int(np.argmax(diff))


def reference_sampler(kind, bundle, propensities=None, popularity=None):
    """make_sampler with one per-row call per positive."""
    draw = {"cf": lambda u, i, rng: sample_random_counterfactual(bundle, u, i, rng),
            "ps": lambda u, i, rng: ps_reference(propensities, u, i),
            "pop": lambda u, i, rng: pop_reference(popularity, i)}[kind]

    def sample(users, items, rng=None):
        return np.array([draw(u, i, rng) for u, i in zip(users.tolist(), items.tolist())],
                        dtype=np.int64)

    return sample


def brute_force_loss(reps, tau, cosine=False):
    """Direct per-pair evaluation of the symmetric contrastive objective."""
    h = np.array(reps, dtype=np.float64)
    if cosine:
        h = h / np.linalg.norm(h, axis=1, keepdims=True)
    two_n = len(h)

    def l(a, b):
        num = np.exp(h[a] @ h[b] / tau)
        den = sum(np.exp(h[a] @ h[m] / tau) for m in range(two_n) if m != a)
        return -np.log(num / den)

    total = 0.0
    for k in range(two_n // 2):
        total += l(2 * k, 2 * k + 1) + l(2 * k + 1, 2 * k)
    return total / two_n


def reference_loss_and_grad(reps, tau, cosine, want_grad):
    """Straightforward kernel with one fresh 2N x 2N array per step.

    The row-blocked kernel must agree with it to KERNEL_RTOL.
    """
    two_n = reps.shape[0]
    h = reps
    norms = None
    if cosine:
        norms = np.maximum(np.linalg.norm(reps, axis=1, keepdims=True), 1e-12)
        h = reps / norms
    logits = (h @ h.T) / tau
    np.fill_diagonal(logits, -np.inf)
    row_max = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - row_max)
    denom = exp.sum(axis=1)
    partner = np.arange(two_n) ^ 1
    pos_logit = logits[np.arange(two_n), partner]
    losses = -(pos_logit - row_max[:, 0]) + np.log(denom)
    loss = float(losses.sum() / two_n)
    if not want_grad:
        return loss, None

    soft = exp / denom[:, None]
    grad_logits = soft
    grad_logits[np.arange(two_n), partner] -= 1.0
    grad_logits /= two_n
    np.fill_diagonal(grad_logits, 0.0)
    grad_s = grad_logits / tau
    grad_h = (grad_s + grad_s.T) @ h
    if cosine:
        inner = (grad_h * h).sum(axis=1, keepdims=True)
        grad_h = (grad_h - inner * h) / norms
    return loss, grad_h


def parent_loss_and_grad(reps, tau, cosine, want_grad):
    """The kernel before the row-blocked rewrite, kept as its oracle.

    It fills one 2N x 2N buffer with the logits in 128-column GEMMs, turns it
    into the logit gradient in place and multiplies out (G + G^T) h in
    256-row slices. Its logits, row maxima and row sums are the row-blocked
    kernel's element for element, so the losses are equal; the gradients are
    summed in another order.
    """
    two_n = reps.shape[0]
    h = reps
    norms = None
    if cosine:
        norms = np.maximum(np.linalg.norm(reps, axis=1, keepdims=True), 1e-12)
        h = reps / norms
    hs = h / tau
    g = np.empty((two_n, two_n))
    for c in range(0, two_n, 128):
        cols = slice(c, c + 128)
        np.matmul(h, hs[cols].T, out=g[:, cols])
    np.fill_diagonal(g, -np.inf)
    row_max = g.max(axis=1)
    rows = np.arange(two_n)
    partner = rows ^ 1
    pos_shifted = g[rows, partner] - row_max
    g -= row_max[:, None]
    np.exp(g, out=g)
    denom = g.sum(axis=1)
    losses = -pos_shifted + np.log(denom)
    loss = float(losses.sum() / two_n)
    if not want_grad:
        return loss, None

    scale = 1.0 / (two_n * tau)
    g *= (scale / denom)[:, None]
    g[rows, partner] -= scale
    grad_h = np.zeros_like(h)
    for k in range(0, two_n, 256):
        ks = slice(k, k + 256)
        grad_h += g[:, ks] @ h[ks]
        grad_h += g[ks].T @ h[ks]
    if cosine:
        inner = (grad_h * h).sum(axis=1, keepdims=True)
        grad_h = (grad_h - inner * h) / norms
    return loss, grad_h


def make_bundle(m, n, pairs):
    users, items = zip(*pairs)
    train = InteractionTable.from_lists(users, items, [5] * len(pairs))
    return DatasetBundle(m=m, n=n, train=train,
                         test=InteractionTable.from_lists((), (), ()),
                         exposure=ExposureMatrix(m, n, train))


class TestRandomCounterfactual:
    def test_single_unexposed_item_always_chosen(self):
        b = make_bundle(1, 3, [(0, 0), (0, 2)])
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_random_counterfactual(b, 0, 0, rng) == 1

    def test_uniform_over_unexposed(self):
        b = make_bundle(1, 8, [(0, 0), (0, 1), (0, 2), (0, 3)])
        rng = np.random.default_rng(1)
        draws = np.array([sample_random_counterfactual(b, 0, 0, rng)
                          for _ in range(10_000)])
        freqs = np.bincount(draws, minlength=8)[4:] / 10_000
        assert ((freqs > 0.20) & (freqs < 0.30)).all()

    def test_never_returns_exposed(self):
        b = make_bundle(2, 6, [(0, 1), (0, 4), (1, 2)])
        rng = np.random.default_rng(2)
        for _ in range(50):
            pick = sample_random_counterfactual(b, 0, 1, rng)
            assert not b.exposure.contains([0], [pick])[0]

    def test_all_exposed_falls_back_to_other_items(self):
        b = make_bundle(1, 3, [(0, 0), (0, 1), (0, 2)])
        rng = np.random.default_rng(3)
        picks = {sample_random_counterfactual(b, 0, 1, rng) for _ in range(50)}
        assert picks <= {0, 2}

    def test_single_item_error(self):
        b = make_bundle(1, 1, [(0, 0)])
        with pytest.raises(ValueError):
            sample_random_counterfactual(b, 0, 0, np.random.default_rng(0))


class TestPropensityDifference:
    def table(self, row):
        return PropensityTable(1, len(row), 1e-6, dense=np.array([row]))

    def test_largest_absolute_gap(self):
        assert sample_propensity_difference(self.table([0.9, 0.5, 0.2]), [0], [1]).tolist() == [0]

    def test_tie_goes_to_lowest_index(self):
        assert sample_propensity_difference(self.table([0.9, 0.5, 0.1]), [0], [1]).tolist() == [0]

    def test_never_anchor(self):
        t = self.table([0.5, 0.5, 0.5])
        for anchor in range(3):
            assert sample_propensity_difference(t, [0], [anchor])[0] != anchor

    def test_empty_batch(self):
        out = sample_propensity_difference(self.table([0.5, 0.1]), [], [])
        assert out.dtype == np.int64 and out.shape == (0,)


class TestPopularityDifference:
    def test_largest_absolute_gap(self):
        pop = PopularityTable(np.array([1.0, 0.70710678, 0.5]))
        assert sample_popularity_difference(pop, [1]).tolist() == [0]

    def test_total_tie_lowest_index(self):
        pop = PopularityTable(np.ones(4))
        assert sample_popularity_difference(pop, [0, 2]).tolist() == [1, 0]


LEVELS = (0.1, 0.5, 0.9)


@st.composite
def ps_pop_cases(draw):
    """A propensity table and a popularity vector over values from 2-3 levels,
    plus a batch whose anchors are often at their row's maximum or minimum."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    levels = draw(st.lists(st.sampled_from(LEVELS), min_size=2, max_size=3, unique=True))
    value = st.sampled_from(levels)
    kind = draw(st.sampled_from(["dense", "per-class"]))
    if kind == "dense":
        dense = np.array(draw(st.lists(value, min_size=m * n, max_size=m * n))).reshape(m, n)
        table = PropensityTable(m, n, 1e-6, dense=dense)
    else:
        grid = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=m * n, max_size=m * n))
        grid = np.array(grid, dtype=np.int8).reshape(m, n)
        table = PropensityTable(m, n, 1e-6, class_probs=(draw(value), draw(value)),
                                marginal=draw(value), label_grid=grid)
    pop = PopularityTable(np.array(draw(st.lists(value, min_size=n, max_size=n))))
    users, items = [], []
    for _ in range(draw(st.integers(0, 20))):
        u = draw(st.integers(0, m - 1))
        row = reference_row(table, u)
        where = draw(st.sampled_from(["any", "max", "min"]))
        picks = {"any": np.arange(n), "max": np.flatnonzero(row == row.max()),
                 "min": np.flatnonzero(row == row.min())}[where]
        users.append(u)
        items.append(int(draw(st.sampled_from(picks.tolist()))))
    return table, pop, np.array(users, dtype=np.int64), np.array(items, dtype=np.int64)


class TestBatchedSamplersMatchPerRowReference:
    @settings(max_examples=300, deadline=None)
    @given(case=ps_pop_cases(), chunk=st.integers(1, 7))
    def test_equal_to_per_row_oracle(self, case, chunk):
        table, pop, users, items = case
        want_ps = np.array([ps_reference(table, u, i) for u, i in zip(users, items)], dtype=np.int64)
        want_pop = np.array([pop_reference(pop, i) for i in items], dtype=np.int64)
        bundle = make_bundle(table.m, table.n, [(0, 0)])
        with mock.patch.object(C, "_SAMPLER_ROWS", chunk):
            got_ps = sample_propensity_difference(table, users, items)
            got_pop = sample_popularity_difference(pop, items)
            made_ps = make_sampler("ps", bundle, propensities=table)(users, items)
            made_pop = make_sampler("pop", bundle, popularity=pop)(users, items)
        for got, want in ((got_ps, want_ps), (made_ps, want_ps),
                          (got_pop, want_pop), (made_pop, want_pop)):
            assert got.dtype == np.int64 and got.shape == want.shape
            assert (got == want).all()

    def test_chunks_bound_the_rows_held(self):
        table = PropensityTable(3, 5, 1e-6, dense=np.random.default_rng(0).uniform(0.1, 1, (3, 5)))
        users = np.arange(11) % 3
        items = np.arange(11) % 5
        seen = []
        rows = table.rows
        with mock.patch.object(C, "_SAMPLER_ROWS", 4), \
                mock.patch.object(table, "rows", lambda u: seen.append(len(u)) or rows(u)):
            got = sample_propensity_difference(table, users, items)
        assert seen == [4, 4, 3]
        assert got.tolist() == [ps_reference(table, u, i) for u, i in zip(users, items)]


class TestBatchedSamplersTrainIdentically:
    """ps and pop training runs equal the same runs with the per-row sampler."""

    @pytest.fixture(scope="class")
    def setting(self):
        bundle = generate(SimConfig(m=40, n=20, exposures_per_user=6,
                                    test_exposures_per_user=4, seed=3),
                          inclusion_draws=20).dataset
        props = estimate_propensity_nb(bundle.train, bundle.test, bundle.m, bundle.n)
        return bundle, props, estimate_popularity(bundle)

    @pytest.mark.parametrize("sampler", ["ps", "pop"])
    @pytest.mark.parametrize("chunk", [7, 512])
    def test_same_bytes_as_per_row_sampler(self, setting, sampler, chunk):
        bundle, props, pop = setting
        cfg = TrainConfig(lam=0.5, sampler=sampler, max_epochs=4, batch_size=64,
                          embed_dim=4, patience=10, seed=2)
        with mock.patch.object(C, "_SAMPLER_ROWS", chunk):
            params, report = train(bundle, cfg, propensity=props, popularity=pop)
        with mock.patch.object(C, "make_sampler", reference_sampler):
            ref_params, ref_report = train(bundle, cfg, propensity=props, popularity=pop)
        assert [a.tobytes() for a in params.flat_arrays()] == \
            [a.tobytes() for a in ref_params.flat_arrays()]
        got, want = asdict(report), asdict(ref_report)
        del got["wall_clock"], want["wall_clock"]  # the one field that is a timing
        assert got == want
        assert report.sampler_calls == 4 * (len(bundle.train) - round(0.1 * len(bundle.train)))


class TestWhatPsAndPopPick:
    """ps and pop positives are extremes of their table, so they are a few fixed items.

    The farthest value from an anchor's is the largest or the smallest of its row,
    and argmax takes the lowest index among ties.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=2, max_size=30))
    def test_pop_picks_the_least_or_the_most_popular_item(self, counts):
        assume(min(counts) < max(counts))  # else every item is as popular
        pop, n = popularity_from_counts(np.array(counts)), len(counts)
        got = make_sampler("pop", make_bundle(1, n, [(0, 0)]), popularity=pop)(
            np.zeros(n, dtype=np.int64), np.arange(n))
        assert set(got.tolist()) <= {int(np.argmin(pop.values)), int(np.argmax(pop.values))}

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000))
    def test_ps_on_a_user_plus_item_logistic_table_picks_a_row_extreme(self, seed):
        # the shape of the logistic-regression estimate: monotone in s_i for every
        # user, and so is the clip, which ties the clipped items
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 25))
        s_u, s_i, b = rng.normal(0, 1, m), np.round(rng.normal(0, 2, n), 1), rng.normal()
        table = PropensityTable(m, n, PROPENSITY_FLOOR,
                                dense=1 / (1 + np.exp(-(s_u[:, None] + s_i + b))))
        users, items = np.repeat(np.arange(m), n), np.tile(np.arange(n), m)
        got = make_sampler("ps", make_bundle(m, n, [(0, 0)]), propensities=table)(users, items)
        for u in range(m):
            row = table.rows([u])[0]
            if row.min() < row.max():
                assert set(got[users == u].tolist()) <= {int(np.argmin(row)), int(np.argmax(row))}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_ps_on_a_naive_bayes_table_picks_an_exposed_item_of_the_other_label(self, seed):
        # with p0 < marginal < p1 the farthest from a label-1 anchor is p0, the
        # user's label-0 items, and the other way round
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 12)), int(rng.integers(4, 30))
        exposed = rng.random((m, n)) < 0.4
        exposed[np.arange(m), rng.integers(0, n, m)] = True  # no user without a pair
        users, items = np.nonzero(exposed)
        train = InteractionTable.from_lists(users, items, np.where(rng.random(len(users)) < 0.6, 5, 1))
        mcar = InteractionTable.from_lists(np.arange(30) % m, np.arange(30) % n,
                                           np.where(np.arange(30) % 3 == 0, 5, 1))
        table = estimate_propensity_nb(train, mcar, m, n)
        p0, p1 = table.class_probs
        assume(p0 < table.marginal < p1)
        got = make_sampler("ps", make_bundle(m, n, [(0, 0)]), propensities=table)(
            train.users, train.items)
        for u in range(m):
            mine, grid = train.users == u, table.label_grid[u]
            if set(train.labels[mine].tolist()) != {0, 1}:
                continue
            for label, pick in zip(train.labels[mine], got[mine]):
                assert pick == np.flatnonzero(grid == 1 - label)[0]  # lowest-indexed, exposed
            assert len(set(got[mine].tolist())) <= 2


class TestCCLLoss:
    def test_single_pair_is_zero(self):
        reps = np.random.default_rng(0).normal(size=(2, 4))
        assert ccl_loss(CCLBatch(reps, temperature=0.7)) == 0.0

    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [0.2, 1.0, 3.0])
    def test_matches_brute_force(self, n_pairs, tau):
        rng = np.random.default_rng(n_pairs * 10 + 1)
        reps = rng.normal(size=(2 * n_pairs, 4))
        got = ccl_loss(CCLBatch(reps, tau))
        assert got == pytest.approx(brute_force_loss(reps, tau), abs=1e-10)

    def test_cosine_matches_brute_force(self):
        rng = np.random.default_rng(5)
        reps = rng.normal(size=(6, 4))
        got = ccl_loss(CCLBatch(reps, 0.5), cosine=True)
        assert got == pytest.approx(brute_force_loss(reps, 0.5, cosine=True), abs=1e-10)

    def test_separation_drives_loss_to_zero(self):
        base = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        losses = [ccl_loss(CCLBatch(s * base, 1.0)) for s in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-4

    def test_pair_block_permutation_invariance(self):
        rng = np.random.default_rng(7)
        reps = rng.normal(size=(8, 3))
        perm = np.array([4, 5, 0, 1, 6, 7, 2, 3])  # reorder whole pairs
        a = ccl_loss(CCLBatch(reps, 0.9))
        b = ccl_loss(CCLBatch(reps[perm], 0.9))
        assert a == pytest.approx(b, abs=1e-12)

    def test_cosine_invariant_to_row_scaling(self):
        rng = np.random.default_rng(8)
        reps = rng.normal(size=(6, 4))
        scales = rng.uniform(0.5, 3.0, (6, 1))
        a = ccl_loss(CCLBatch(reps, 1.0), cosine=True)
        b = ccl_loss(CCLBatch(scales * reps, 1.0), cosine=True)
        assert a == pytest.approx(b, abs=1e-10)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            ccl_loss(CCLBatch(np.zeros((2, 2)), 0.0))

    def test_odd_row_count(self):
        with pytest.raises(ValueError):
            ccl_loss(CCLBatch(np.zeros((3, 2)), 1.0))

    @pytest.mark.parametrize("cosine", [False, True])
    def test_gradient_matches_finite_differences(self, cosine):
        rng = np.random.default_rng(11)
        reps = rng.normal(size=(6, 3))
        _, grad = ccl_loss_and_grad(CCLBatch(reps.copy(), 0.8), cosine=cosine)
        h = 1e-6
        for r in range(6):
            for c in range(3):
                up, down = reps.copy(), reps.copy()
                up[r, c] += h
                down[r, c] -= h
                num = (ccl_loss(CCLBatch(up, 0.8), cosine=cosine)
                       - ccl_loss(CCLBatch(down, 0.8), cosine=cosine)) / (2 * h)
                assert grad[r, c] == pytest.approx(num, abs=1e-6)


# The row-blocked kernel's loss equals the parent kernel's, byte for byte. Its
# gradient is summed in another order, and the reference's whole-matrix
# products round differently from both; measured differences stay below
# 1e-14 relative to the loss and to the largest gradient entry. An entry that
# is a near-total cancellation can differ by more relative to itself, hence
# the atol.
KERNEL_RTOL = 1e-12
TAUS = [1.0, 0.05, 0.01]


class TestCCLKernelMatchesReference:
    @staticmethod
    def check(reps, tau, cosine, want_grad):
        before = reps.copy()
        batch = CCLBatch(reps, tau)
        if want_grad:
            loss, grad = ccl_loss_and_grad(batch, cosine=cosine)
        else:
            loss, grad = ccl_loss(batch, cosine=cosine), None
        parent_loss, parent_grad = parent_loss_and_grad(before.copy(), tau, cosine, want_grad)
        assert loss == parent_loss
        ref_loss, ref_grad = reference_loss_and_grad(before.copy(), tau, cosine, want_grad)
        assert loss == pytest.approx(ref_loss, rel=KERNEL_RTOL, abs=0)
        if want_grad:
            for want in (parent_grad, ref_grad):
                np.testing.assert_allclose(grad, want, rtol=KERNEL_RTOL,
                                           atol=KERNEL_RTOL * np.abs(want).max())
        assert np.array_equal(reps, before)  # the caller's views are not written
        return loss, grad

    # sizes that are not multiples of the kernel's 128-row blocks, or one row
    # pair either side of one
    @pytest.mark.parametrize("two_n", [2, 8, 130, 592, 1024, 2000, 976, 1000, 1022, 1026, 2098])
    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("cosine", [False, True])
    @pytest.mark.parametrize("want_grad", [False, True])
    def test_bit_identical(self, two_n, tau, cosine, want_grad):
        rng = np.random.default_rng(two_n)
        reps = rng.normal(scale=0.3, size=(two_n, 16))
        self.check(reps, tau, cosine, want_grad)

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("cosine", [False, True])
    def test_every_even_size_up_to_300(self, tau, cosine):
        for two_n in range(2, 302, 2):
            reps = np.random.default_rng(two_n).normal(scale=0.3, size=(two_n, 16))
            self.check(reps, tau, cosine, want_grad=True)
            self.check(reps, tau, cosine, want_grad=False)

    def test_small_tau_does_not_overflow(self):
        rng = np.random.default_rng(3)
        reps = rng.normal(size=(16, 16))
        tau = 0.01
        raw = reps @ reps.T / tau
        np.fill_diagonal(raw, -np.inf)
        assert raw.max() > 710  # exp(raw logit) alone would overflow
        loss, grad = self.check(reps, tau, cosine=False, want_grad=True)
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()


class TestBuildViews:
    @pytest.fixture
    def setting(self):
        b = make_bundle(3, 6, [(0, 0), (0, 1), (1, 2), (2, 3), (2, 5)])
        params = init_params(3, 6, 4, 1, np.random.default_rng(4))
        return b, params

    def test_shape_and_interleaving(self, setting):
        b, params = setting
        users = np.array([0, 1, 2])
        items = np.array([0, 2, 3])
        batch = build_views(b, params, users, items, "cf", tau=1.0,
                            rng=np.random.default_rng(0))
        assert batch.representations.shape == (6, 8)
        d = params.d
        for k, (u, i) in enumerate(zip(users, items)):
            anchor = batch.representations[2 * k]
            positive = batch.representations[2 * k + 1]
            np.testing.assert_array_equal(anchor[:d], params.user_embeddings[u])
            np.testing.assert_array_equal(positive[:d], params.user_embeddings[u])
            np.testing.assert_array_equal(anchor[d:], params.item_embeddings[i])

    def test_cf_positive_items_unexposed(self, setting):
        b, params = setting
        rng = np.random.default_rng(1)
        batch = build_views(b, params, np.array([0, 2]), np.array([1, 5]),
                            "cf", tau=1.0, rng=rng)
        for u, pos in zip(batch.users, batch.positive_items):
            assert not b.exposure.contains([u], [pos])[0]

    def test_unknown_sampler(self, setting):
        b, params = setting
        with pytest.raises(ValueError, match="sampler"):
            build_views(b, params, np.array([0]), np.array([0]), "nope", tau=1.0)

    def test_cf_requires_rng(self, setting):
        b, params = setting
        with pytest.raises(ValueError, match="rng"):
            build_views(b, params, np.array([0]), np.array([0]), "cf", tau=1.0)

    def test_ps_and_pop_dispatch(self, setting):
        b, params = setting
        props = PropensityTable(3, 6, 1e-6,
                                dense=np.tile(np.linspace(0.1, 0.9, 6), (3, 1)))
        pop = PopularityTable(np.linspace(1.0, 0.1, 6))
        bp = build_views(b, params, np.array([0]), np.array([0]), "ps", tau=1.0,
                         propensities=props)
        assert bp.positive_items[0] == 5  # farthest propensity from item 0
        bq = build_views(b, params, np.array([0]), np.array([0]), "pop", tau=1.0,
                         popularity=pop)
        assert bq.positive_items[0] == 5


class TestMakeSampler:
    @pytest.fixture
    def setting(self):
        b = make_bundle(3, 6, [(0, 0), (0, 1), (1, 2), (2, 3), (2, 5)])
        props = PropensityTable(3, 6, 1e-6, dense=np.random.default_rng(2).uniform(0.1, 1, (3, 6)))
        pop = PopularityTable(np.linspace(1.0, 0.1, 6))
        return b, props, pop

    def test_each_kind_equals_its_per_sample_function(self, setting):
        b, props, pop = setting
        users = np.array([0, 1, 2, 2, 0])
        items = np.array([0, 2, 3, 5, 1])
        got = make_sampler("cf", b)(users, items, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        want = [sample_random_counterfactual(b, u, i, rng) for u, i in zip(users, items)]
        assert got.dtype == np.int64 and got.tolist() == want
        got = make_sampler("ps", b, propensities=props)(users, items)
        assert got.dtype == np.int64 and got.tolist() == [ps_reference(props, u, i)
                                                          for u, i in zip(users, items)]
        got = make_sampler("pop", b, popularity=pop)(users, items)
        assert got.dtype == np.int64 and got.tolist() == [pop_reference(pop, i) for i in items]

    @pytest.mark.parametrize("kind,match", [("nope", "sampler must be"),
                                            ("ps", "propensity table"),
                                            ("pop", "popularity table")])
    def test_checks_kind_and_table_when_made(self, setting, kind, match):
        with pytest.raises(ValueError, match=match):
            make_sampler(kind, setting[0])

    def test_empty_batch(self, setting):
        b, props, pop = setting
        empty = np.array([], dtype=np.int64)
        for out in (make_sampler("cf", b)(empty, empty, np.random.default_rng(0)),
                    make_sampler("ps", b, propensities=props)(empty, empty),
                    make_sampler("pop", b, popularity=pop)(empty, empty)):
            assert out.dtype == np.int64 and out.shape == (0,)


class TestScatterViewGrads:
    def test_matches_finite_differences_through_embeddings(self):
        b = make_bundle(3, 5, [(0, 0), (1, 1), (2, 2)])
        params = init_params(3, 5, 3, 1, np.random.default_rng(9))
        users = np.array([0, 1, 2])
        items = np.array([0, 1, 2])
        pos_items = np.array([3, 4, 3])
        tau, lam = 0.7, 0.6

        def loss(p):
            return lam * ccl_loss(CCLBatch(assemble_views(p, users, items, pos_items), tau))

        batch = CCLBatch(assemble_views(params, users, items, pos_items), tau,
                         users=users, anchor_items=items, positive_items=pos_items)
        _, grad_reps = ccl_loss_and_grad(batch)
        grads = ModelParams.zeros_like(params)
        scatter_view_grads(params, batch, grad_reps, grads, scale=lam)

        h = 1e-6
        for arr, g_arr in ((params.user_embeddings, grads.user_embeddings),
                           (params.item_embeddings, grads.item_embeddings)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                up = loss(params)
                arr[ix] = orig - h
                down = loss(params)
                arr[ix] = orig
                assert g_arr[ix] == pytest.approx((up - down) / (2 * h), abs=1e-6)

    def test_duplicate_rows_accumulate(self):
        params = init_params(2, 4, 2, 1, np.random.default_rng(0))
        users = np.array([0, 0])
        items = np.array([1, 1])
        pos = np.array([2, 3])
        batch = CCLBatch(assemble_views(params, users, items, pos), 1.0,
                         users=users, anchor_items=items, positive_items=pos)
        grad_reps = np.ones((4, 4))
        grads = ModelParams.zeros_like(params)
        scatter_view_grads(params, batch, grad_reps, grads)
        # user 0 appears in all four views, items 1 in two anchor views
        np.testing.assert_allclose(grads.user_embeddings[0], [4.0, 4.0])
        np.testing.assert_allclose(grads.item_embeddings[1], [2.0, 2.0])
        np.testing.assert_allclose(grads.item_embeddings[2], [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_three_row_scatters_bit_for_bit(self, seed):
        # the users', then the anchors', then the positives' 2-D np.add.at; items are
        # both anchors and positives, and the buffer already holds a gradient
        rng = np.random.default_rng(seed)
        params = init_params(5, 4, 3, 1, rng)
        users, items, pos = rng.integers(0, 5, 300), rng.integers(0, 4, 300), rng.integers(0, 4, 300)
        batch = CCLBatch(assemble_views(params, users, items, pos), 1.0,
                         users=users, anchor_items=items, positive_items=pos)
        grad_reps = rng.normal(size=(600, 6)) * 10.0 ** rng.integers(-8, 17, (600, 6))
        grads = ModelParams.zeros_like(params)
        grads.flat[:] = rng.normal(size=grads.flat.size)
        want = grads.copy()
        g = 0.7 * grad_reps
        np.add.at(want.user_embeddings, users, g[0::2, :3] + g[1::2, :3])
        np.add.at(want.item_embeddings, items, g[0::2, 3:])
        np.add.at(want.item_embeddings, pos, g[1::2, 3:])
        scatter_view_grads(params, batch, grad_reps, grads, scale=0.7)
        assert np.array_equal(grads.flat.view(np.uint64), want.flat.view(np.uint64))
