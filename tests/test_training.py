import re
from dataclasses import replace

import numpy as np
import pytest

from cclrec import contrastive as C
from cclrec import model as M
from cclrec.contrastive import CCLBatch, assemble_views, ccl_loss
from cclrec.data import DatasetBundle, ExposureMatrix, InteractionTable
from cclrec.metrics import SCORE_ROWS, MetricsReport
from cclrec.training import (
    TrainConfig,
    _validation_loss,
    batch_objective,
    run_ablation,
    run_sampler_sweep,
    train,
)


def toy_bundle(m=6, n=8, per_user=4, seed=0):
    rng = np.random.default_rng(seed)
    users, items, ratings = [], [], []
    for u in range(m):
        chosen = rng.choice(n, per_user, replace=False)
        users.extend([u] * per_user)
        items.extend(chosen.tolist())
        ratings.extend(rng.integers(1, 6, per_user).tolist())
    train_t = InteractionTable.from_lists(users, items, ratings)
    test_t = InteractionTable.from_lists(
        [0, 0, 1, 1, 2, 2], [0, 1, 2, 3, 4, 5], [5, 1, 4, 2, 5, 1])
    return DatasetBundle(m=m, n=n, train=train_t, test=test_t,
                         exposure=ExposureMatrix(m, n, train_t))


def params_equal(a, b):
    return all((x == y).all() for x, y in zip(a.flat_arrays(), b.flat_arrays()))


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"lam": -0.1}, {"tau": 0.0}, {"sampler": "x"}, {"focal_gamma": -0.5},
        {"rec_objective": "dr"}, {"val_fraction": 1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs).validate()

    @pytest.mark.parametrize("kwargs, message", [
        ({"propensity_source": "bogus"}, "unknown propensity source 'bogus'"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"batch_size": -5}, "batch_size must be >= 1"),
        ({"embed_dim": 0}, "embed_dim must be >= 1"),
        ({"hidden_layers": -1}, "hidden_layers must be >= 0"),
        ({"max_epochs": -1}, "max_epochs must be >= 0"),
        ({"patience": -1}, "patience must be >= 0"),
        ({"weight_decay": -5.0}, "weight_decay must be >= 0"),
        ({"learning_rate": 0.0}, "learning_rate must be positive"),
        ({"learning_rate": -0.01}, "learning_rate must be positive"),
        ({"focal_gamma": -1.0}, "focal_gamma must be >= 0"),
        ({"lam": float("nan")}, "lam must be finite, got nan"),
        ({"lam": float("inf")}, "lam must be finite, got inf"),
        ({"tau": float("nan")}, "tau must be finite, got nan"),
        ({"tau": float("inf")}, "tau must be finite, got inf"),
        ({"learning_rate": float("nan")}, "learning_rate must be finite, got nan"),
        ({"learning_rate": float("inf")}, "learning_rate must be finite, got inf"),
        ({"weight_decay": float("nan")}, "weight_decay must be finite, got nan"),
        ({"weight_decay": float("inf")}, "weight_decay must be finite, got inf"),
        ({"focal_gamma": float("nan")}, "focal_gamma must be finite, got nan"),
        ({"focal_gamma": float("inf")}, "focal_gamma must be finite, got inf"),
        ({"lam": float("-inf")}, "lam must be finite, got -inf"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ])
    def test_train_rejects_values_it_cannot_run(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs).validate()
        with pytest.raises(ValueError, match=message):
            train(toy_bundle(), TrainConfig(**{"max_epochs": 1, **kwargs}))

    @pytest.mark.parametrize("kwargs", [
        {"propensity_source": "oracle"}, {"batch_size": 1}, {"embed_dim": 1},
        {"hidden_layers": 0}, {"max_epochs": 0}, {"patience": 0},
        {"weight_decay": 0.0}, {"focal_gamma": 0.0},
    ])
    def test_accepts_the_smallest_valid_values(self, kwargs):
        TrainConfig(**kwargs).validate()

    def test_kv_round_trip(self):
        cfg = TrainConfig(lam=0.3, tau=0.5, sampler="pop", cosine=True,
                          max_epochs=7, rec_objective="snips")
        assert TrainConfig.from_kv(cfg.to_kv()) == cfg

    @pytest.mark.parametrize("value, want", [("True", True), ("false", False), ("YES", True),
                                             ("no", False), ("1", True), ("0", False)])
    def test_kv_booleans(self, value, want):
        assert TrainConfig.from_kv(f"cosine = {value}\n").cosine is want

    @pytest.mark.parametrize("value", ["ture", "on", "off", "", "2"])
    def test_kv_rejects_unreadable_boolean(self, value):
        with pytest.raises(ValueError, match="config line 2: cosine"):
            TrainConfig.from_kv(f"lam = 1\ncosine = {value}\n")

    @pytest.mark.parametrize("cosine", [True, False])
    def test_kv_round_trips_both_booleans(self, cosine):
        cfg = TrainConfig(cosine=cosine)
        assert TrainConfig.from_kv(cfg.to_kv()) == cfg

    def test_kv_comments_and_blanks(self):
        cfg = TrainConfig.from_kv("# comment\n\nlam = 0.25  # inline\nseed = 3\n")
        assert cfg.lam == 0.25 and cfg.seed == 3

    def test_kv_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            TrainConfig.from_kv("nope = 1\n")

    @pytest.mark.parametrize("key", ["log_batches", "seeds", "mode", "pretrain_epochs",
                                     "loss_kind"])
    def test_kv_rejects_removed_and_foreign_keys(self, key):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            TrainConfig.from_kv(f"{key} = 1\n")

    @pytest.mark.parametrize("line, message", [
        ("batch_size = abc", "config line 2: batch_size must be int, got 'abc'"),
        ("max_epochs = 1.5", "config line 2: max_epochs must be int, got '1.5'"),
        ("lam = x", "config line 2: lam must be float, got 'x'"),
        ("tau =", "config line 2: tau must be float, got ''"),
    ])
    def test_kv_rejects_unreadable_number_by_line_and_key(self, line, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig.from_kv(f"seed = 1\n{line}\n")

    def test_kv_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            TrainConfig.from_kv("lam = 1\nbroken line\n")

    @pytest.mark.parametrize("text, message", [
        ("lam = 1\nlam = 0\n", "config line 2: duplicate key 'lam' (first on line 1)"),
        ("lam = 1\nlam = 1\n", "config line 2: duplicate key 'lam' (first on line 1)"),
        ("# head\nseed = 3\n\ntau = 0.5\nseed=4  # again\n",
         "config line 5: duplicate key 'seed' (first on line 2)"),
    ])
    def test_kv_rejects_a_repeated_key(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig.from_kv(text)


class TestBatchObjective:
    def test_total_is_rec_plus_scaled_ccl(self):
        rng = np.random.default_rng(0)
        params = M.init_params(4, 6, 3, 1, rng)
        users = np.array([0, 1, 2])
        items = np.array([0, 1, 2])
        labels = np.array([1.0, 0.0, 1.0])
        weights = np.full(3, 1 / 3)
        pos = np.array([3, 4, 5])
        lam, tau = 0.7, 0.9
        total, rec, cclv, _ = batch_objective(params, users, items, labels,
                                              weights, lam, tau, pos_items=pos)
        assert total == pytest.approx(rec + lam * cclv, abs=1e-12)
        out = M.forward(params, users, items)
        log_loss = -(labels * np.log(out.y + 1e-12) + (1 - labels) * np.log(1 - out.y + 1e-12))
        assert rec == pytest.approx(float((weights * log_loss).sum()), abs=1e-12)
        reps = assemble_views(params, users, items, pos)
        assert cclv == pytest.approx(ccl_loss(CCLBatch(reps, tau)), abs=1e-12)

    def test_lam_zero_skips_contrastive(self):
        rng = np.random.default_rng(1)
        params = M.init_params(3, 3, 2, 1, rng)
        total, rec, cclv, _ = batch_objective(
            params, np.array([0]), np.array([1]), np.array([1.0]),
            np.array([1.0]), lam=0.0, tau=1.0, pos_items=np.array([2]))
        assert cclv == 0.0 and total == rec


class TestValidationLoss:
    """The validation CCL is scored in chunks of batch_size pairs."""

    @staticmethod
    def setting(n_val, batch_size, cosine=False, m=20):
        b = toy_bundle(m=m, n=12, per_user=6, seed=4)
        val = b.train.subset(np.arange(n_val))
        cfg = TrainConfig(lam=0.7, tau=0.4, batch_size=batch_size, embed_dim=4, cosine=cosine)
        params = M.init_params(b.m, b.n, cfg.embed_dim, cfg.hidden_layers, np.random.default_rng(0))
        return params, cfg, val, C.make_sampler("cf", b)

    @staticmethod
    def per_chunk_loop(params, cfg, val, sampler, rng):
        rec = M.per_sample_loss(M.forward(params, val.users, val.items).y, val.labels).mean()
        pos = sampler(val.users, val.items, rng)
        total, rows = 0.0, 0
        for lo in range(0, len(val), cfg.batch_size):
            sl = slice(lo, lo + cfg.batch_size)
            reps = assemble_views(params, val.users[sl], val.items[sl], pos[sl])
            total += len(reps) * ccl_loss(CCLBatch(reps, cfg.tau), cosine=cfg.cosine)
            rows += len(reps)
        return float(rec + cfg.lam * total / rows)

    # 120 = 3 x 40; 81 leaves a last chunk of one pair; 7 is one partial chunk
    @pytest.mark.parametrize("n_val,batch_size", [(120, 40), (81, 40), (7, 16), (5, 1)])
    @pytest.mark.parametrize("cosine", [False, True])
    def test_equals_per_chunk_loop(self, n_val, batch_size, cosine):
        params, cfg, val, sampler = self.setting(n_val, batch_size, cosine)
        got = _validation_loss(params, cfg, val, sampler, np.random.default_rng(9))
        want = self.per_chunk_loop(params, cfg, val, sampler, np.random.default_rng(9))
        assert got == want

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_split_larger_than_score_rows(self, lam):
        # 1,500 users x 6 pairs of train, of which SCORE_ROWS + 3 form the split
        params, cfg, val, sampler = self.setting(SCORE_ROWS + 3, 512, m=1500)
        cfg = replace(cfg, lam=lam)
        got = _validation_loss(params, cfg, val, sampler, np.random.default_rng(9))
        want = self.per_chunk_loop(params, cfg, val, sampler, np.random.default_rng(9))
        assert got == want

    def test_chunks_hold_at_most_batch_size_pairs(self, monkeypatch):
        params, cfg, val, sampler = self.setting(81, 40)
        seen = []
        original = C.ccl_loss

        def recording(batch, *args, **kwargs):
            seen.append(batch.representations.shape[0])
            return original(batch, *args, **kwargs)

        monkeypatch.setattr(C, "ccl_loss", recording)
        _validation_loss(params, cfg, val, sampler, np.random.default_rng(9))
        assert seen == [80, 80, 2]  # the last chunk is exactly one pair

    def test_draws_positives_with_one_sampler_call(self):
        params, cfg, val, sampler = self.setting(81, 40)
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        _validation_loss(params, cfg, val, sampler, rng)
        sampler(val.users, val.items, ref)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestTrain:
    def test_deterministic(self):
        b = toy_bundle()
        cfg = TrainConfig(lam=0.5, max_epochs=5, batch_size=8, embed_dim=4,
                          patience=10, seed=3)
        p1, r1 = train(b, cfg)
        p2, r2 = train(b, cfg)
        assert params_equal(p1, p2)
        assert r1.total_losses == r2.total_losses

    def test_lam_zero_matches_disabled_ccl_trajectory(self):
        b = toy_bundle()
        common = dict(max_epochs=6, batch_size=8, embed_dim=4, patience=10, seed=1)
        p_zero, r_zero = train(b, TrainConfig(lam=0.0, **common))
        # sampler choice is irrelevant when the contrastive weight is zero
        p_pop, r_pop = train(b, TrainConfig(lam=0.0, sampler="pop", **common))
        assert params_equal(p_zero, p_pop)
        assert r_zero.sampler_calls == 0 and r_pop.sampler_calls == 0

    def test_sampler_called_once_per_training_sample(self):
        b = toy_bundle()
        cfg = TrainConfig(lam=1.0, max_epochs=3, batch_size=8, embed_dim=4,
                          patience=10, val_fraction=0.0, seed=0)
        _, rep = train(b, cfg)
        assert rep.sampler_calls == 3 * len(b.train)

    def test_descends_on_fittable_instance(self):
        rng = np.random.default_rng(2)
        users = np.repeat(np.arange(3), 3)
        items = np.tile(np.arange(3), 3)
        ratings = np.where((users + items) % 2 == 0, 5, 1)
        table = InteractionTable.from_lists(users, items, ratings)
        b = DatasetBundle(m=3, n=3, train=table, test=table,
                          exposure=ExposureMatrix(3, 3, table))
        cfg = TrainConfig(lam=0.0, max_epochs=200, batch_size=16, embed_dim=4,
                          learning_rate=3e-2, patience=200, val_fraction=0.0, seed=0)
        _, rep = train(b, cfg)
        assert rep.total_losses[-1] < rep.total_losses[0]

    def test_early_stopping_respects_patience(self):
        b = toy_bundle(seed=5)
        cfg = TrainConfig(lam=0.0, max_epochs=400, batch_size=8, embed_dim=4,
                          learning_rate=3e-2, patience=3, val_fraction=0.25, seed=0)
        _, rep = train(b, cfg)
        assert rep.epochs_run < 400
        # training never continues more than patience+1 epochs past the best
        assert rep.epochs_run - 1 - rep.best_epoch <= cfg.patience + 1

    def test_best_params_snapshot_not_last(self):
        b = toy_bundle(seed=7)
        cfg = TrainConfig(lam=0.0, max_epochs=50, batch_size=8, embed_dim=4,
                          learning_rate=5e-2, patience=6, val_fraction=0.25, seed=2)
        params, rep = train(b, cfg)
        assert rep.best_epoch <= rep.epochs_run - 1

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_one_gradient_buffer_equals_a_fresh_one_per_batch(self, monkeypatch, lam):
        b = toy_bundle(m=12, n=10, per_user=6, seed=4)
        cfg = TrainConfig(lam=lam, max_epochs=3, batch_size=16, embed_dim=4, patience=10, seed=5)
        buffers = []
        adam_step = M.adam_step
        monkeypatch.setattr(M, "adam_step", lambda p, g, *a, **k: (buffers.append(g),
                                                                    adam_step(p, g, *a, **k)))
        got, _ = train(b, cfg)
        assert len(buffers) == 3 * 5 and all(g is buffers[0] for g in buffers)
        assert not buffers[0].flat.any()  # cleared after the last step
        # the reference: backward allocates a new zero buffer for every batch
        backward = M.backward
        monkeypatch.setattr(M, "backward", lambda *a, grads=None, **k: backward(*a, **k))
        want, _ = train(b, cfg)
        assert got.flat.tobytes() == want.flat.tobytes()

    def test_without_a_validation_split_the_last_epoch_is_best(self):
        b = toy_bundle()
        cfg = TrainConfig(lam=0.0, max_epochs=4, batch_size=8, embed_dim=4, patience=0,
                          val_fraction=0.0, seed=0)
        params, rep = train(b, cfg)
        assert rep.epochs_run == 4 and rep.best_epoch == 3
        assert len(rep.val_losses) == 4 and np.isnan(rep.val_losses).all()
        longer, _ = train(b, TrainConfig(**{**vars(cfg), "max_epochs": 5}))
        assert params.flat.tobytes() != longer.flat.tobytes()

    def test_empty_train_rejected(self):
        empty = InteractionTable.from_lists((), (), ())
        test_t = InteractionTable.from_lists([0], [0], [5])
        b = DatasetBundle(m=1, n=2, train=empty, test=test_t,
                          exposure=ExposureMatrix(1, 2, empty))
        with pytest.raises(ValueError, match="empty training"):
            train(b, TrainConfig(val_fraction=0.0))


class TestSweeps:
    @pytest.fixture
    def bundle(self):
        return toy_bundle(m=8, n=10, per_user=5, seed=9)

    @pytest.fixture
    def cfg(self):
        return TrainConfig(lam=0.5, max_epochs=2, batch_size=16, embed_dim=4,
                           patience=5, seed=0)

    def test_ablation_schema(self, bundle, cfg):
        rows = run_ablation(bundle, cfg, seeds=[0, 1])
        assert len(rows) == 4
        assert {r["arm"] for r in rows} == {"with_ccl", "without_ccl"}
        for r in rows:
            for col in MetricsReport.COLUMNS:
                assert col in r

    def test_ablation_identical_arms_when_lam_zero(self, bundle):
        cfg = TrainConfig(lam=0.0, max_epochs=2, batch_size=16, embed_dim=4,
                          patience=5, seed=0)
        rows = run_ablation(bundle, cfg, seeds=[0])
        with_ccl = next(r for r in rows if r["arm"] == "with_ccl")
        without = next(r for r in rows if r["arm"] == "without_ccl")
        assert {k: v for k, v in with_ccl.items() if k != "arm"} == \
               {k: v for k, v in without.items() if k != "arm"}

    def test_sampler_sweep_schema(self, bundle, cfg):
        rows = run_sampler_sweep(bundle, cfg, seeds=[0])
        assert [r["arm"] for r in rows] == ["cf", "ps", "pop", "no-ssl"]
