"""The benchmark's workloads: what each sets up, which arms it runs, what it checks.

An operation is one arm: ``training.train`` followed by ``metrics.evaluate``
(and, on ``yahoo-mle``, a checkpoint write in between, as ``cclrec train``
does). A round runs every arm of the workload once, in a fixed order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from cclrec import contrastive as C
from cclrec import data as D
from cclrec import metrics as MET
from cclrec import model as M
from cclrec import propensity as P
from cclrec import simulate as SIM
from cclrec import training as T

import bench_checks as CHK
import bench_yahoo

# Criterion 9's training settings (SIM_TRAIN in tests/test_acceptance.py),
# except max_epochs: 100 epochs make one CCL arm take about 40 s on a 2-core
# machine, more than one run of the benchmark may last. 10 epochs keep every
# layer's per-epoch cost and the arms' order of cost, and make a round short
# enough that a 40 s run holds several of them, so the evaluate calls
# that follow each arm are spread over the whole run.
SIM_EPOCHS = 10
SIM_TRAIN = T.TrainConfig(lam=0.0, tau=1.0, batch_size=512, embed_dim=8,
                          hidden_layers=1, learning_rate=1e-3,
                          max_epochs=SIM_EPOCHS, patience=12)
SIM_INCLUSION_DRAWS = 2000
# `cclrec train` defaults, plain MLE, cut to the 3 epochs the layer shares
# were measured over.
YAHOO_TRAIN = T.TrainConfig(lam=0.0, max_epochs=3)
CHECK_PAIRS = 512  # one training batch for the sampler and kernel checks
KERNEL_COORDS = 3  # gradient coordinates checked by central differences


@dataclass
class Arm:
    name: str
    config: T.TrainConfig


@dataclass
class Inputs:
    """What one set-up builds; the arms read it and never change it."""

    bundle: D.DatasetBundle
    propensity: Optional[P.PropensityTable] = None
    popularity: Optional[P.PopularityTable] = None
    checkpoint: Optional[Path] = None


@dataclass
class OpResult:
    params: M.ModelParams
    report: T.TrainReport
    metrics: MET.MetricsReport
    train_s: float
    eval_times: list[float]
    pairs: int


class Workload:
    name = ""
    # evaluate() calls per operation. One sim evaluate takes 25-45 ms, so an
    # operation measures it for about 1 s; eval_s averages every call of a run.
    eval_repeats = 25

    def __init__(self, seed: int, out_dir: Path, cache_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.cache_dir = cache_dir

    def prepare(self) -> None:
        """Untimed work before set-up, such as writing input files."""

    def setup(self) -> Inputs:
        raise NotImplementedError

    def arms(self) -> list[Arm]:
        raise NotImplementedError

    def run_op(self, arm: Arm, inputs: Inputs) -> OpResult:
        start = time.perf_counter()
        params, report = T.train(inputs.bundle, arm.config, propensity=inputs.propensity,
                                 popularity=inputs.popularity)
        train_s = time.perf_counter() - start
        if inputs.checkpoint is not None:
            M.save_checkpoint(inputs.checkpoint, params)
        eval_times = []
        for _ in range(self.eval_repeats):
            start = time.perf_counter()
            metrics = MET.evaluate(params, inputs.bundle)
            eval_times.append(time.perf_counter() - start)
        k = len(inputs.bundle.train)
        pairs = report.epochs_run * (k - int(round(arm.config.val_fraction * k)))
        return OpResult(params, report, metrics, train_s, eval_times, pairs)

    def check_inputs(self, inputs: Inputs) -> list[str]:
        raise NotImplementedError

    def check_op(self, arm: Arm, inputs: Inputs, op: OpResult) -> list[str]:
        """Every check that reads one arm's outputs."""
        bundle, cfg = inputs.bundle, arm.config
        train, test = bundle.train, bundle.test
        scores = M.forward(op.params, test.users, test.items).y
        problems = CHK.check_metrics(op.metrics, test.users, test.items, scores, test.labels)
        problems += CHK.check_better_than_chance(
            arm.name, CHK.auc_reference(M.forward(op.params, train.users, train.items).y, train.labels))
        problems += CHK.check_early_stopping(op.report, cfg.max_epochs, cfg.patience)

        # positives for one training batch, drawn after training
        users = train.users[:CHECK_PAIRS]
        items = train.items[:CHECK_PAIRS]
        sampler = cfg.sampler if cfg.lam > 0 else "cf"
        views = C.build_views(bundle, op.params, users, items, sampler, cfg.tau,
                              rng=np.random.default_rng(self.seed),
                              propensities=inputs.propensity, popularity=inputs.popularity)
        if sampler == "cf":
            exposed = CHK.exposure_sets(train.users, train.items)
            problems += CHK.check_cf_positives(users, views.positive_items, exposed)
        elif sampler == "ps":
            problems += CHK.check_argmax_positives(
                "ps", items, views.positive_items, lambda k: inputs.propensity.row(int(users[k])))
        else:
            problems += CHK.check_argmax_positives(
                "pop", items, views.positive_items, lambda k: inputs.popularity.values)

        reps = views.representations.copy()
        loss, grad = C.ccl_loss_and_grad(views, cosine=cfg.cosine)
        rng = np.random.default_rng(self.seed)
        coords = list(zip(rng.integers(0, reps.shape[0], KERNEL_COORDS).tolist(),
                          rng.integers(0, reps.shape[1], KERNEL_COORDS).tolist()))
        problems += CHK.check_kernel(loss, grad, reps, cfg.tau, coords)

        if inputs.checkpoint is not None:
            problems += CHK.check_same_arrays(
                f"{arm.name} checkpoint round trip",
                M.load_checkpoint(inputs.checkpoint).flat_arrays(), op.params.flat_arrays())
        return [f"{arm.name}: {p}" for p in problems]

    def check_run(self, arms: list[Arm], inputs: Inputs, rounds: list[list]) -> list[str]:
        """The inputs, every arm of the first round, and bit-identical parameters across rounds."""
        problems = self.check_inputs(inputs)
        for k, arm in enumerate(arms):
            done = [r[k] for r in rounds if r[k] is not None]
            if not done:
                continue
            problems += self.check_op(arm, inputs, done[0])
            for op in done[1:]:
                problems += [f"{arm.name}: rounds differ: {p}" for p in CHK.check_same_arrays(
                    "final parameters", op.params.flat_arrays(), done[0].params.flat_arrays())]
        return problems


class SimWorkload(Workload):
    """One criterion-9 bundle: SimConfig(seed) defaults."""

    def sim_config(self) -> SIM.SimConfig:
        return SIM.SimConfig(seed=self.seed)

    def generate(self) -> SIM.SyntheticBundle:
        return SIM.generate(self.sim_config(), inclusion_draws=SIM_INCLUSION_DRAWS)

    def check_inputs(self, inputs: Inputs) -> list[str]:
        cfg, b = self.sim_config(), inputs.bundle
        return CHK.check_split_counts(b.train.users, b.train.items, b.test.users, b.test.items,
                                      b.m, cfg.exposures_per_user, cfg.test_exposures_per_user)


class SimDebias(SimWorkload):
    name = "sim-debias"

    def setup(self) -> Inputs:
        synth = self.generate()
        b = synth.dataset
        # the oracle propensities of criterion 9: true marginal inclusion, floored
        dense = np.tile(np.maximum(synth.inclusion_probs, 1e-3), (b.m, 1))
        return Inputs(b, propensity=P.PropensityTable(b.m, b.n, 1e-3, dense=dense))

    def arms(self) -> list[Arm]:
        base = replace(SIM_TRAIN, seed=self.seed)
        return [Arm("mle", base),
                Arm("ccl_cf", replace(base, lam=1.0, sampler="cf")),
                Arm("ips", replace(base, rec_objective="ips", propensity_source="oracle"))]


class SimSamplers(SimWorkload):
    name = "sim-samplers"

    def setup(self) -> Inputs:
        b = self.generate().dataset
        return Inputs(b, propensity=P.estimate_propensity_nb(b.train, b.test, b.m, b.n),
                      popularity=P.estimate_popularity(b))

    def arms(self) -> list[Arm]:
        base = replace(SIM_TRAIN, seed=self.seed, lam=1.0)
        return [Arm("ccl_ps", replace(base, sampler="ps")),
                Arm("ccl_pop", replace(base, sampler="pop"))]


class YahooMLE(Workload):
    name = "yahoo-mle"
    eval_repeats = 2  # about 2 s each; a round takes about 12 s, so a 40 s run holds 2-3

    def prepare(self) -> None:
        self.written = bench_yahoo.generate(self.seed)
        self.paths = bench_yahoo.ensure_files(self.cache_dir, self.seed, *self.written)

    def setup(self) -> Inputs:
        bundle = D.load_triples(*self.paths, m=bench_yahoo.USERS, n=bench_yahoo.ITEMS)
        return Inputs(bundle, checkpoint=self.out_dir / f"{self.name}-seed{self.seed}.ckpt")

    def arms(self) -> list[Arm]:
        return [Arm("mle", replace(YAHOO_TRAIN, seed=self.seed))]

    def check_inputs(self, inputs: Inputs) -> list[str]:
        train, test = self.written
        return (CHK.check_loaded_table("train", inputs.bundle.train, train.users, train.items, train.ratings)
                + CHK.check_loaded_table("test", inputs.bundle.test, test.users, test.items, test.ratings))


WORKLOADS = {w.name: w for w in (SimDebias, SimSamplers, YahooMLE)}
