"""Experiment harness.

Subcommands: prepare, train, evaluate, ablate, sweep-samplers, simulate,
export-embeddings. Every run writes its resolved configuration next to its
outputs; all randomness flows from explicit seeds. Exit codes: 2 config
error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from cclrec import contrastive as C
from cclrec import metrics as MET
from cclrec import model as M
from cclrec import simulate as SIM
from cclrec import training as T
from cclrec.data import DataFormatError, DatasetBundle, load_coat, load_triples

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_results(path, rows: list[dict]) -> None:
    """Per-seed rows plus per-arm mean and std rows, tab-separated."""
    if not rows:
        raise ValueError("no result rows")
    columns = list(rows[0].keys())
    every = rows + [row for pair in aggregate(rows).values() for row in pair]
    lines = ["\t".join(columns)] + ["\t".join(_fmt(row[c]) for c in columns) for row in every]
    Path(path).write_text("\n".join(lines) + "\n")


def aggregate(rows: list[dict]) -> dict[str, list[dict]]:
    """Mean and std rows per arm, recomputable exactly from the per-seed rows."""
    out: dict[str, list[dict]] = {}
    arms = dict.fromkeys(row["arm"] for row in rows)  # first-seen order
    numeric = [c for c in rows[0] if c not in ("arm", "seed")]
    for arm in arms:
        group = [r for r in rows if r["arm"] == arm]
        mean_row = {"arm": arm, "seed": "mean"}
        std_row = {"arm": arm, "seed": "std"}
        for c in numeric:
            vals = np.array([r[c] for r in group], dtype=np.float64)
            mean_row[c] = float(vals.mean())
            std_row[c] = float(vals.std())
        out[arm] = [mean_row, std_row]
    return out


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--dataset {args.dataset} needs --{name.replace('_', '-')}")


def load_bundle(args) -> DatasetBundle:
    if args.dataset == "coat":
        _require(args, "data_dir")
        return load_coat(args.data_dir)
    if args.dataset == "triples":
        _require(args, "data_dir", "num_users", "num_items")
        return load_triples(Path(args.data_dir) / "train.txt",
                            Path(args.data_dir) / "test.txt",
                            m=args.num_users, n=args.num_items,
                            one_based=args.one_based)
    if args.dataset == "synthetic":
        cfg = SIM.SimConfig(m=500 if args.num_users is None else args.num_users,
                            n=100 if args.num_items is None else args.num_items,
                            exposure_skew=args.exposure_skew, seed=args.sim_seed)
        return SIM.generate(cfg).dataset
    raise ValueError(f"unknown dataset kind {args.dataset!r}")


def build_config(args) -> T.TrainConfig:
    config = getattr(args, "config", None)
    cfg = T.TrainConfig.from_kv(Path(config).read_text()) if config else T.TrainConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(T.TrainConfig)
                 if getattr(args, f.name, None) is not None}
    cfg = replace(cfg, **overrides)
    cfg.validate()
    if cfg.propensity_source == "oracle":  # only a config file can name it; the flag cannot
        raise ValueError("propensity_source = oracle: no CLI dataset carries "
                         "ground-truth propensities")
    return cfg


def write_config(out_dir: Path, config: T.TrainConfig, seeds: list[int]) -> None:
    """config.txt for --config: the first seed, and the seed list as a comment."""
    (out_dir / "config.txt").write_text(
        replace(config, seed=seeds[0]).to_kv() + f"# seeds = {','.join(map(str, seeds))}\n")


def load_checkpoint_for(path, bundle: DatasetBundle) -> M.ModelParams:
    """Load a checkpoint and check that it was trained on a bundle of this shape."""
    params = M.load_checkpoint(path)
    m, n = params.user_embeddings.shape[0], params.item_embeddings.shape[0]
    if (m, n) != (bundle.m, bundle.n):
        raise DataFormatError(f"{path}: checkpoint is for {m} users x {n} items, "
                              f"the dataset has {bundle.m} x {bundle.n}")
    return params


def export_embeddings(checkpoint_path, bundle: DatasetBundle, user: int, out_path) -> None:
    """Write one user's representation, all item representations and the
    user's concatenated pair representations, tagged unexposed/train/test."""
    params = load_checkpoint_for(checkpoint_path, bundle)
    if user < 0 or user >= bundle.m:
        raise IndexError(f"user {user} out of range [0, {bundle.m})")
    train_items = set(bundle.exposure.user_items(user).tolist())
    test_items = set(bundle.test.items[bundle.test.users == user].tolist())

    def tag(i: int) -> str:
        if i in test_items:
            return "test"
        if i in train_items:
            return "train"
        return "unexposed"

    lines = []
    uvec = params.user_embeddings[user]
    lines.append("\t".join(["user", str(user), "-"] + [_fmt(x) for x in uvec]))
    for i in range(bundle.n):
        ivec = params.item_embeddings[i]
        lines.append("\t".join(["item", str(i), tag(i)] + [_fmt(x) for x in ivec]))
    for i in range(bundle.n):
        pair = np.concatenate([uvec, params.item_embeddings[i]])
        lines.append("\t".join(["pair", str(i), tag(i)] + [_fmt(x) for x in pair]))
    Path(out_path).write_text("\n".join(lines) + "\n")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=["coat", "triples", "synthetic"], required=True)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--num-users", type=int, default=None)
    p.add_argument("--num-items", type=int, default=None)
    p.add_argument("--one-based", action="store_true")
    p.add_argument("--exposure-skew", type=float, default=3.0)
    p.add_argument("--sim-seed", type=int, default=0)


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--embed-dim", dest="embed_dim", type=int, default=None)
    p.add_argument("--hidden-layers", dest="hidden_layers", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=None)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--sampler", choices=C.SAMPLER_KINDS, default=None)
    p.add_argument("--rec-objective", dest="rec_objective",
                   choices=T.REC_OBJECTIVES, default=None)
    p.add_argument("--propensity-source", dest="propensity_source", default=None,
                   choices=[s for s in T.PROPENSITY_SOURCES if s != "oracle"])
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    p.add_argument("--out", required=True)


def _add_simulate_args(p: argparse.ArgumentParser) -> None:
    """One flag per SimConfig field, whose dest is the field's name."""
    p.add_argument("--num-users", dest="m", type=int, default=500)
    p.add_argument("--num-items", dest="n", type=int, default=100)
    p.add_argument("--exposure-skew", dest="exposure_skew", type=float, default=3.0)
    p.add_argument("--exposures-per-user", dest="exposures_per_user", type=int, default=20)
    p.add_argument("--test-exposures-per-user", dest="test_exposures_per_user", type=int,
                   default=10)
    p.add_argument("--sim-seed", dest="seed", type=int, default=0)
    p.add_argument("--out", required=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cclrec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="load a dataset and print its shape")
    _add_data_args(p)

    for name, text in (("train", "train and evaluate over a seed list"),
                       ("ablate", "with-CCL vs without-CCL comparison"),
                       ("sweep-samplers", "cf / ps / pop / no-ssl comparison")):
        p = sub.add_parser(name, help=text)
        _add_data_args(p)
        _add_train_args(p)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint")
    _add_data_args(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic bundle to disk")
    _add_simulate_args(p)

    p = sub.add_parser("export-embeddings", help="dump tagged representations")
    _add_data_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (DataFormatError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, IndexError, KeyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def _dispatch(args) -> int:
    if args.command == "prepare":
        bundle = load_bundle(args)
        print(f"users={bundle.m} items={bundle.n} train={len(bundle.train)} "
              f"test={len(bundle.test)} features="
              f"{bundle.user_features is not None and bundle.item_features is not None}")
        return 0

    if args.command == "simulate":
        cfg = SIM.SimConfig(**{f.name: getattr(args, f.name) for f in fields(SIM.SimConfig)})
        SIM.save_bundle(SIM.generate(cfg), args.out)
        print(f"wrote synthetic bundle to {args.out}")
        return 0

    if args.command in ("train", "ablate", "sweep-samplers"):
        # a bad option fails before any data is read
        config = build_config(args)
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        if not seeds:
            raise ValueError("seed list is empty")
        for i, seed in enumerate(seeds):
            if seed in seeds[:i]:
                raise ValueError(f"seed {seed} appears twice in the seed list")
            replace(config, seed=seed).validate()
    bundle = load_bundle(args)

    if args.command == "evaluate":
        params = load_checkpoint_for(args.checkpoint, bundle)
        report = MET.evaluate(params, bundle)
        for name, value in report.as_dict().items():
            print(f"{name}\t{_fmt(value)}")
        return 0

    if args.command == "export-embeddings":
        export_embeddings(args.checkpoint, bundle, args.user, args.out)
        print(f"wrote embeddings to {args.out}")
        return 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "train":
        arms = [("ccl" if config.lam > 0 else "base", {})]
        rows, name = T.run_arms(bundle, config, arms, seeds, checkpoint_dir=out_dir), "results.tsv"
    elif args.command == "ablate":
        rows, name = T.run_ablation(bundle, config, seeds), "ablation.tsv"
    else:
        rows, name = T.run_sampler_sweep(bundle, config, seeds), "sampler_sweep.tsv"
    write_results(out_dir / name, rows)
    write_config(out_dir, config, seeds)
    print(f"results written to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
