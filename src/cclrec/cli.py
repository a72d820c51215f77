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
    lines = ["\t".join(columns)]
    for row in rows:
        lines.append("\t".join(_fmt(row[c]) for c in columns))
    for arm, agg_rows in aggregate(rows).items():
        for row in agg_rows:
            lines.append("\t".join(_fmt(row[c]) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def aggregate(rows: list[dict]) -> dict[str, list[dict]]:
    """Mean and std rows per arm, recomputable exactly from the per-seed rows."""
    out: dict[str, list[dict]] = {}
    arms = []
    for row in rows:
        if row["arm"] not in arms:
            arms.append(row["arm"])
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


def load_bundle(args) -> DatasetBundle:
    if args.dataset == "coat":
        return load_coat(args.data_dir)
    if args.dataset == "triples":
        return load_triples(Path(args.data_dir) / "train.txt",
                            Path(args.data_dir) / "test.txt",
                            m=args.num_users, n=args.num_items,
                            one_based=args.one_based)
    if args.dataset == "synthetic":
        cfg = SIM.SimConfig(m=args.num_users or 500, n=args.num_items or 100,
                            exposure_skew=args.exposure_skew, seed=args.sim_seed)
        # the bundle itself does not need high-precision inclusion probabilities
        return SIM.generate(cfg, inclusion_draws=1000).dataset
    raise ValueError(f"unknown dataset kind {args.dataset!r}")


def build_config(args) -> T.TrainConfig:
    if getattr(args, "config", None):
        cfg = T.TrainConfig.from_kv(Path(args.config).read_text())
    else:
        cfg = T.TrainConfig()
    overrides = {}
    for f in fields(T.TrainConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            overrides[f.name] = v
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def run_experiment(bundle: DatasetBundle, config: T.TrainConfig, seeds: list[int],
                   out_dir: Path) -> list[dict]:
    """Train + evaluate per seed; write checkpoints, results and the resolved config."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in seeds:
        cfg = replace(config, seed=seed)
        params, _ = T.train(bundle, cfg)
        M.save_checkpoint(out_dir / f"checkpoint_seed{seed}.bin", params)
        report = MET.evaluate(params, bundle)
        rows.append({"arm": "ccl" if cfg.lam > 0 else "base", "seed": seed,
                     **report.as_dict()})
    write_results(out_dir / "results.tsv", rows)
    # the seed list is a comment so that --config reads the file back
    (out_dir / "config.txt").write_text(
        replace(config, seed=seeds[0]).to_kv() + f"# seeds = {','.join(map(str, seeds))}\n")
    return rows


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
    p.add_argument("--loss-kind", dest="loss_kind", choices=["log", "focal"], default=None)
    p.add_argument("--focal-gamma", dest="focal_gamma", type=float, default=None)
    p.add_argument("--sampler", choices=["cf", "ps", "pop"], default=None)
    p.add_argument("--rec-objective", dest="rec_objective",
                   choices=["plain", "ips", "snips"], default=None)
    p.add_argument("--propensity-source", dest="propensity_source",
                   choices=["auto", "lr", "nb"], default=None)
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    p.add_argument("--out", required=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cclrec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="load a dataset and print its shape")
    _add_data_args(p)

    p = sub.add_parser("train", help="train and evaluate over a seed list")
    _add_data_args(p)
    _add_train_args(p)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint")
    _add_data_args(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("ablate", help="with-CCL vs without-CCL comparison")
    _add_data_args(p)
    _add_train_args(p)

    p = sub.add_parser("sweep-samplers", help="cf / ps / pop / no-ssl comparison")
    _add_data_args(p)
    _add_train_args(p)

    p = sub.add_parser("simulate", help="generate a synthetic bundle to disk")
    p.add_argument("--num-users", type=int, default=500)
    p.add_argument("--num-items", type=int, default=100)
    p.add_argument("--exposure-skew", type=float, default=3.0)
    p.add_argument("--exposures-per-user", type=int, default=20)
    p.add_argument("--test-exposures-per-user", type=int, default=10)
    p.add_argument("--sim-seed", type=int, default=0)
    p.add_argument("--out", required=True)

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
        cfg = SIM.SimConfig(m=args.num_users, n=args.num_items,
                            exposure_skew=args.exposure_skew,
                            exposures_per_user=args.exposures_per_user,
                            test_exposures_per_user=args.test_exposures_per_user,
                            seed=args.sim_seed)
        SIM.save_bundle(SIM.generate(cfg), args.out)
        print(f"wrote synthetic bundle to {args.out}")
        return 0

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

    config = build_config(args)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise ValueError("seed list is empty")
    out_dir = Path(args.out)

    if args.command == "train":
        run_experiment(bundle, config, seeds, out_dir)
    elif args.command == "ablate":
        rows = T.run_ablation(bundle, config, seeds)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_results(out_dir / "ablation.tsv", rows)
        (out_dir / "config.txt").write_text(config.to_kv())
    elif args.command == "sweep-samplers":
        rows = T.run_sampler_sweep(bundle, config, seeds)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_results(out_dir / "sampler_sweep.tsv", rows)
        (out_dir / "config.txt").write_text(config.to_kv())
    print(f"results written to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
