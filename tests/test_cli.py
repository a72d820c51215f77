import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cclrec
from cclrec.cli import _add_simulate_args, _add_train_args, aggregate, main, write_results
from cclrec.contrastive import SAMPLER_KINDS
from cclrec.data import load_triples
from cclrec.simulate import SimConfig, generate, save_bundle
from cclrec.training import PROPENSITY_SOURCES, REC_OBJECTIVES, TrainConfig


@pytest.fixture(scope="module")
def triple_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("synthdata")
    synth = generate(SimConfig(m=30, n=20, seed=1, exposures_per_user=6,
                               test_exposures_per_user=4), inclusion_draws=10)
    save_bundle(synth, path)
    return path


def triple_args(triple_dir):
    return ["--dataset", "triples", "--data-dir", str(triple_dir),
            "--num-users", "30", "--num-items", "20"]


FAST = ["--max-epochs", "2", "--batch-size", "64", "--embed-dim", "4",
        "--patience", "2"]


class TestAggregate:
    def test_single_seed_mean_equals_row(self):
        rows = [{"arm": "base", "seed": 0, "auc": 0.7, "mae": 0.3}]
        agg = aggregate(rows)
        assert agg["base"][0]["auc"] == 0.7
        assert agg["base"][1]["auc"] == 0.0  # std of one value

    def test_mean_and_std(self):
        rows = [{"arm": "a", "seed": s, "auc": v} for s, v in ((0, 0.6), (1, 0.8))]
        agg = aggregate(rows)
        assert agg["a"][0]["auc"] == pytest.approx(0.7)
        assert agg["a"][1]["auc"] == pytest.approx(0.1)

    def test_arms_kept_separate(self):
        rows = [{"arm": "a", "seed": 0, "auc": 1.0},
                {"arm": "b", "seed": 0, "auc": 0.0}]
        agg = aggregate(rows)
        assert agg["a"][0]["auc"] == 1.0 and agg["b"][0]["auc"] == 0.0


class TestWriteResults:
    def test_layout(self, tmp_path):
        rows = [{"arm": "base", "seed": s, "auc": 0.5 + s / 10} for s in (0, 1)]
        out = tmp_path / "r.tsv"
        write_results(out, rows)
        lines = out.read_text().splitlines()
        assert lines[0] == "arm\tseed\tauc"
        assert len(lines) == 1 + 2 + 2  # header, per-seed, mean+std
        assert lines[3].startswith("base\tmean")

    def test_empty_rows(self, tmp_path):
        with pytest.raises(ValueError):
            write_results(tmp_path / "r.tsv", [])


class TestTrainCommand:
    def test_writes_results_and_checkpoints(self, triple_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["train", *triple_args(triple_dir), *FAST,
                     "--lam", "0", "--seeds", "0,1", "--out", str(out)])
        assert code == 0
        assert (out / "results.tsv").exists()
        assert (out / "checkpoint_seed0.bin").exists()
        assert (out / "checkpoint_seed1.bin").exists()
        assert "lam = 0" in (out / "config.txt").read_text()
        lines = (out / "results.tsv").read_text().splitlines()
        assert len(lines) == 1 + 2 + 2

    def test_rerun_is_byte_identical(self, triple_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["train", *triple_args(triple_dir), *FAST,
                  "--lam", "0.5", "--seeds", "0", "--out", str(out)])
            outs.append(out)
        assert (outs[0] / "results.tsv").read_bytes() == (outs[1] / "results.tsv").read_bytes()
        assert (outs[0] / "checkpoint_seed0.bin").read_bytes() == \
               (outs[1] / "checkpoint_seed0.bin").read_bytes()

    def test_rerun_from_written_config_is_byte_identical(self, triple_dir, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["train", *triple_args(triple_dir), *FAST, "--lam", "0.5",
                     "--seeds", "0,1", "--out", str(first)]) == 0
        assert "# seeds = 0,1" in (first / "config.txt").read_text()
        assert main(["train", *triple_args(triple_dir), "--config", str(first / "config.txt"),
                     "--seeds", "0,1", "--out", str(second)]) == 0
        assert (first / "results.tsv").read_bytes() == (second / "results.tsv").read_bytes()
        assert (first / "config.txt").read_bytes() == (second / "config.txt").read_bytes()

    @pytest.mark.parametrize("command, table", [("ablate", "ablation.tsv"),
                                                ("sweep-samplers", "sampler_sweep.tsv")])
    def test_comparison_rerun_from_written_config_is_byte_identical(self, triple_dir, tmp_path,
                                                                     command, table):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([command, *triple_args(triple_dir), *FAST, "--lam", "0.5",
                     "--seeds", "3,4", "--out", str(first)]) == 0
        text = (first / "config.txt").read_text()
        assert "seed = 3\n" in text and text.endswith("# seeds = 3,4\n")
        assert main([command, *triple_args(triple_dir), "--config", str(first / "config.txt"),
                     "--seeds", "3,4", "--out", str(second)]) == 0
        assert (first / table).read_bytes() == (second / table).read_bytes()
        assert (first / "config.txt").read_bytes() == (second / "config.txt").read_bytes()

    def test_config_file_with_override(self, triple_dir, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("lam = 0.25\nmax_epochs = 2\nbatch_size = 64\n"
                            "embed_dim = 4\npatience = 2\n")
        out = tmp_path / "run"
        code = main(["train", *triple_args(triple_dir), "--config", str(cfg_file),
                     "--tau", "0.5", "--seeds", "0", "--out", str(out)])
        assert code == 0
        text = (out / "config.txt").read_text()
        assert "lam = 0.25" in text and "tau = 0.5" in text


class TestExitCodes:
    def test_missing_data_dir(self, tmp_path):
        code = main(["prepare", "--dataset", "triples",
                     "--data-dir", str(tmp_path / "nope"),
                     "--num-users", "5", "--num-items", "5"])
        assert code == 3

    @pytest.mark.parametrize("argv, flag", [
        (["--dataset", "coat"], "--data-dir"),
        (["--dataset", "triples", "--num-users", "5", "--num-items", "5"], "--data-dir"),
        (["--dataset", "triples", "--data-dir", "d", "--num-items", "5"], "--num-users"),
        (["--dataset", "triples", "--data-dir", "d", "--num-users", "5"], "--num-items"),
    ])
    def test_missing_data_flag(self, capsys, argv, flag):
        assert main(["prepare", *argv]) == 2
        assert f"config error: --dataset {argv[1]} needs {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--num-users", "--num-items"])
    def test_synthetic_size_zero_is_not_replaced_by_the_default(self, capsys, flag):
        assert main(["prepare", "--dataset", "synthetic", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert "m and n must be >= 1" in captured.err and captured.out == ""

    def test_malformed_data(self, tmp_path):
        (tmp_path / "train.txt").write_text("broken\n")
        (tmp_path / "test.txt").write_text("0 0 5\n")
        code = main(["prepare", "--dataset", "triples", "--data-dir", str(tmp_path),
                     "--num-users", "5", "--num-items", "5"])
        assert code == 3

    def test_triple_file_that_is_not_utf8(self, tmp_path, capsys):
        (tmp_path / "train.txt").write_bytes(b"0 0 4\n0 1 \xff\n")
        (tmp_path / "test.txt").write_text("0 0 5\n")
        code = main(["prepare", "--dataset", "triples", "--data-dir", str(tmp_path),
                     "--num-users", "5", "--num-items", "5"])
        assert code == 3
        assert "train.txt:2: not UTF-8 text" in capsys.readouterr().err

    def test_coat_file_that_is_not_utf8(self, tmp_path, capsys):
        (tmp_path / "train.ascii").write_text("5 0\n0 3\n")
        (tmp_path / "test.ascii").write_bytes(b"0 1\r\n\xe9 0\r\n")
        code = main(["prepare", "--dataset", "coat", "--data-dir", str(tmp_path)])
        assert code == 3
        assert "test.ascii:2: not UTF-8 text" in capsys.readouterr().err

    def test_bad_config_value(self, triple_dir, tmp_path):
        code = main(["train", *triple_args(triple_dir), *FAST,
                     "--lam", "-1", "--seeds", "0", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_unreadable_boolean_in_config_file(self, triple_dir, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("max_epochs = 2\ncosine = ture\n")
        code = main(["train", *triple_args(triple_dir), "--config", str(cfg_file),
                     "--seeds", "0", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "config line 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_repeated_key_in_config_file(self, triple_dir, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("lam = 1\nlam = 0\n")
        code = main(["train", *triple_args(triple_dir), "--config", str(cfg_file),
                     "--seeds", "0", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "config line 2: duplicate key 'lam' (first on line 1)" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line, message", [
        ("propensity_source = bogus", "unknown propensity source"),
        ("embed_dim = 0", "embed_dim must be >= 1"),
        ("weight_decay = -5", "weight_decay must be >= 0"),
        ("learning_rate = 0", "learning_rate must be positive"),
        ("focal_gamma = -1", "focal_gamma must be >= 0"),
        ("learning_rate = nan", "learning_rate must be finite, got nan"),
        ("tau = inf", "tau must be finite, got inf"),
        ("weight_decay = -inf", "weight_decay must be finite, got -inf"),
        ("propensity_source = oracle", "no CLI dataset carries ground-truth propensities"),
        ("batch_size = abc", "config line 2: batch_size must be int, got 'abc'"),
        ("lam = x", "config line 2: lam must be float, got 'x'"),
    ])
    def test_config_file_value_that_train_cannot_run(self, triple_dir, tmp_path, capsys,
                                                      line, message):
        # argparse guards flags, not config files: from_kv and validate() must catch these
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(f"max_epochs = 1\n{line}\n")
        code = main(["train", *triple_args(triple_dir), "--config", str(cfg_file),
                     "--seeds", "0", "--out", str(tmp_path / "x")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["train", "ablate", "sweep-samplers"])
    @pytest.mark.parametrize("option, message", [
        (["--lam", "-1"], "lam must be >= 0"),
        (["--seeds", ","], "seed list is empty"),
        (["--config", "CFG"], "no CLI dataset carries ground-truth propensities"),
        (["--seeds", "-1"], "seed must be >= 0"),
    ])
    def test_bad_option_fails_before_the_data_is_read(self, tmp_path, capsys, command,
                                                      option, message):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("rec_objective = ips\npropensity_source = oracle\n")
        missing = ["--dataset", "triples", "--data-dir", str(tmp_path / "nope"),
                   "--num-users", "5", "--num-items", "5"]
        option = [str(cfg_file) if a == "CFG" else a for a in option]
        code = main([command, *missing, *option, "--out", str(tmp_path / "x")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["train", "ablate", "sweep-samplers"])
    def test_negative_seed_fails_before_any_training(self, triple_dir, tmp_path, capsys,
                                                     command):
        code = main([command, *triple_args(triple_dir), *FAST,
                     "--seeds", "0,-1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_empty_seed_list(self, triple_dir, tmp_path):
        code = main(["train", *triple_args(triple_dir), *FAST,
                     "--seeds", ",", "--out", str(tmp_path / "x")])
        assert code == 2


class TestTrainFlags:
    def test_every_train_flag_sets_a_config_field(self):
        parser = argparse.ArgumentParser()
        _add_train_args(parser)
        dests = {a.dest for a in parser._actions} - {"help", "config", "seeds", "out"}
        assert dests <= {f.name for f in fields(TrainConfig)}

    def test_choices_are_the_ones_validate_accepts(self):
        parser = argparse.ArgumentParser()
        _add_train_args(parser)
        choices = {a.dest: tuple(a.choices) for a in parser._actions if a.choices}
        assert choices == {
            "sampler": SAMPLER_KINDS,
            "rec_objective": REC_OBJECTIVES,
            # no CLI dataset carries ground-truth propensities
            "propensity_source": tuple(s for s in PROPENSITY_SOURCES if s != "oracle"),
        }
        for dest, values in choices.items():
            for value in values:
                TrainConfig(**{dest: value}).validate()

    def test_mode_flag_is_gone(self, triple_dir, tmp_path):
        for flag, value in (("--mode", "joint"), ("--loss-kind", "log")):
            with pytest.raises(SystemExit) as exc:
                main(["train", *triple_args(triple_dir), *FAST, flag, value,
                      "--seeds", "0", "--out", str(tmp_path / "x")])
            assert exc.value.code == 2


class TestSimulateFlags:
    """Each simulator setting has a caller: one `cclrec simulate` flag per SimConfig field."""

    @staticmethod
    def parser():
        parser = argparse.ArgumentParser()
        _add_simulate_args(parser)
        return parser

    def test_flags_and_config_fields_are_one_to_one(self):
        dests = [a.dest for a in self.parser()._actions if a.dest not in ("help", "out")]
        assert sorted(dests) == sorted(f.name for f in fields(SimConfig))

    def test_flag_defaults_are_the_config_defaults(self):
        args = vars(self.parser().parse_args(["--out", "x"]))
        assert SimConfig(**{f.name: args[f.name] for f in fields(SimConfig)}) == SimConfig()


class TestPrepareAndSimulate:
    def test_prepare_prints_shape(self, triple_dir, capsys):
        assert main(["prepare", *triple_args(triple_dir)]) == 0
        out = capsys.readouterr().out
        assert "users=30 items=20" in out

    def test_simulate_round_trip(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--num-users", "20", "--num-items", "15",
                     "--exposures-per-user", "4", "--test-exposures-per-user", "3",
                     "--sim-seed", "7", "--out", str(out)])
        assert code == 0
        b = load_triples(out / "train.txt", out / "test.txt", m=20, n=15)
        assert len(b.train) == 20 * 4
        assert len(b.test) == 20 * 3

    @pytest.mark.parametrize("flag,value,message", [
        ("--exposures-per-user", "-2", "exposures_per_user must be >= 0, got -2"),
        ("--test-exposures-per-user", "-1", "test_exposures_per_user must be >= 0, got -1"),
        ("--exposure-skew", "nan", "exposure_skew must be finite and >= 0, got nan"),
        ("--exposure-skew", "2000", "exposure_skew 2000.0 overflows the exposure weights of 30 items"),
        ("--exposure-skew", "1400", "exposure_skew 1400.0 leaves 18 of 30 items a positive "
                                    "exposure weight; 20 train draws per user need 20"),
    ])
    def test_simulate_setting_rejected_by_name(self, tmp_path, capsys, flag, value, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--num-users", "5", "--num-items", "30", flag, value,
                         "--out", str(tmp_path / "x")])
        assert [str(w.message) for w in caught] == []
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestEvaluateAndExport:
    @pytest.fixture
    def trained(self, triple_dir, tmp_path):
        out = tmp_path / "run"
        main(["train", *triple_args(triple_dir), *FAST,
              "--lam", "0", "--seeds", "0", "--out", str(out)])
        return out / "checkpoint_seed0.bin"

    def test_evaluate_prints_metrics(self, triple_dir, trained, capsys):
        code = main(["evaluate", *triple_args(triple_dir),
                     "--checkpoint", str(trained)])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("auc", "ndcg5", "gini", "global_utility"):
            assert name in out

    def test_export_tags_partition_items(self, triple_dir, trained, tmp_path):
        out = tmp_path / "emb.tsv"
        code = main(["export-embeddings", *triple_args(triple_dir),
                     "--checkpoint", str(trained), "--user", "3",
                     "--out", str(out)])
        assert code == 0
        lines = [l.split("\t") for l in out.read_text().splitlines()]
        assert sum(1 for l in lines if l[0] == "user") == 1
        items = [l for l in lines if l[0] == "item"]
        pairs = [l for l in lines if l[0] == "pair"]
        assert len(items) == 20 and len(pairs) == 20
        tags = {t: sum(1 for l in items if l[2] == t)
                for t in ("train", "test", "unexposed")}
        assert tags["train"] == 6 and tags["test"] == 4 and tags["unexposed"] == 10

    def test_export_same_checkpoint_identical(self, triple_dir, trained, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for path in (a, b):
            main(["export-embeddings", *triple_args(triple_dir),
                  "--checkpoint", str(trained), "--user", "0", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_export_bad_user(self, triple_dir, trained, tmp_path):
        code = main(["export-embeddings", *triple_args(triple_dir),
                     "--checkpoint", str(trained), "--user", "99",
                     "--out", str(tmp_path / "x.tsv")])
        assert code == 2

    @pytest.mark.parametrize("cut", [12, 16])
    def test_truncated_checkpoint_is_a_data_error(self, triple_dir, trained, tmp_path, capsys,
                                                  cut):
        short = tmp_path / "short.bin"
        short.write_bytes(trained.read_bytes()[:-cut])
        code = main(["evaluate", *triple_args(triple_dir), "--checkpoint", str(short)])
        assert code == 3
        assert "payload" in capsys.readouterr().err

    def test_checkpoint_of_another_shape_is_a_data_error(self, triple_dir, trained, tmp_path,
                                                         capsys):
        more_users = ["--dataset", "triples", "--data-dir", str(triple_dir),
                      "--num-users", "35", "--num-items", "20"]
        assert main(["evaluate", *more_users, "--checkpoint", str(trained)]) == 3
        assert "30 users x 20 items" in capsys.readouterr().err
        more_items = ["--dataset", "triples", "--data-dir", str(triple_dir),
                      "--num-users", "30", "--num-items", "25"]
        code = main(["export-embeddings", *more_items, "--checkpoint", str(trained),
                     "--user", "0", "--out", str(tmp_path / "x.tsv")])
        assert code == 3
        assert not (tmp_path / "x.tsv").exists()

    @pytest.mark.parametrize("widths", [[3], []])
    def test_checkpoint_forward_cannot_score_is_a_data_error(self, triple_dir, tmp_path,
                                                              capsys, widths):
        # [3] used to score column 0 of three, [] to fail inside forward (exit 2)
        header = {"m": 30, "n": 20, "d": 4, "widths": widths, "activation": "relu"}
        size = 50 * 4 + sum(a * w + w for a, w in zip([8] + widths[:-1], widths))
        path = tmp_path / "c.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + np.zeros(size).tobytes())
        code = main(["evaluate", *triple_args(triple_dir), "--checkpoint", str(path)])
        assert code == 3
        assert "bad checkpoint header" in capsys.readouterr().err

    def test_checkpoint_of_another_activation_is_a_data_error(self, triple_dir, trained,
                                                              tmp_path, capsys):
        header, _, payload = trained.read_bytes().partition(b"\n")
        assert b'"activation": "relu"' in header
        tanh = tmp_path / "tanh.bin"
        tanh.write_bytes(header.replace(b'"relu"', b'"tanh"') + b"\n" + payload)
        code = main(["evaluate", *triple_args(triple_dir), "--checkpoint", str(tanh)])
        assert code == 3
        assert "'tanh'" in capsys.readouterr().err


class TestDependencies:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(cclrec.__file__).resolve().parent.parent)
        script = ("import sys, cclrec.cli; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_numpy_is_the_only_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        dependencies = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
        assert [re.match(r"[\w.-]+", d).group() for d in dependencies] == ["numpy"]
