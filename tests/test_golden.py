"""Golden bytes: the SHA-256 of what fixed runs write, on this repository's
reference build (numpy 2.4.6 with OpenBLAS 0.3.31, x86-64).

The CLI cases run `train`, `ablate` and `sweep-samplers` in-process on the
same small synthetic dataset. The checkpoint cases train one short run per
code path (plain, CCL with each positive sampler, IPS, SNIPS with cosine
similarity) on the default simulator bundle.

Rule: a change that moves these bytes on purpose updates the constants
below, and lists each old -> new digest, with the reason, in CHANGES.md.
A change that moves them by accident is a regression. Another numpy or
BLAS build may round differently; the failure message names both.
"""

import hashlib

import numpy as np
import pytest

from cclrec import model as M
from cclrec import simulate as SIM
from cclrec import training as T
from cclrec.cli import main

CLI_ARGS = ["--dataset", "synthetic", "--num-users", "200", "--num-items", "60",
            "--max-epochs", "3", "--seeds", "0,1", "--lam", "0.5"]

CLI_DIGESTS = {
    "train": {
        "results.tsv": "495ccd50e6c5934dea05b8c99ef7b66ff57c4918b04fa197d3aee763ff2823bd",
        "checkpoint_seed0.bin": "53894c4f07df9c60e34b4b74d0679af9144f0eadc0c644f43516c1e2a24334f8",
    },
    "ablate": {
        "ablation.tsv": "59c1589b49a0978bfe895de47745d3486bb09c4e26ec6fd221caf1168a64622c",
    },
    "sweep-samplers": {
        "sampler_sweep.tsv": "6dc80c5dfe541c8f15f3853dea53d146af2894dfb7a895a81b991e93a68e4006",
    },
}

# every field that differs from TrainConfig()'s default, written out
CHECKPOINTS = {
    "plain": (dict(max_epochs=4, seed=3, lam=0.0),
              "ff3b955faeb91a90abe8abbeadb8eec606bea2f7cc43be5726cbd4287a34f990"),
    "ccl-cf": (dict(max_epochs=4, seed=3, lam=1.0, tau=0.5),
               "b3b4db7be0c1fa91df41de944665383d3b2f5a942ce124e8aa040d47b85943b3"),
    "ccl-ps": (dict(max_epochs=4, seed=3, lam=1.0, sampler="ps"),
               "bfc27f85bed97b15576ee10d2c908cf77be0a2f270a7abdb2c3327922e141ab7"),
    "ccl-pop": (dict(max_epochs=4, seed=3, lam=1.0, sampler="pop"),
                "dcab79a5d3b9e20bed35f2d32aeeb68e417deedfc174c1918bd5974d05ee7659"),
    "ips": (dict(max_epochs=4, seed=3, lam=0.0, rec_objective="ips"),
            "7f2b65b94f8c966aee411b6787ad806241edd6986418fd19604473f790328a51"),
    "snips-cosine": (dict(max_epochs=4, seed=3, lam=0.5, rec_objective="snips", cosine=True),
                     "d294d1dfb347b77d14b8563126dd63407f1cd3057fa31bc2fce48b404191e490"),
}


def assert_digest(path, expected: str) -> None:
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    if got != expected:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        pytest.fail(f"{path.name}: expected sha256 {expected}, got {got} "
                    f"(numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')})")


@pytest.fixture(scope="module")
def sim_bundle():
    return SIM.generate(SIM.SimConfig(seed=0)).dataset


@pytest.mark.parametrize("command", CLI_DIGESTS)
def test_cli_outputs(tmp_path, command):
    assert main([command, *CLI_ARGS, "--out", str(tmp_path)]) == 0
    for name, expected in CLI_DIGESTS[command].items():
        assert_digest(tmp_path / name, expected)


@pytest.mark.parametrize("name", CHECKPOINTS)
def test_checkpoint(tmp_path, sim_bundle, name):
    overrides, expected = CHECKPOINTS[name]
    params, _ = T.train(sim_bundle, T.TrainConfig(**overrides))
    M.save_checkpoint(tmp_path / f"{name}.bin", params)
    assert_digest(tmp_path / f"{name}.bin", expected)
