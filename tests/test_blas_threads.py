"""Runs give the same bytes at any BLAS thread count and any CPU count.

Each BLAS case runs the same script in two fresh interpreters, one with
OPENBLAS_NUM_THREADS=1 and one with =2 (the variable is read when numpy
loads, so it cannot change inside one process), and compares the SHA-256
of what the script computed. On a one-core machine OpenBLAS caps the count
at 1 and the case cannot fail. The CPU cases run the contrastive kernel,
whose row blocks are split across the CPUs, and train a model large enough
for the split Adam step, each once pinned to one CPU and once on all of them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cclrec

SRC = str(Path(cclrec.__file__).resolve().parent.parent)

KERNEL_SCRIPT = """
import hashlib
import numpy as np
from cclrec import contrastive as C

digest = hashlib.sha256()
for two_n in (2, 130, 592, 976, 1024, 2000, 2098):
    reps = np.random.default_rng(two_n).normal(scale=0.3, size=(two_n, 16))
    for cosine in (False, True):
        loss, grad = C.ccl_loss_and_grad(C.CCLBatch(reps, 0.5), cosine=cosine)
        value = C.ccl_loss(C.CCLBatch(reps, 0.5), cosine=cosine)
        digest.update(np.float64(loss).tobytes() + np.float64(value).tobytes() + grad.tobytes())
print(digest.hexdigest())
"""

# the kernel script in a process that keeps the first argv[1] CPUs of its mask
PINNED_KERNEL_SCRIPT = """
import os, sys
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(sys.argv[1])])
""" + KERNEL_SCRIPT

# 900 training pairs in batches of 296: 2N = 592 per full batch, and a
# partial last batch of 12 pairs
TRAIN_SCRIPT = """
import hashlib, sys
from cclrec import model as M
from cclrec.simulate import SimConfig, generate
from cclrec.training import TrainConfig, train

bundle = generate(SimConfig(m=100, n=40, exposures_per_user=10, test_exposures_per_user=2, seed=3),
                  inclusion_draws=5).dataset
for cosine in (False, True):
    params, _ = train(bundle, TrainConfig(lam=1.0, tau=0.5, batch_size=296, embed_dim=8,
                                          max_epochs=3, patience=10, cosine=cosine, seed=0))
    path = sys.argv[1] + f"/cosine{int(cosine)}.bin"
    M.save_checkpoint(path, params)
    with open(path, "rb") as f:
        print(hashlib.sha256(f.read()).hexdigest())
"""


# 8,200 + 100 embedding rows of d = 8: 66,689 parameters, above the Adam split
# threshold; the first argument is how many CPUs the child keeps
AFFINITY_SCRIPT = """
import hashlib, os, sys
cpus = sorted(os.sched_getaffinity(0))[:int(sys.argv[1])]
os.sched_setaffinity(0, cpus)
from cclrec import model as M
from cclrec.simulate import SimConfig, generate
from cclrec.training import TrainConfig, train

bundle = generate(SimConfig(m=8200, n=100, exposures_per_user=4, test_exposures_per_user=2, seed=5),
                  inclusion_draws=5).dataset
params, _ = train(bundle, TrainConfig(lam=0.0, max_epochs=2, seed=0))
assert params.flat.size >= M.ADAM_SPLIT_MIN
assert M._adam_slices(params.flat.size) == len(cpus)
path = sys.argv[2] + f"/cpus{len(cpus)}.bin"
M.save_checkpoint(path, params)
with open(path, "rb") as f:
    print(hashlib.sha256(f.read()).hexdigest())
"""


# 2,500 users x 4 test items: one full SCORE_ROWS chunk and a partial one. Each
# 8,192 x 16 x 16 chunk product is above OpenBLAS's 2^18 threading threshold,
# so at 2 threads the product is split, unlike the kernel's products above
EVALUATE_SCRIPT = """
import hashlib
import numpy as np
from cclrec import metrics as MET
from cclrec import model as M
from cclrec.data import DatasetBundle, ExposureMatrix, InteractionTable

rng = np.random.default_rng(0)
m, n = 2500, 60
users = np.repeat(np.arange(m), 4)
items = np.argsort(rng.random((m, n)), axis=1)[:, :4].ravel()
test = InteractionTable.from_lists(users, items, rng.integers(1, 6, len(users)))
train = InteractionTable.from_lists([0], [0], [5])
bundle = DatasetBundle(m=m, n=n, train=train, test=test, exposure=ExposureMatrix(m, n, train))
params = M.init_params(m, n, 8, 1, rng)
assert len(test) > MET.SCORE_ROWS
scores = MET.predict(params, test.users, test.items)
report = MET.evaluate(params, bundle)
print(hashlib.sha256(scores.tobytes() + repr(report).encode()).hexdigest())
"""


def run_at(threads: int, script: str, *args: str) -> str:
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_kernel_bytes_do_not_depend_on_thread_count():
    assert run_at(1, KERNEL_SCRIPT) == run_at(2, KERNEL_SCRIPT)


def test_evaluate_bytes_do_not_depend_on_thread_count():
    assert run_at(1, EVALUATE_SCRIPT) == run_at(2, EVALUATE_SCRIPT)


def test_ccl_checkpoint_bytes_do_not_depend_on_thread_count(tmp_path):
    hashes = run_at(1, TRAIN_SCRIPT, str(tmp_path))
    assert len(hashes.split()) == 2  # cosine off and on
    assert hashes == run_at(2, TRAIN_SCRIPT, str(tmp_path))


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs at least 2 CPUs")
def test_split_adam_checkpoint_bytes_do_not_depend_on_cpu_count(tmp_path):
    cpus = len(os.sched_getaffinity(0))
    one = run_at(1, AFFINITY_SCRIPT, "1", str(tmp_path))
    assert len(one.split()) == 1
    assert one == run_at(1, AFFINITY_SCRIPT, str(cpus), str(tmp_path))


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs at least 2 CPUs")
def test_kernel_bytes_do_not_depend_on_cpu_count():
    cpus = len(os.sched_getaffinity(0))
    assert run_at(1, PINNED_KERNEL_SCRIPT, "1") == run_at(1, PINNED_KERNEL_SCRIPT, str(cpus))
