"""Benchmark of cclrec: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sim-debias --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run. See bench/README.md for the workloads, the metrics and the
checks. The program is imported from ``src/`` of the current directory and
is measured from outside: no file of it changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
OUT_DIR = Path(".bench_out")
CACHE_DIR = Path(".bench_cache")

# per-layer metric -> (span name, field of bench_trace.self_times)
LAYER_SPANS = {
    "contrastive.ccl_grad_calls": ("ccl_grad", "calls"),
    "contrastive.ccl_grad_s": ("ccl_grad", "self_s"),
    "contrastive.ccl_loss_calls": ("ccl_loss", "calls"),
    "contrastive.ccl_loss_s": ("ccl_loss", "self_s"),
    "contrastive.ccl_max_rows": ("ccl_loss", "max_rows"),
    "contrastive.ccl_rows": ("ccl_loss", "rows"),
    "contrastive.sampler_calls": ("sampler", "calls"),
    "contrastive.sampler_s": ("sampler", "self_s"),
    "contrastive.views_s": ("views", "self_s"),
    "model.forward_calls": ("forward", "calls"),
    "model.forward_s": ("forward", "self_s"),
    "model.backward_s": ("backward", "self_s"),
    "model.adam_step_calls": ("adam_step", "calls"),
    "model.adam_step_s": ("adam_step", "self_s"),
    "training.batch_objective_s": ("batch_objective", "self_s"),
    "training.batches": ("batch_objective", "calls"),
    "training.loop_s": ("train", "self_s"),
    "training.validation_calls": ("validation", "calls"),
    "training.validation_s": ("validation", "inclusive_s"),
    "training.validation_self_s": ("validation", "self_s"),
    "data.holdout_split_s": ("holdout_split", "self_s"),
    "metrics.evaluate_s": ("evaluate", "self_s"),
    "trace.wall_s": ("region", "inclusive_s"),
    "trace.other_s": ("region", "self_s"),
}
SETUP_SPANS = {
    "data.load_triples_s": ("load_triples", "self_s"),
    "simulate.generate_s": ("generate", "self_s"),
    "propensity.estimate_s": ("estimate", "self_s"),
}
# self times of the timed region; they add up to trace.wall_s
REGION_SELF = [k for k, (_, f) in LAYER_SPANS.items() if f == "self_s"]
ARM_AUCS = ("mle", "ips", "ccl_cf", "ccl_ps", "ccl_pop")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Keep BLAS threads at most nproc; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var)
        if value is not None and value.isdigit() and int(value) > nproc():
            os.environ[var] = str(nproc())


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
    }


def import_program(root: Path) -> None:
    """Import cclrec from <root>/src only; a checkout without it cannot be measured."""
    src = root / "src"
    if not (src / "cclrec" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'cclrec'} not found; run from the root of a cclrec checkout")
    sys.path.insert(0, str(src))
    import cclrec

    if Path(cclrec.__file__).resolve().parent != (src / "cclrec").resolve():
        raise SystemExit(f"error: cclrec was imported from {cclrec.__file__}, not from {src}")


def run_round(workload, arms, inputs):
    """One operation per arm; a failed operation is counted, not raised."""
    results = []
    for arm in arms:
        try:
            results.append(workload.run_op(arm, inputs))
        except Exception:  # an operation that fails is counted in `failed`
            traceback.print_exc(file=sys.stderr)
            results.append(None)
    return results


def measure(workload, arms, inputs, seconds: float, tracer=None):
    """Rounds until the next one would end after `seconds` (at least one).

    Without a tracer every round is untraced. With one, rounds come in
    pairs, untraced then traced, and the traced round's spans are kept.
    Returns (untraced rounds, [(traced round, its spans)], untraced walls, traced walls).
    """
    rounds, traced, walls, traced_walls = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(workload, arms, inputs))
        walls.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.install()
            try:
                t0 = time.perf_counter()
                result, spans = tracer.region(lambda: run_round(workload, arms, inputs))
                traced_walls.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            traced.append((result, spans))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(rounds)
        if elapsed + per_round > seconds:
            return rounds, traced, walls, traced_walls


def setups(workload, tracer=None):
    """SETUP_REPEATS timed set-ups; returns (last inputs, seconds each, spans of each)."""
    times, spans, inputs = [], [], None
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous set-up's inputs first
        t0 = time.perf_counter()
        if tracer is None:
            inputs = workload.setup()
        else:
            tracer.install()
            try:
                inputs, region = tracer.region(workload.setup)
            finally:
                tracer.uninstall()
            spans.append(region)
        times.append(time.perf_counter() - t0)
    return inputs, times, spans


def end_to_end(arms, rounds, setup_times) -> dict:
    """Training and evaluation as averages over the whole run.

    The host's speed drifts over tens of seconds, so a mean over every round
    of the run is steadier from run to run than a median of a few rounds,
    or than any one burst of evaluate calls.
    """
    ok = [op for r in rounds for op in r if op is not None]
    train_s = sum(op.train_s for op in ok)
    eval_s = 0.0
    for k in range(len(arms)):
        times = [t for r in rounds if r[k] is not None for t in r[k].eval_times]
        eval_s += statistics.fmean(times) if times else 0.0
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_s": (train_s / len(rounds), "s"),
        "train_pairs_per_s": (sum(op.pairs for op in ok) / train_s, "pairs/s"),
        "eval_s": (eval_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "auc_min": (min(op.metrics.auc for op in ok), "auc"),
    }


def per_layer(tracer, arms, traced, walls, traced_walls, setup_spans) -> tuple[dict, list[str]]:
    """Layer metrics of the median traced round and of the median traced set-up."""
    import bench_trace

    def median_index(regions):
        wall = [spans[0][2] - spans[0][1] for spans in regions]  # span 0 is the region's root
        return sorted(range(len(wall)), key=wall.__getitem__)[(len(wall) - 1) // 2]

    result, spans = traced[median_index([spans for _, spans in traced])]
    region = bench_trace.self_times(tracer.names, spans)
    setup = bench_trace.self_times(tracer.names, setup_spans[median_index(setup_spans)])
    out = {}
    for metric, (span, field) in LAYER_SPANS.items():
        unit = {"calls": "count", "rows": "rows", "max_rows": "rows"}.get(field, "s")
        out[metric] = (region.get(span, {}).get(field, 0), unit)
    for metric, (span, field) in SETUP_SPANS.items():
        out[metric] = (setup.get(span, {}).get(field, 0.0), "s")
    out["training.epochs_run"] = (sum(op.report.epochs_run for op in result if op is not None), "count")
    out["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
    aucs = {arm.name: op.metrics.auc for arm, op in zip(arms, result) if op is not None}
    for name in ARM_AUCS:
        out[f"auc_{name}"] = (aucs.get(name, 0.0), "auc")

    total = sum(out[k][0] for k in REGION_SELF)
    wall = out["trace.wall_s"][0]
    problems = [] if abs(total - wall) <= 1e-6 * wall else [
        f"layer self times sum to {total} s, traced wall clock is {wall} s"]
    return out, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    cap_blas_threads()
    import_program(root)
    import numpy as np

    import bench_trace
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench_workloads.WORKLOADS)}")
    (root / OUT_DIR).mkdir(exist_ok=True)
    workload = bench_workloads.WORKLOADS[args.workload](args.seed, root / OUT_DIR, root / CACHE_DIR)
    machine = machine_facts()
    print(f"machine: {json.dumps(machine)}", flush=True)

    workload.prepare()
    tracer = bench_trace.Tracer() if args.trace else None
    inputs, setup_times, setup_spans = setups(workload, tracer)
    arms = workload.arms()
    rounds, traced, walls, traced_walls = measure(workload, arms, inputs, args.seconds, tracer)
    if tracer is None:
        metrics = end_to_end(arms, rounds, setup_times)
        problems = []
    else:
        metrics, problems = per_layer(tracer, arms, traced, walls, traced_walls, setup_spans)
        np.savez(root / OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz",
                 **bench_trace.spans_as_arrays(tracer.names, [s for _, s in traced] + setup_spans))
    all_rounds = rounds + [r for r, _ in traced]
    problems += workload.check_run(arms, inputs, all_rounds)

    attempted = len(arms) * len(all_rounds)
    failed = sum(op is None for r in all_rounds for op in r)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "rounds": len(all_rounds), "setup_times_s": setup_times,
        "round_walls_s": walls, "traced_round_walls_s": traced_walls,
        "arms": {arm.name: {"auc": op.metrics.auc, "epochs_run": op.report.epochs_run,
                            "best_epoch": op.report.best_epoch}
                 for arm, op in zip(arms, rounds[0]) if op is not None},
        "problems": problems,
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    (root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
