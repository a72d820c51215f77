"""Output checks, computed apart from the program.

Each check returns a list of problems; an empty list means it passed. The
references here share no code with ``cclrec``: the AUC is a rank sum with
averaged tie ranks, the ranking metrics are a plain per-user loop under the
README's protocol (score descending, item ascending), and the NT-Xent loss
is a per-anchor loop over the definition.
"""

from __future__ import annotations

import math

import numpy as np

METRIC_TOL = 1e-12
KERNEL_TOL = 1e-9


def auc_reference(scores, labels) -> float:
    """P(positive outranks negative) with ties counted 1/2, by a rank sum."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    lo = 0
    while lo < len(scores):
        hi = lo
        while hi + 1 < len(scores) and sorted_scores[hi + 1] == sorted_scores[lo]:
            hi += 1
        ranks[order[lo:hi + 1]] = (lo + hi) / 2 + 1  # average of ranks lo+1 .. hi+1
        lo = hi + 1
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    return (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def ranking_reference(users, items, scores, labels, k: int = 5) -> dict:
    """Mean per-user NDCG@k, Recall@k and MRR over every user with a test item."""
    per_user: dict[int, list] = {}
    for u, i, s, y in zip(np.asarray(users).tolist(), np.asarray(items).tolist(),
                          np.asarray(scores).tolist(), np.asarray(labels).tolist()):
        per_user.setdefault(u, []).append((-s, i, y))
    ndcg, recall, rr = [], [], []
    for rows in per_user.values():
        rel = [y for _, _, y in sorted(rows)]
        total = sum(rel)
        if total == 0:
            ndcg.append(0.0)
            recall.append(0.0)
            rr.append(0.0)
            continue
        dcg = sum(rel[r] / math.log2(r + 2) for r in range(min(k, len(rel))))
        idcg = sum(1.0 / math.log2(r + 2) for r in range(min(k, total)))
        ndcg.append(dcg / idcg)
        recall.append(sum(rel[:k]) / total)
        rr.append(1.0 / (rel.index(1) + 1))
    n = len(per_user)
    return {"ndcg5": sum(ndcg) / n, "recall5": sum(recall) / n, "mrr": sum(rr) / n}


def check_metrics(report, users, items, scores, labels) -> list[str]:
    """evaluate()'s AUC, MAE, NDCG@5, Recall@5 and MRR against the references."""
    labels = np.asarray(labels)
    expected = {"auc": auc_reference(scores, labels),
                "mae": math.fsum(abs(s - y) for s, y in zip(np.asarray(scores).tolist(),
                                                          labels.tolist())) / len(labels),
                **ranking_reference(users, items, scores, labels)}
    return [f"{name}: evaluate gives {getattr(report, name)!r}, reference {want!r}"
            for name, want in expected.items()
            if not abs(getattr(report, name) - want) <= METRIC_TOL]


def check_better_than_chance(arm: str, train_auc: float) -> list[str]:
    """The arm learned: its parameters rank its own training pairs better than chance."""
    return [] if train_auc > 0.5 else [f"{arm}: AUC on the training pairs {train_auc} is not above 0.5"]


def check_early_stopping(report, max_epochs: int, patience: int) -> list[str]:
    """The report agrees with early stopping on validation loss."""
    problems = []
    losses = report.val_losses
    if len(losses) != report.epochs_run:
        problems.append(f"{len(losses)} validation losses for {report.epochs_run} epochs")
    best = next((e for e, v in enumerate(losses) if v == min(losses)), -1) if losses else -1
    if report.best_epoch != best:
        problems.append(f"best_epoch {report.best_epoch} is not the first argmin {best}")
    # stopping early means the last patience + 1 epochs did not beat the best
    if report.epochs_run != max_epochs and report.epochs_run - 1 - best <= patience:
        problems.append(f"stopped at {report.epochs_run} of {max_epochs} epochs, "
                        f"{report.epochs_run - 1 - best} after the best, patience {patience}")
    return problems


def exposure_sets(users, items) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for u, i in zip(np.asarray(users).tolist(), np.asarray(items).tolist()):
        out.setdefault(u, set()).add(i)
    return out


def check_cf_positives(users, positives, exposed: dict[int, set[int]]) -> list[str]:
    """cf positives are never in the user's training exposure set."""
    return [f"cf positive {p} of user {u} is in the user's training exposure"
            for u, p in zip(np.asarray(users).tolist(), np.asarray(positives).tolist())
            if p in exposed.get(u, ())]


def argmax_difference(values, anchor: int) -> int:
    """argmax over j != anchor of |values[j] - values[anchor]|; lowest index wins ties."""
    best, best_diff = -1, -math.inf
    for j, v in enumerate(np.asarray(values).tolist()):
        if j != anchor and abs(v - values[anchor]) > best_diff:
            best, best_diff = j, abs(v - values[anchor])
    return best


def check_argmax_positives(kind: str, anchors, positives, row_of) -> list[str]:
    """ps / pop positives equal the brute-force argmax; row_of(k) gives the values of pair k."""
    problems = []
    for k, (i, p) in enumerate(zip(np.asarray(anchors).tolist(), np.asarray(positives).tolist())):
        want = argmax_difference(row_of(k), i)
        if p != want:
            problems.append(f"{kind} positive of pair {k} is {p}, brute-force argmax {want}")
    return problems


def nt_xent_reference(reps, tau: float) -> float:
    """Symmetric NT-Xent: mean over the 2N views a of
    -sim(a, partner)/tau + log sum_{m != a} exp(sim(a, m)/tau), partner = a xor 1."""
    reps = np.asarray(reps, dtype=np.float64)
    two_n = len(reps)
    terms = []
    for a in range(two_n):
        logits = (reps @ reps[a]) / tau
        others = np.delete(logits, a)
        top = others.max()
        terms.append(top + math.log(np.exp(others - top).sum()) - logits[a ^ 1])
    # fsum keeps the sum's rounding below what the central differences resolve
    return math.fsum(terms) / two_n


def check_kernel(loss: float, grad, reps, tau: float, coords, h: float = 1e-4) -> list[str]:
    """ccl_loss_and_grad's loss and gradient against the reference and central differences.

    With h = 1e-4 the central difference of the reference is good to about
    1e-7 relative on trained sim parameters (2N = 1,024); the gradient must
    agree to 1e-5 relative.
    """
    problems = []
    want = nt_xent_reference(reps, tau)
    if not abs(loss - want) <= KERNEL_TOL * max(1.0, abs(want)):
        problems.append(f"NT-Xent loss {loss!r} differs from the direct value {want!r}")
    for r, c in coords:
        bumped = np.array(reps, dtype=np.float64)
        bumped[r, c] += h
        up = nt_xent_reference(bumped, tau)
        bumped[r, c] -= 2 * h
        down = nt_xent_reference(bumped, tau)
        numeric = (up - down) / (2 * h)
        if not abs(grad[r, c] - numeric) <= 1e-5 * max(abs(numeric), abs(grad[r, c])) + 1e-12:
            problems.append(f"NT-Xent gradient at {(r, c)} is {grad[r, c]!r}, "
                            f"central difference {numeric!r}")
    return problems


def check_split_counts(train_users, train_items, test_users, test_items,
                       m: int, train_per_user: int, test_per_user: int) -> list[str]:
    """Every user has exactly the configured train and test items, and the two sets are disjoint."""
    problems = []
    for name, users, want in (("train", train_users, train_per_user), ("test", test_users, test_per_user)):
        counts = np.bincount(np.asarray(users), minlength=m)
        bad = np.nonzero(counts != want)[0]
        if len(bad):
            problems.append(f"user {bad[0]} has {counts[bad[0]]} {name} items, expected {want}")
    exposed = exposure_sets(train_users, train_items)
    overlap = [(u, i) for u, i in zip(np.asarray(test_users).tolist(), np.asarray(test_items).tolist())
               if i in exposed.get(u, ())]
    if overlap:
        problems.append(f"test pair {overlap[0]} is also a train pair")
    return problems


def check_loaded_table(name: str, table, users, items, ratings) -> list[str]:
    """A loaded table holds exactly the written triples, with label = rating >= 3."""
    order = np.lexsort((items, users))
    want = (np.asarray(users)[order], np.asarray(items)[order], np.asarray(ratings)[order])
    if len(table) != len(order):
        return [f"{name}: loaded {len(table)} rows, wrote {len(order)}"]
    problems = [f"{name}: loaded {field} differ from the written ones"
                for field, got, exp in (("users", table.users, want[0]), ("items", table.items, want[1]),
                                        ("ratings", table.ratings, want[2]))
                if not np.array_equal(got, exp)]
    if not np.array_equal(table.labels, (want[2] >= 3).astype(np.int64)):
        problems.append(f"{name}: labels are not rating >= 3")
    return problems


def check_same_arrays(what: str, a: list, b: list) -> list[str]:
    """Two lists of arrays are bit-equal, shape and dtype included."""
    same = len(a) == len(b) and all(
        x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))
    return [] if same else [f"{what}: arrays are not bit-equal"]
