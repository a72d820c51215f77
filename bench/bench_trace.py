"""Span tracer that times the program from outside.

The tracer replaces module attributes of ``cclrec`` with timing wrappers
while it is installed and puts the originals back afterwards, so no file of
the program changes. Each call of a wrapped function records one span: its
name, start, end, parent span and an optional size (the row count of a
contrastive batch). Spans stay in memory until the run writes them out.

A layer's self time is its span's duration minus the durations of its
child spans, so the self times of one region add up to the region's wall
clock.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# (module, attribute, span name, size of the call or None). Names imported
# into another module (``from cclrec.model import forward``) are patched
# there too, because that module looks them up in its own namespace.
WRAPPED = (
    ("training", "train", "train", None),
    ("training", "holdout_split", "holdout_split", None),
    ("training", "batch_objective", "batch_objective", None),
    ("training", "_validation_loss", "validation", None),
    ("model", "forward", "forward", None),
    ("metrics", "forward", "forward", None),
    ("model", "backward", "backward", None),
    ("model", "adam_step", "adam_step", None),
    ("contrastive", "ccl_loss_and_grad", "ccl_grad", lambda batch, *a, **k: batch.representations.shape[0]),
    ("contrastive", "ccl_loss", "ccl_loss", lambda batch, *a, **k: batch.representations.shape[0]),
    ("contrastive", "sample_random_counterfactual", "sampler", None),
    ("contrastive", "sample_propensity_difference", "sampler", None),
    ("contrastive", "sample_popularity_difference", "sampler", None),
    ("contrastive", "assemble_views", "views", None),
    ("contrastive", "scatter_view_grads", "views", None),
    ("metrics", "evaluate", "evaluate", None),
    ("data", "load_triples", "load_triples", None),
    ("simulate", "generate", "generate", None),
    ("propensity", "estimate_propensity_nb", "estimate", None),
    ("propensity", "estimate_popularity", "estimate", None),
)

ROOT = "region"


class Tracer:
    """Collects spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent index, size)
        self._stack = [-1]
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, size=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            n = size(*args, **kwargs) if size is not None else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, n)

        return timed

    def install(self) -> None:
        """Replace every attribute in WRAPPED with its timing wrapper."""
        for module_name, attr, name, size in WRAPPED:
            module = importlib.import_module(f"cclrec.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, size))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def region(self, fn):
        """Run fn() as one root span and return (its result, the region's spans)."""
        del self.spans[:]
        result = self.wrap(ROOT, fn)()
        return result, list(self.spans)


def self_times(names: list[str], spans: list) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed and largest size."""
    if not spans:
        return {}
    nid = np.array([s[0] for s in spans], dtype=np.int64)
    start = np.array([s[1] for s in spans])
    end = np.array([s[2] for s in spans])
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    size = np.array([s[4] for s in spans], dtype=np.int64)
    duration = end - start
    child = np.zeros(len(spans))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    own = duration - child
    out = {}
    for k, name in enumerate(names):
        sel = nid == k
        if not sel.any():
            continue
        out[name] = {
            "calls": int(sel.sum()),
            "inclusive_s": float(duration[sel].sum()),
            "self_s": float(own[sel].sum()),
            "rows": int(size[sel].sum()),
            "max_rows": int(size[sel].max()),
        }
    return out


def spans_as_arrays(names: list[str], regions: list[list]) -> dict:
    """All spans of a run as flat arrays, ready for np.savez."""
    rows = [(r, *s) for r, spans in enumerate(regions) for s in spans]
    cols = list(zip(*rows)) if rows else [()] * 6
    return {
        "names": np.array(names),
        "region": np.array(cols[0], dtype=np.int64),
        "name_id": np.array(cols[1], dtype=np.int64),
        "start": np.array(cols[2], dtype=np.float64),
        "end": np.array(cols[3], dtype=np.float64),
        "parent": np.array(cols[4], dtype=np.int64),
        "size": np.array(cols[5], dtype=np.int64),
    }
