"""Spans around calls into the library's public functions, from outside it.

A traced repetition swaps each wrapped function for a timing wrapper wherever
the name is looked up: in every ``tgtransfer`` module that imported the
function by name, or on the class for methods. Spans stay in memory as
``[name, start, end, parent]`` lists and are written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
Counters (rows, edges, bytes, ...) are computed after the wrapped call
returns, inside a ``trace`` span of their own, so their cost is charged to
the tracer rather than to the layer that called the wrapped function.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np

from tgtransfer import eval_metrics, fgat, temporal_graph, tgn, transfer, transform
from tgtransfer.numerics import checkpoint, optim, tensor


# -- counters: (counts, args, kwargs, result) -> None ----------------------------


def _file_bytes(key):
    def count(counts, args, kwargs, out):
        counts[key] += os.path.getsize(args[0])
    return count


def _backward(counts, args, kwargs, out):
    counts.setdefault("numerics.backward.node_ids", []).append(args[0].node_id)


def _batch_neighbors(counts, args, kwargs, out):
    mask = out[3]
    counts["temporal_graph.batch_neighbors.rows"] += mask.shape[0]
    counts["temporal_graph.batch_neighbors.filled"] += float(mask.sum())
    counts["temporal_graph.batch_neighbors.slots"] += mask.size


def _node_static_features(counts, args, kwargs, out):
    nodes = np.asarray(args[2])
    counts["tgn.node_static_features.rows"] += len(nodes)
    counts["tgn.node_static_features.distinct"] += len(np.unique(nodes))


def _embed(counts, args, kwargs, out):
    counts["tgn.embed.rows"] += len(args[3])


def _phase_plan(counts, args, kwargs, out):
    counts["fgat.encode.edges"] += sum(len(table.edge_tgt) for table in out)


def _evaluate(counts, args, kwargs, out):
    ctx, split = args[1], args[2]
    counts["eval_metrics.evaluate.events"] += split.num_events
    if kwargs.get("rank_metrics", True):
        counts["eval_metrics.catalog_pairs"] += split.num_events * ctx.graph.num_items


# (span name, owner, attribute, counter). A module owner means the function
# is replaced in every tgtransfer module that holds it; a class owner means
# the method is replaced on the class.
WRAPPED = (
    ("numerics.backward", tensor, "backward", _backward),
    ("numerics.adam_step", optim.Adam, "step", None),
    ("numerics.checkpoint.read", checkpoint, "read_blob", _file_bytes("numerics.checkpoint.read.bytes")),
    ("numerics.checkpoint.write", checkpoint, "write_blob", _file_bytes("numerics.checkpoint.write.bytes")),
    ("temporal_graph.load_events", temporal_graph, "load_events", None),
    ("temporal_graph.neighbor_index.build", temporal_graph.NeighborIndex, "__init__", None),
    ("temporal_graph.batch_neighbors", temporal_graph.NeighborIndex, "batch_neighbors", _batch_neighbors),
    ("temporal_graph.sample_negatives", temporal_graph, "sample_negatives", None),
    ("tgn.bind_graph", tgn.TgnModel, "bind_graph", None),
    ("tgn.node_static_features", tgn.TgnModel, "node_static_features", _node_static_features),
    ("tgn.embed", tgn.TgnModel, "embed", _embed),
    ("tgn.score_pairs", tgn.TgnModel, "score_pairs", None),
    ("tgn.batch_updates", tgn.TgnModel, "batch_updates", None),
    ("tgn.update_memory", tgn, "update_memory", None),
    ("tgn.train", tgn, "train", None),
    ("tgn.snapshot", tgn, "snapshot", None),
    ("tgn.restore", tgn, "restore", None),
    ("transform.transform_graph", transform, "transform_graph", None),
    ("transform.build_transformed", transform, "build_transformed", None),
    ("fgat.encode", fgat.FgatModel, "encode", None),
    ("fgat.phase_plan", fgat, "phase_plan", _phase_plan),
    ("fgat.train_fgat", fgat, "train_fgat", None),
    ("fgat.save_fgat", fgat, "save_fgat", None),
    ("fgat.load_fgat", fgat, "load_fgat", None),
    ("transfer.run_variant", transfer, "run_variant", None),
    ("transfer.prepare_variant", transfer, "prepare_variant", None),
    ("transfer.execute_run", transfer, "execute_run", None),
    ("transfer.map_memory", transfer, "map_memory", None),
    ("eval_metrics.evaluate", eval_metrics, "evaluate", _evaluate),
    ("eval_metrics.truth_rank", eval_metrics, "truth_rank", None),
    ("eval_metrics.average_precision", eval_metrics, "average_precision", None),
    ("eval_metrics.auc", eval_metrics, "auc", None),
)

# harness spans: the root of every traced set-up and repetition
SETUP, REP = "bench.setup", "bench.rep"
TRACE = "trace"

# (metric, unit) in output order; see benchmarks/README.md for their meaning
PER_LAYER = (
    [(f"{name}.self_s", "s") for name, *_ in WRAPPED]
    + [(f"{name}.calls", "count") for name, *_ in WRAPPED]
    + [
        ("numerics.backward.tensors_per_step", "count"),
        ("numerics.checkpoint.read.bytes", "bytes"),
        ("numerics.checkpoint.write.bytes", "bytes"),
        ("temporal_graph.batch_neighbors.rows", "count"),
        ("temporal_graph.batch_neighbors.fill", "ratio"),
        ("tgn.node_static_features.rows", "count"),
        ("tgn.node_static_features.distinct_share", "ratio"),
        ("tgn.embed.rows", "count"),
        ("fgat.encode.edges", "count"),
        ("eval_metrics.evaluate.events", "count"),
        ("eval_metrics.catalog_pairs", "count"),
        (f"{REP}.self_s", "s"),
        (f"{TRACE}.self_s", "s"),
        ("trace.overhead_share", "ratio"),
    ]
)


@contextmanager
def patch(owner, attr: str, value):
    """Set ``owner.attr`` to ``value`` for the duration, then restore it."""
    orig = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, orig)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._counts: dict = defaultdict(float)

    def _begin(self, name: str) -> int:
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int, start: float) -> None:
        end = perf_counter()
        self._open.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._end(idx, start)

    def wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            idx = self._begin(name)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(idx, start)
            if counter is not None:
                with self.span(TRACE):
                    counter(self._counts, args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Swap every wrapped function for its traced form, then restore."""
        modules = [m for name, m in sys.modules.items()
                   if name == "tgtransfer" or name.startswith("tgtransfer.")]
        with ExitStack() as stack:
            for name, owner, attr, counter in WRAPPED:
                orig = getattr(owner, attr)
                traced = self.wrap(name, orig, counter)
                targets = [owner] if isinstance(owner, type) else [
                    m for m in modules if getattr(m, attr, None) is orig
                ]
                for target in targets:
                    stack.enter_context(patch(target, attr, traced))
            yield self

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def totals(self) -> dict:
        """Self time and calls of every span name, with the counters."""
        totals: dict = defaultdict(float, self._counts)
        for (name, *_), own in zip(self.spans, self.self_times()):
            totals[f"{name}.self_s"] += own
            totals[f"{name}.calls"] += 1
        return totals

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for (name, start, end, parent), own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": own}) + "\n")


def per_layer(totals: dict, n_cycles: int, overhead_share: float) -> dict:
    """Every PER_LAYER metric for one set-up plus one repetition: the mean
    over `n_cycles` traced cycles of the totals taken from the tracer."""
    one = defaultdict(float, {k: v / n_cycles for k, v in totals.items() if not isinstance(v, list)})
    values = {metric: one[metric] for metric, _ in PER_LAYER}
    ids = totals.get("numerics.backward.node_ids", [])
    steps = [b - a for a, b in zip(ids, ids[1:])]
    values["numerics.backward.tensors_per_step"] = float(statistics.median_low(steps)) if steps else 0.0
    slots = one["temporal_graph.batch_neighbors.slots"]
    values["temporal_graph.batch_neighbors.fill"] = (
        one["temporal_graph.batch_neighbors.filled"] / slots if slots else 0.0
    )
    rows = one["tgn.node_static_features.rows"]
    values["tgn.node_static_features.distinct_share"] = (
        one["tgn.node_static_features.distinct"] / rows if rows else 0.0
    )
    values["trace.overhead_share"] = overhead_share
    return values
