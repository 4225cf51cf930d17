"""Link-prediction evaluation: AP, AUC, MRR, Recall@k, and the protocol.

Positive scores come from the split's true events; an equal number of
negatives pair each event's user with a random other item at the same time.
Each batch scores its users against one (B, m) matrix of candidate items:
the full item catalog when ranking metrics are on, else each event's true
item and its negative. The positive and negative scores are read off that
matrix, and ranking metrics rank the true item among the catalog (a run
ranks its test split only; see `transfer.execute_run`). The matrix
is scored in near-equal groups of whole user rows of at most `PAIR_BUDGET`
(user, item) pairs each, which bounds the per-slot arrays of one scoring
pass; a row's bytes do not depend on the rows scored with it. Only a ranked
chunk, one pair per catalog item for every event, is large enough to split.
The true events update the memory after being scored, so later events are
predicted with everything observed so far.

Ties are handled deterministically everywhere: AP breaks score ties by input
order, AUC gives half credit, and catalog ranks order tied items by item id.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .numerics import tensor as T
from .temporal_graph import TemporalGraph, batch_iter, sample_negatives
from .tgn import GraphContext, MemoryState, TgnModel, update_memory

# (user, item) pairs per `score_pairs` call: a README ranked `transfer` (1 BLAS
# thread) took 0.82 s at 1 000, 2 000 or one call a chunk, peaking at 52, 64, 91 MB
PAIR_BUDGET = 1000


# -- scalar metrics ------------------------------------------------------------


def average_precision(scores, labels) -> float:
    """Precision accumulated at each positive, walking scores descending."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    hits = labels[order].astype(np.float64)
    cum_pos = np.cumsum(hits)
    precision = cum_pos / np.arange(1, len(scores) + 1)
    return float((precision * hits).sum() / n_pos)


def auc(scores, labels) -> float:
    """Mann-Whitney AUC via midranks; ties get half credit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1  # each tie group spans sorted places [first, last]
    first = last - counts + 1
    ranks = (0.5 * (first + last) + 1.0)[group]  # 1-based midranks, exact
    pos_rank_sum = float(ranks[labels].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def truth_rank(scores: np.ndarray, item_ids: np.ndarray, truth_ids) -> np.ndarray:
    """1-based rank of each row's true item among the candidates `item_ids`,
    tied scores ordered by item id: (B, n) `scores` with (B,) `truth_ids`."""
    scores = np.asarray(scores, dtype=np.float64)
    item_ids = np.asarray(item_ids)
    truth_ids = np.asarray(truth_ids)[..., None]
    hit = item_ids == truth_ids
    if np.any(hit.sum(axis=-1) != 1):
        raise ValueError("truth item must appear exactly once among candidates")
    s = np.take_along_axis(scores, hit.argmax(axis=-1)[..., None], axis=-1)
    greater = np.sum(scores > s, axis=-1)
    tied_earlier = np.sum((scores == s) & (item_ids < truth_ids), axis=-1)
    return 1 + greater + tied_earlier


def mrr(ranks) -> float:
    ranks = np.asarray(ranks, dtype=np.float64)
    if len(ranks) == 0:
        raise ValueError("mrr of an empty test set")
    return float(np.mean(1.0 / ranks))


def recall_at_k(ranks, k: int = 20) -> float:
    ranks = np.asarray(ranks)
    if len(ranks) == 0:
        raise ValueError("recall of an empty test set")
    return float(np.mean(ranks <= k))


# -- report ---------------------------------------------------------------------


@dataclass
class MetricsReport:
    variant: str
    seed: int
    n_test_events: int
    k: int
    ap: float
    auc: float
    mrr: float
    recall_at_k: float

    def __post_init__(self):
        for name in ("ap", "auc", "mrr", "recall_at_k"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} outside [0,1]: {v}")

    def to_dict(self) -> dict:
        return asdict(self)


def summarize(values) -> tuple[float, float]:
    """(mean, std); std below 0.001 collapses to exactly 0.0."""
    values = np.asarray(values, dtype=np.float64)
    std = float(values.std())
    return float(values.mean()), 0.0 if std < 1e-3 else std


# -- protocol ---------------------------------------------------------------------


def _candidate_scores(model: TgnModel, ctx: GraphContext, mem, users, ts, items) -> np.ndarray:
    """(B, m) probabilities of the candidate items `items` (B, m), local ids,
    for each (user, t) query: one `score_pairs` call per near-equal group of
    whole rows, at most `PAIR_BUDGET` pairs each unless one row exceeds it.
    """
    b, m = items.shape
    items_g = items + ctx.graph.num_users
    rows = max(1, PAIR_BUDGET // m)  # whole user rows per call
    scores = []
    for r in np.array_split(np.arange(b), -(-b // rows)):
        probs = model.score_pairs(ctx, mem, np.repeat(users[r], m), items_g[r].ravel(), np.repeat(ts[r], m))
        scores.append(probs.data.reshape(len(r), m))
    return np.concatenate(scores)


def evaluate(
    model: TgnModel,
    ctx: GraphContext,
    split: TemporalGraph,
    state: MemoryState,
    rng: np.random.Generator,
    k: int = 20,
    chunk: int = 50,
    variant: str = "",
    seed: int = 0,
    rank_metrics: bool = True,
) -> tuple[MetricsReport, MemoryState]:
    """Score a chronological split; returns the report and the end state.

    The caller's state is never mutated; the returned state has absorbed the
    split's events.
    """
    if split.num_events == 0:
        raise ValueError("cannot evaluate an empty split")
    state = state.copy()
    pos_scores, neg_scores, ranks = [], [], []
    item_ids = np.arange(ctx.graph.num_items)
    for batch in batch_iter(split, chunk):
        negs = sample_negatives(batch.items, ctx.graph.num_items, rng)
        rows = np.arange(len(batch.items))
        if rank_metrics:  # the candidate in column j is item j
            items = np.broadcast_to(item_ids, (len(rows), len(item_ids)))
            pos_col, neg_col = batch.items, negs
        else:
            items, pos_col, neg_col = np.stack([batch.items, negs], axis=1), 0, 1
        with T.no_grad():
            scores = _candidate_scores(model, ctx, T.constant(state.memory), batch.users, batch.times, items)
        pos_scores.append(scores[rows, pos_col])
        neg_scores.append(scores[rows, neg_col])
        if rank_metrics:
            ranks.extend(truth_rank(scores, item_ids, batch.items))
        state = update_memory(model, state, batch, ctx)
    pos = np.concatenate(pos_scores)
    neg = np.concatenate(neg_scores)
    scores = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    report = MetricsReport(
        variant=variant,
        seed=seed,
        n_test_events=split.num_events,
        k=k,
        ap=average_precision(scores, labels),
        auc=auc(scores, labels),
        mrr=mrr(ranks) if rank_metrics else 0.0,
        recall_at_k=recall_at_k(ranks, k) if rank_metrics else 0.0,
    )
    return report, state
