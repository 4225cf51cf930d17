"""Staged attention encoder over transformed graphs.

Graph nodes start at zero and feature nodes at a learned embedding, then each
layer runs four update phases in a fixed order: feature nodes into all graph
nodes, items into users, users into items, and graph nodes back into feature
nodes. Phase 1 therefore reads feature embeddings as they stood at the end of
the previous layer, while phases 2-4 read values already updated within the
current layer. The last layer ends after phase 3, the last phase to write a
graph-node row: its phase 4 would write feature rows only, which no output
reads, so that layer has no phase-4 weights.

Each phase applies the same attention block with its own weights: per edge
(u aggregating v with weight a_uv),

    msg  = leaky_relu([w1 h_u, w2 h_v, w3 * a_uv])
    alpha = softmax_over_u's_neighbors(w4^T msg)
    h_u' = MLP([w5 h_u, sum_v alpha w6 h_v])

Nodes without neighbors in a phase still update through MLP([w5 h_u, 0]).
The phase tables are the one place that weights and sorts a transformed
graph's edges: a_uv is u's interaction fraction with v in phases 2 and 3,
1/|F_u| in phase 1 and 1/deg(f) in phase 4.

A phase is one autodiff op with a hand-written backward, `phase_update`:
self projection, edge attention, MLP and row write. Its edge part,
`_edge_attention`, relies on the activation acting blockwise and on a table
check that edge weights are nonnegative, so the score splits into per-node
terms (static, GAT-style attention, not GATv2's) formed once per row:
`act(w1 h_u) @ w4[:d] + act(w2 h_v) @ w4[d:2d] + a_uv * (act(w3) @ w4[2d:])`.
Its activation and segment softmax, with their backward rules, are the
`numerics.tensor` ones the MLPs and TGN's attention use. A table also holds
the sum plans the op runs, shared by every layer and freed with the table;
one built without a tape omits the backward's plans.

Training is masked link prediction over a pool of transformed graphs: each
epoch samples one graph, hides half of its interaction pairs, re-encodes the
remainder, and scores hidden pairs against equally many non-edges with a
dot-product sigmoid decoder. Masking leaves the feature attachments alone, so
the tables of phases 1 and 4 are built once per pool graph and those of phases
2 and 3 once per epoch, from the kept pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .numerics import tensor as T
from .numerics.checkpoint import check_fields, check_value, config_from, read_blob, require, write_blob
from .numerics.nn import Mlp
from .numerics.optim import Adam
from .numerics.params import ParameterSet, xavier_uniform
from .transform import TransformedGraph

UNKNOWN_ROW = 0  # embedding row for feature tokens outside the training vocab


@dataclass
class FgatConfig:
    dim: int = 32
    n_layers: int = 2
    lr: float = 0.005
    mask_fraction: float = 0.5
    slope: float = 0.2

    def __post_init__(self):
        check_fields(self, "count", "dim", "n_layers")
        check_fields(self, "rate", "lr")
        check_fields(self, "share", "mask_fraction")
        check_fields(self, "unit", "slope")

    def to_dict(self) -> dict:
        return asdict(self)


class PhaseTable(NamedTuple):
    start: int  # target nodes are the contiguous id range [start, start+count)
    count: int
    edge_tgt: np.ndarray
    edge_src: np.ndarray
    edge_a: np.ndarray
    seg: np.ndarray  # edge -> target position, edges sorted by (tgt, src)
    src_rows: slice  # the id range that holds every source node
    src_pos: np.ndarray  # edge -> source position in src_rows
    seg_sums: tuple  # `_index_plan`s over seg at widths 1 and dim
    src_sums: tuple  # `_index_plan`s over src_pos at widths 1 and dim; backward only


def _phase_table(start, count, tgt, src, a, dim) -> PhaseTable:
    """The table of edges already sorted by (tgt, src), with the sum plans of
    `_edge_attention` at width `dim`; without a tape, the forward's only."""
    seg = tgt - start
    lo, hi = (int(src.min()), int(src.max()) + 1) if len(src) else (0, 0)
    src_pos = src - lo
    sums = [(T._index_plan(idx, n, 1), T._index_plan(idx, n, dim)) if T._grad_enabled or idx is seg else ()
            for idx, n in ((seg, count), (src_pos, hi - lo))]
    return PhaseTable(start, count, tgt, src, a, seg, slice(lo, hi), src_pos, *sums)


def _sorted_table(start, count, tgt, src, a, dim) -> PhaseTable:
    tgt = np.asarray(tgt, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a) & (a >= 0.0)):
        raise ValueError("phase edge weights must be finite and nonnegative")
    order = np.lexsort((src, tgt))
    return _phase_table(start, count, tgt[order], src[order], a[order], dim)


def phase_plan(tg: TransformedGraph, dim: int, n_layers: int = 2) -> list[PhaseTable]:
    """Edge tables of the phases an `n_layers`-layer schedule runs, in
    schedule order: all four, or the first three for one layer, whose
    schedule ends before its phase 4."""
    s = tg.static
    p1, *p4 = _feature_tables(tg, dim, n_layers)
    return [p1, *_interaction_tables(s.pair_users, s.pair_items, s.pair_counts, s.num_users, s.num_items, dim), *p4]


def _feature_tables(tg: TransformedGraph, dim: int, n_layers: int) -> tuple[PhaseTable, ...]:
    """Tables of phases 1 and 4, which read only the feature attachments;
    phase 4's only where an `n_layers`-layer schedule runs one."""
    g_count = tg.num_graph_nodes
    feat_global = tg.feature_global(tg.feat_edge_feat)

    # phase 1: every graph node aggregates its feature nodes, weight 1/|F_u|
    a1 = 1.0 / tg.node_features.lengths[tg.feat_edge_node]
    p1 = _sorted_table(0, g_count, tg.feat_edge_node, feat_global, a1, dim)
    if n_layers == 1:
        return (p1,)

    # phase 4: feature nodes aggregate attached graph nodes, weight 1/deg
    a4 = 1.0 / np.bincount(tg.feat_edge_feat, minlength=tg.num_features)[tg.feat_edge_feat]
    p4 = _sorted_table(g_count, tg.num_features, feat_global, tg.feat_edge_node, a4, dim)
    return p1, p4


def _interaction_tables(users, items, counts, n_users, n_items, dim) -> tuple[PhaseTable, PhaseTable]:
    """Tables of phases 2 and 3 over (user, item) pairs in (user, item) order:
    each side aggregates the other, weighted by its interaction fractions."""
    cnt = counts.astype(np.float64)
    item_g = items + n_users
    # integer counts, so the totals are exact in any summation order
    a2 = cnt / np.bincount(users, weights=cnt, minlength=n_users)[users]
    p2 = _phase_table(0, n_users, users, item_g, a2, dim)
    by_item = np.argsort(items, kind="stable")  # (item, user) order
    a3 = cnt[by_item] / np.bincount(items, weights=cnt, minlength=n_items)[items[by_item]]
    p3 = _phase_table(n_users, n_items, item_g[by_item], users[by_item], a3, dim)
    return p2, p3


def _edge_attention(H, w1, w2, w6, w3, w4, table: PhaseTable, slope: float):
    """The (count, d) attention context of a phase with edges, the (E, 1)
    `alpha` array, and the map from the context's gradient to those of the
    target rows, source rows, w1, w2, w6, w3 and w4, on arrays.

    Products, activations and scores are formed per node row: an edge's logit is its target's score
    `act(p_t) @ w4[:d]` plus its source's `act(p_s) @ w4[d:2d]` plus
    `a_uv * (act(w3) @ w4[2d:])`, exact as the table's weights are `>= 0`.
    Every sum over edges runs through the table's plans.

    Backward: past the segment softmax's rule, the score gradient `g` is
    summed per target and per source row, which reach `p_t` and `p_s` through
    the activation's backward and give the `w4` gradient
    `[act(p_t).T @ segsum(g), act(p_s).T @ srcsum(g), act(w3) * (a @ g)]`.
    """
    seg, src, count = table.seg, table.src_pos, table.count
    seg_sum1, seg_sum = table.seg_sums
    d = w1.shape[1]
    H_t, H_s = H[table.start : table.start + count], H[table.src_rows]
    w4_t, w4_s, w4_a = w4[:d], w4[d : 2 * d], w4[2 * d :]
    p_t, p_s = T._matmul(H_t, w1), T._matmul(H_s, w2)
    (z_t, act_t), (z_s, act_s), (z_a, act_a) = (T._leaky_relu(x, slope) for x in (p_t, p_s, w3))
    logits = (z_t @ w4_t).take(seg, axis=0) + (z_s @ w4_s).take(src, axis=0) + table.edge_a[:, None] * (z_a @ w4_a)
    alpha, softmax_backward = T._segment_softmax(logits, seg, seg_sum1)
    v = T._matmul(H_s, w6).take(src, axis=0)
    context = seg_sum(v * alpha)

    def backward(g):
        (src_sum1, src_sum), g_edge = table.src_sums, g.take(seg, axis=0)
        g_logits = softmax_backward(np.sum(g_edge * v, axis=1, keepdims=True))
        g_lt, g_ls = seg_sum1(g_logits), src_sum1(g_logits)
        g_la = table.edge_a @ g_logits[:, 0]
        g_t, g_s2 = act_t(g_lt * w4_t[:, 0]), act_s(g_ls * w4_s[:, 0])
        g_s6 = src_sum(g_edge * alpha)
        return (g_t @ w1.T, g_s2 @ w2.T + g_s6 @ w6.T, H_t.T @ g_t, H_s.T @ g_s2, H_s.T @ g_s6,
                act_a(w4_a[:, 0]) * g_la, np.concatenate([z_t.T @ g_lt, z_s.T @ g_ls, z_a[:, None] * g_la]))

    return context, alpha, backward


def phase_update(H: T.Tensor, params: tuple, table: PhaseTable, slope: float):
    """One phase as one op: the copy of `H` whose target rows are
    `MLP([H_t @ w5, context])`, and the (E, 1) `alpha` array (None without
    edges, where the context is 0). `params`: w5, the MLP's W0, b0, W1, b1
    and, with edges, w1, w2, w6, w3, w4. It runs the numpy steps of the
    composed `gather`, `matmul`, `concat`, `linear`, `leaky_relu` and
    `scatter_rows` ops in order, so values and gradients keep their bytes
    (up to the sign of zeros); H's gradient is built in one array."""
    rows = slice(table.start, table.start + table.count)
    w5, m_w0, m_b0, m_w1, m_b1 = (p.data for p in params[:5])
    H_t = H.data[rows]
    if len(params) > 5:
        if T._grad_enabled and not table.src_sums:
            raise ValueError("a phase table built without a tape cannot run backward")
        context, alpha, attention_backward = _edge_attention(H.data, *(p.data for p in params[5:]), table, slope)
    else:
        context, alpha = np.zeros((table.count, w5.shape[1])), None
    x = np.concatenate([T._matmul(H_t, w5), context], axis=1)
    pre = T._matmul(x, m_w0)
    pre += m_b0
    hidden, hidden_backward = T._leaky_relu(pre, 0.2)  # `Mlp`'s slope
    out = H.data.copy()
    out[rows] = T._matmul(hidden, m_w1)
    out[rows] += m_b1

    def backward(g):
        g_rows = g[rows]
        g_pre = hidden_backward(T._matmul(g_rows, m_w1.T))
        g_x = T._matmul(g_pre, m_w0.T)
        g_self, g_context = np.ascontiguousarray(g_x[:, : w5.shape[1]]), np.ascontiguousarray(g_x[:, w5.shape[1] :])
        g_H = g.copy()
        grads = [g_H, T._matmul(H_t.T, g_self), T._matmul(x.T, g_pre), g_pre.sum(axis=0),
                 T._matmul(hidden.T, g_rows), g_rows.sum(axis=0)]
        if alpha is None:
            g_H[rows] = T._matmul(g_self, w5.T)
            return grads
        g_t, g_s, *attention_grads = attention_backward(g_context)
        g_H[rows] = g_t
        g_H[table.src_rows] += g_s
        g_H[rows] += T._matmul(g_self, w5.T)
        return grads + attention_grads

    return T.Tensor(out, _parents=(H, *params), _backward=backward, _op="phase_update"), alpha


class FgatModel:
    """Config, vocabulary, and parameters; reusable across graphs."""

    def __init__(self, config: FgatConfig, feature_vocab: list[str], rng: np.random.Generator):
        self.config = config
        self.feature_vocab = list(feature_vocab)
        self._token_row = {tok: k + 1 for k, tok in enumerate(self.feature_vocab)}
        self.pset = ParameterSet()
        d = config.dim
        self.pset.add("feat.table", xavier_uniform(rng, d, d, (len(self.feature_vocab) + 1, d)))
        runs = [(layer, phase) for layer in range(1, config.n_layers + 1) for phase in range(1, 5)]
        self._schedule = runs[:-1]  # `encode` ends after the last layer's phase 3
        for layer, phase in runs:  # the last phase 4 is drawn, not kept: train-fgat goes on drawing from rng
            pset = self.pset if (layer, phase) in self._schedule else ParameterSet()
            p = f"layer{layer}.phase{phase}"
            for w in ("w1", "w2", "w5", "w6"):
                pset.add(f"{p}.{w}", xavier_uniform(rng, d, d, (d, d)))
            pset.add(f"{p}.w3", xavier_uniform(rng, 1, d, (d,)))
            pset.add(f"{p}.w4", xavier_uniform(rng, 3 * d, 1, (3 * d, 1)))
            Mlp(f"{p}.mlp", [2 * d, d, d]).init_params(pset, rng)

    def token_rows(self, tokens: list[str]) -> np.ndarray:
        """Embedding rows for tokens; unseen tokens share the unknown row."""
        return np.array([self._token_row.get(t, UNKNOWN_ROW) for t in tokens], dtype=np.int64)

    def _phase_params(self, layer: int, phase: int, edges: bool) -> tuple:
        """The `phase_update` parameters of one phase, with attention weights if `edges`."""
        attention = ("w1", "w2", "w6", "w3", "w4") if edges else ()
        names = ("w5", "mlp.l0.w", "mlp.l0.b", "mlp.l1.w", "mlp.l1.b", *attention)
        return tuple(self.pset[f"layer{layer}.phase{phase}.{name}"] for name in names)

    def encode(self, tg: TransformedGraph, plan: list[PhaseTable] | None = None) -> T.Tensor:
        """Embeddings for all transformed-graph nodes after the schedule's
        phases over `plan` (by default `phase_plan(tg, dim, n_layers)`); it ends
        after the last layer's phase 3, so feature rows hold what that layer read."""
        plan = phase_plan(tg, self.config.dim, self.config.n_layers) if plan is None else plan
        feat_h = T.gather(self.pset["feat.table"], self.token_rows(tg.feature_vocab))
        H = T.concat([T.constant(np.zeros((tg.num_graph_nodes, self.config.dim))), feat_h], axis=0)
        for layer, phase in self._schedule:
            table = plan[phase - 1]
            params = self._phase_params(layer, phase, len(table.edge_tgt) > 0)
            H, _ = phase_update(H, params, table, self.config.slope)
        return H

    def encode_arrays(self, tg: TransformedGraph) -> np.ndarray:
        """The graph-node rows of `encode`, tape-free."""
        with T.no_grad():
            return self.encode(tg).data[: tg.num_graph_nodes]


def graph_fingerprint(tg: TransformedGraph) -> tuple:
    s = tg.static
    return (
        s.num_users,
        s.num_items,
        s.pair_users.tobytes(),
        s.pair_items.tobytes(),
        s.pair_counts.tobytes(),
        tuple(tg.feature_vocab),
    )


# rejection sampling is kept while it needs at most this many draws per
# accepted pair on average; denser graphs sample their enumerated complement
_MAX_DRAWS_PER_PAIR = 64


def _sample_non_edges(tg: TransformedGraph, n: int, rng: np.random.Generator):
    """`n` (user, item) pairs absent from `tg`, uniformly with replacement.

    Candidates are drawn as (user, item) in turn and present pairs are
    skipped. Each round draws as many candidates as pairs are still missing
    from one `rng.integers` call over alternating bounds, which consumes
    the generator exactly as one scalar call per draw would; since a round
    never draws more than it could accept, the generator ends in the same
    state as under a one-at-a-time loop.

    The expected number of draws per accepted pair is cells / non-edges,
    which grows without bound as the graph nears complete. Above
    `_MAX_DRAWS_PER_PAIR`, the non-edges are listed instead and `n` of them
    drawn by index; listing every cell then costs less than 64/63 times the
    number of pairs.
    """
    s = tg.static
    cells = s.num_users * s.num_items
    if cells <= s.num_pairs:
        raise ValueError("graph has no non-edges to sample")
    # pair keys ascend with the (user, item) pair order; the sentinel past
    # every valid key keeps each search position in range
    present = np.append(s.pair_users * s.num_items + s.pair_items, cells)
    if (cells - s.num_pairs) * _MAX_DRAWS_PER_PAIR < cells:
        free = np.setdiff1d(np.arange(cells), present, assume_unique=True)
        key = free[rng.integers(0, len(free), n)]
        return key // s.num_items, key % s.num_items
    bounds = np.array([s.num_users, s.num_items])
    users = np.empty(n, dtype=np.int64)
    items = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        need = n - filled
        u, i = rng.integers(0, np.tile(bounds, need)).reshape(need, 2).T
        key = u * s.num_items + i
        free = present[np.searchsorted(present, key)] != key
        took = int(free.sum())
        users[filled : filled + took] = u[free]
        items[filled : filled + took] = i[free]
        filled += took
    return users, items


def train_fgat(
    model: FgatModel,
    pool: list[TransformedGraph],
    epochs: int,
    rng: np.random.Generator,
    forbidden: list[TransformedGraph] = (),
) -> list[float]:
    """Masked-link training; returns the per-epoch loss curve.

    Each epoch is one `_train_step` on a graph drawn from `pool`, whose tape
    is gone when it returns, so no step holds two tapes. `epochs` may be 0;
    a negative count raises `ValueError`. Training sets the C heap to keep
    the pages freed tapes held (see `numerics.tensor._keep_freed_pages`).
    """
    check_value("epochs", epochs, "size")
    if not pool:
        raise ValueError("training pool is empty")
    banned = {graph_fingerprint(t) for t in forbidden}
    for tg in pool:
        if graph_fingerprint(tg) in banned:
            raise ValueError("pool contains a forbidden (target) graph")
        if tg.static.num_pairs < 2:
            raise ValueError("pool graph has fewer than 2 interaction pairs")

    T._keep_freed_pages()
    # masking hides pairs only, so phases 1 and 4 keep their tables
    d = model.config.dim
    feature_tables = [_feature_tables(tg, d, model.config.n_layers) for tg in pool]
    opt = Adam(lr=model.config.lr)
    losses: list[float] = []
    for _ in range(epochs):
        k = int(rng.integers(0, len(pool)))
        losses.append(_train_step(model, pool[k], feature_tables[k], opt, rng))
    return losses


def _train_step(model: FgatModel, tg: TransformedGraph, feature_tables, opt, rng: np.random.Generator) -> float:
    """Mask a share of `tg`'s pairs, encode the rest, score the masked pairs
    against as many sampled non-edges, take one optimizer step; returns the
    loss. `feature_tables` are `tg`'s phase 1 table and, where the schedule
    runs one, its phase 4 table. The tape lives in this frame only."""
    s = tg.static
    d = model.config.dim
    n_pairs = s.num_pairs
    n_mask = max(1, int(round(n_pairs * model.config.mask_fraction)))
    n_mask = min(n_mask, n_pairs - 1)  # always keep at least one pair
    perm = rng.permutation(n_pairs)
    mask_idx, keep_idx = perm[:n_mask], np.sort(perm[n_mask:])
    p1, *p4 = feature_tables
    p2, p3 = _interaction_tables(
        s.pair_users[keep_idx], s.pair_items[keep_idx], s.pair_counts[keep_idx], s.num_users, s.num_items, d
    )

    H = model.encode(tg, plan=[p1, p2, p3, *p4])
    pos_u = s.pair_users[mask_idx]
    pos_i = s.pair_items[mask_idx] + tg.num_users
    neg_u, neg_i = _sample_non_edges(tg, n_mask, rng)
    neg_i = neg_i + tg.num_users

    hu = T.gather(H, np.concatenate([pos_u, neg_u]))
    hv = T.gather(H, np.concatenate([pos_i, neg_i]))
    probs = T.sigmoid(T.tensor_sum(hu * hv, axis=1))
    labels = np.concatenate([np.ones(n_mask), np.zeros(n_mask)])
    loss = T.bce_loss(probs, labels)

    model.pset.zero_grads()
    T.backward(loss, params=model.pset.tensors())
    opt.step(model.pset)
    return float(loss.data)


# -- checkpointing ------------------------------------------------------------------


def save_fgat(model: FgatModel, path) -> None:
    write_blob(
        path,
        {
            "kind": "fgat-checkpoint",
            "config": model.config.to_dict(),
            "feature_vocab": model.feature_vocab,
        },
        model.pset.state_arrays(),
    )


def load_fgat(path) -> FgatModel:
    meta, arrays = read_blob(path)
    if meta.get("kind") != "fgat-checkpoint":
        raise ValueError(f"{path} is not an fgat checkpoint")
    config, vocab = require(meta, "config", "feature_vocab")
    model = FgatModel(config_from(FgatConfig, config), vocab, np.random.default_rng(0))
    model.pset.load_arrays(arrays)
    return model
