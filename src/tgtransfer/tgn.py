"""Memory-based temporal graph network.

Every node carries a memory vector. An interaction (u, i, t) produces one raw
message per endpoint, MSG(m_self, m_other, timegap, edge_features), fed to a
GRU that overwrites that endpoint's memory; within a processing batch all
messages read batch-start memories and the latest message per node wins.

Node embeddings at time t start from projected static features plus current
memory and pass through layers of multi-head dot-product attention over the
k most recent strictly-earlier interactions, keyed on neighbor embedding,
encoded time gap, and edge features. Attention runs over each query's CSR
row of real neighbor slots only, never over a padded slot. A two-tower MLP
decoder turns a pair of embeddings into a link probability.

Each `embed` call embeds every distinct (node, t, hidden) query once and
gathers the result back to the caller's rows; `score_pairs` embeds users and
items in one call. A call builds the layer-0 table (static features plus
memory) for every graph node once and gathers it wherever its recursion
reaches layer 0, and each layer encodes the query side's zero time gap once.
The attention of one layer, from the key and value projections to the
softmax-weighted sum of values, is one autodiff op with a hand-written
backward, `_temporal_attention`. Keys and values run as one stream of width
2 * d_mem: each neighbor table row is projected once for both (at layer 1
once per graph node, the layer-0 table; above it once per slot), then
gathered per slot, and one product adds the slots' time and edge columns.
The tape keeps that stream, the attention weights and two plans of sums
over query rows, so the backward reuses the forward instead of recomputing
it. Its segment softmax is FGAT's, `T._segment_softmax`.
Time gaps, of a neighbor event or a memory update before the query and the
query's zero gap to itself, go through `numerics.nn.TimeEncoder`'s tables of
the call's distinct query and event times; neighbor slots pass their
queries' times and the slot-to-query row, so one time per query is sorted.
Gaps to events take the bound graph's first event time (`GraphContext.t0`)
as the reference time, so a row's bytes depend on its own times only; the
zero gap is encoded at time 0 against time 0, which makes it exactly
cos(phase).

Training defers each batch's memory write until just before the next batch is
scored (values are unchanged by the delay: no optimizer step intervenes), so
the write happens on the autodiff tape and the message/GRU weights receive
gradients from the following batch's loss. The observable memory trajectory
is exactly the plain score-step-update schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .numerics import tensor as T
from .numerics.checkpoint import (
    CheckpointError, check_fields, check_value, config_from, read_blob, require, write_blob,
)
from .numerics.nn import GruCell, Linear, Mlp, TimeEncoder
from .numerics.optim import Adam
from .numerics.params import ParameterSet, xavier_uniform
from .temporal_graph import Csr, EventBatch, NeighborIndex, TemporalGraph, batch_iter, sample_negatives
from .transform import StaticGraph, TransformedGraph, graph_blob, graph_from_blob

UNKNOWN_ROW = 0


@dataclass
class TgnConfig:
    d_mem: int = 32
    d_time: int = 16
    d_feat: int = 32
    n_layers: int = 1
    n_heads: int = 2
    k_neighbors: int = 10
    batch_size: int = 200
    lr: float = 0.001
    context_dropout: float = 0.0

    def __post_init__(self):
        check_fields(self, "count", "d_mem", "d_time", "d_feat", "n_heads", "k_neighbors", "batch_size")
        check_fields(self, "size", "n_layers")
        check_fields(self, "rate", "lr")
        check_fields(self, "share", "context_dropout")
        if self.d_mem % self.n_heads:
            raise ValueError("d_mem must be divisible by n_heads")

    def to_dict(self) -> dict:
        return asdict(self)


class MemoryState:
    """Per-node memory and last-update times."""

    def __init__(self, memory: np.ndarray, last_update: np.ndarray):
        self.memory = np.asarray(memory, dtype=np.float64)
        self.last_update = np.asarray(last_update, dtype=np.float64)
        if self.memory.ndim != 2 or len(self.memory) != len(self.last_update):
            raise ValueError("memory and last_update sizes disagree")

    @classmethod
    def zeros(cls, num_nodes: int, d_mem: int) -> "MemoryState":
        return cls(np.zeros((num_nodes, d_mem)), np.zeros(num_nodes))

    @property
    def num_nodes(self) -> int:
        return len(self.memory)

    def copy(self) -> "MemoryState":
        return MemoryState(self.memory.copy(), self.last_update.copy())


class GraphContext(NamedTuple):
    """A graph bound to a model's vocabulary: neighbor index plus per-node
    embedding-table rows for the node's feature tokens."""

    graph: TemporalGraph
    index: NeighborIndex
    node_rows: Csr

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def t0(self) -> float:
        """The graph's first event time (0.0 without events): the reference
        time of every time encoding on this graph."""
        return float(self.graph.times[0]) if self.graph.num_events else 0.0


def _check_lengths(**arrays) -> None:
    """Raise `ValueError` unless every array given (None skipped) has as many
    entries as the first."""
    (first, n), *rest = [(name, np.size(a)) for name, a in arrays.items() if a is not None]
    for name, m in rest:
        if m != n:
            raise ValueError(f"{name} has {m} entries but {first} has {n}")


def _distinct_queries(nodes: np.ndarray, ts: np.ndarray, hide) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of a batch of (node, t, hidden) queries: `first` picks
    one row per distinct query, in (node, t, hidden) order, and `inverse` maps
    each row to its query's place in `first`."""
    keys = (ts, nodes) if hide is None else (hide, ts, nodes)
    order = np.lexsort(keys)
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any([key[order[1:]] != key[order[:-1]] for key in keys], axis=0)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _temporal_attention(q, h_src, src, phi, x_uv, wk, wv, bv, row, b, heads):
    """Multi-head dot-product attention of `b` queries over their real
    neighbor slots, as one op.

    Slot `s` belongs to query `row[s]` (sorted); its key and value input is
    `[h_src[src[s]], phi[s], x_uv[s]]`, with `x_uv` a constant array. Keys
    and values are the first and last d columns of one (n, 2d) stream
    `P[src] + [phi, x_uv] @ [wk[dm:], wv[dm:]]`, where `P = h_src @ [wk[:dm],
    wv[:dm]] + [0, bv]` projects each `h_src` row once for both.
    Returns the (b, d) context as a `Tensor` with op name
    "temporal_attention", and the (n, heads) `alpha` array. The rest runs
    per-slot query dot products, a segment softmax and a segment sum.

    Backward reuses the forward's stream, `alpha`, plans of sums over `row`
    and the softmax's backward rule; it gathers each slot's query row, which
    the tape does not keep, with its incoming gradient row. The key and
    value gradients fill one (n, 2d) array, summed per `h_src` row by one
    plan, and the value bias gradient is read off those sums.
    """
    n, d = len(row), q.shape[1]
    dm, dh = h_src.shape[1], d // heads
    scale = 1.0 / np.sqrt(dh)
    w = np.concatenate([wk.data, wv.data], axis=1)
    w_h, w_rest = w[:dm], w[dm:]
    rest_in = np.concatenate([phi.data, x_uv], axis=1)
    p = T._matmul(h_src.data, w_h)
    p[:, d:] += bv.data
    kv = T._matmul(rest_in, w_rest)
    for lo in range(0, n, 4096):  # gathered in blocks: no second (n, 2d) array
        kv[lo : lo + 4096] += p.take(src[lo : lo + 4096], axis=0)
    per_row, per_head = T._index_plan(row, b, d), T._index_plan(row, b, heads)
    kk, vv = kv.reshape(n, 2, heads, dh).transpose(1, 0, 2, 3)
    scores = np.einsum("shd,shd->sh", q.data.take(row, axis=0).reshape(n, heads, dh), kk) * scale
    alpha, softmax_backward = T._segment_softmax(scores, row, per_head)
    context = per_row(np.einsum("sh,shd->shd", alpha, vv).reshape(n, d))

    def backward(g):
        # each slot's query row and incoming gradient row, side by side
        qg = np.concatenate([q.data, g], axis=1).take(row, axis=0).reshape(n, 2, heads, dh)
        g_scores = softmax_backward(np.einsum("shd,shd->sh", qg[:, 1], vv)) * scale
        g_q = per_row(np.einsum("sh,shd->shd", g_scores, kk).reshape(n, d))
        # keys' gradient g_scores * q beside values' alpha * g
        g_kv = np.einsum("sjh,sjhd->sjhd", np.stack([g_scores, alpha], axis=1), qg).reshape(n, 2 * d)
        g_p = T._index_plan(src, len(h_src.data), 2 * d)(g_kv)
        g_w_h, g_w_rest = T._matmul(h_src.data.T, g_p), T._matmul(rest_in.T, g_kv)
        g_wk, g_wv = (np.concatenate([g_w_h[:, cols], g_w_rest[:, cols]]) for cols in (slice(0, d), slice(d, None)))
        return (g_q, T._matmul(g_p, w_h.T), T._matmul(g_kv, w_rest[: phi.shape[1]].T),
                g_wk, g_wv, g_p[:, d:].sum(axis=0))

    parents = (q, h_src, phi, wk, wv, bv)
    return T.Tensor(context, _parents=parents, _backward=backward, _op="temporal_attention"), alpha


class TgnModel:
    """Parameters and forward passes; graph-independent given a vocabulary."""

    def __init__(self, config: TgnConfig, feature_vocab: list[str], edge_dim: int, rng: np.random.Generator):
        self.config = config
        self.edge_dim = int(edge_dim)
        self.feature_vocab = list(feature_vocab)
        self._token_row = {tok: k + 1 for k, tok in enumerate(self.feature_vocab)}
        d, dt, df, de = config.d_mem, config.d_time, config.d_feat, self.edge_dim

        self.pset = ParameterSet()
        self.pset.add("feat.table", xavier_uniform(rng, df, df, (len(self.feature_vocab) + 1, df)))
        self.feat_proj = Linear("feat_proj", df, d)
        self.feat_proj.init_params(self.pset, rng)
        self.time_enc = TimeEncoder("time", dt)
        self.time_enc.init_params(self.pset, rng)
        self.msg_mlp = Mlp("msg", [2 * d + dt + de, d, d])
        self.msg_mlp.init_params(self.pset, rng)
        self.gru = GruCell("gru", d, d)
        self.gru.init_params(self.pset, rng)
        self.att_q: list[Linear] = []
        self.att_v: list[Linear] = []
        self.att_o: list[Linear] = []
        self.combine: list[Mlp] = []
        for layer in range(1, config.n_layers + 1):
            q = Linear(f"att{layer}.q", d + dt, d)
            v = Linear(f"att{layer}.v", d + dt + de, d)
            o = Linear(f"att{layer}.o", d, d)
            c = Mlp(f"combine{layer}", [2 * d, d, d])
            q.init_params(self.pset, rng)
            # keys carry no bias: q · b_k is the same for every slot of a query, and the softmax cancels it
            self.pset.add(f"att{layer}.k.w", xavier_uniform(rng, d + dt + de, d, (d + dt + de, d)))
            for mod in (v, o, c):
                mod.init_params(self.pset, rng)
            self.att_q.append(q)
            self.att_v.append(v)
            self.att_o.append(o)
            self.combine.append(c)
        self.decoder = Mlp("dec", [2 * d, d, 1])
        self.decoder.init_params(self.pset, rng)

    # -- vocabulary and graph binding ----------------------------------------

    def token_rows(self, tokens: list[str]) -> np.ndarray:
        return np.array([self._token_row.get(t, UNKNOWN_ROW) for t in tokens], dtype=np.int64)

    def bind_graph(self, graph: TemporalGraph) -> GraphContext:
        """Map the graph's feature tokens into this model's embedding rows."""
        if graph.edge_feature_dim != self.edge_dim:
            raise ValueError(
                f"edge feature dim {graph.edge_feature_dim} does not match model {self.edge_dim}"
            )
        feats = graph.node_features
        node_rows = Csr(feats.offsets, self.token_rows(graph.feature_vocab)[feats.values])
        return GraphContext(graph, NeighborIndex(graph), node_rows)

    # -- forward pieces ---------------------------------------------------------

    def node_static_features(self, ctx: GraphContext, nodes: np.ndarray) -> T.Tensor:
        """Mean feature embedding per node, projected to memory width.

        The projection depends on the node only, so it is computed once for
        every graph node and then gathered at `nodes`.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= ctx.num_nodes):
            raise KeyError("unknown node in static feature query")
        rows = ctx.node_rows
        counts = np.maximum(rows.lengths, 1).astype(np.float64)
        emb = T.gather(self.pset["feat.table"], rows.values)
        mean = T.segment_sum(emb, rows.segment_ids(), len(rows)) * T.constant(1.0 / counts[:, None])
        return T.gather(self.feat_proj(self.pset, mean), nodes)

    def embed(self, ctx: GraphContext, mem: T.Tensor, nodes: np.ndarray, ts: np.ndarray, hide: np.ndarray | None = None) -> T.Tensor:
        """The top-layer embedding h(t) of each (node, t) query.

        `mem` holds one memory row per graph node, (num_nodes, d_mem);
        another shape raises `ValueError`. `hide` marks query rows
        whose neighbor context is masked out at the top layer (training-time
        context dropout); they fall back to the empty-neighborhood path.
        Repeated queries are folded: each distinct (node, t, hidden) query is
        embedded once and its row gathered wherever it repeats, so repeats
        get the same bytes and their gradients are summed before the layers
        see them. A hidden and an unhidden copy stay distinct.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        hide = None if hide is None else np.asarray(hide)
        _check_lengths(nodes=nodes, ts=ts, hide=hide)
        want = (ctx.num_nodes, self.config.d_mem)
        if mem.shape != want:
            raise ValueError(f"memory of shape {mem.shape} where the graph needs {want}")
        if nodes.size and (nodes.min() < 0 or nodes.max() >= ctx.num_nodes):
            raise KeyError("embedding query for unknown node")
        # layer 0 of every node, built once per call: static features plus memory
        h0 = self.node_static_features(ctx, np.arange(ctx.num_nodes)) + mem
        first, inverse = _distinct_queries(nodes, ts, hide)
        nodes, ts, hide = nodes[first], ts[first], None if hide is None else hide[first]
        return T.gather(self._embed(ctx, h0, nodes, ts, self.config.n_layers, hide), inverse)

    def _embed(self, ctx: GraphContext, h0: T.Tensor, nodes: np.ndarray, ts: np.ndarray, layer: int, hide=None) -> T.Tensor:
        """`embed` of distinct queries."""
        if layer == 0:
            return T.gather(h0, nodes)
        cfg = self.config
        b, k = len(nodes), cfg.k_neighbors
        if hide is None:
            h_self = self._embed(ctx, h0, nodes, ts, layer - 1)
        else:  # a hidden and an unhidden copy of one (node, t) share the layers below
            first, inverse = _distinct_queries(nodes, ts, None)
            h_self = T.gather(self._embed(ctx, h0, nodes[first], ts[first], layer - 1), inverse)
        # hidden queries look up no neighbor slots
        nbr_ids, nbr_times, nbr_ords, count = ctx.index.batch_neighbors(
            nodes, ts, k if hide is None else np.where(hide, 0, k))
        row = np.repeat(np.arange(b), count)
        t_slot = ts[row]
        if len(row) and (t_slot - nbr_times).min() < -1e-12:
            raise ValueError("neighbor newer than query time")
        # layer 1 projects the layer-0 table once per node; above, each slot's own row
        if layer == 1:
            h_src, src = h0, nbr_ids
        else:
            h_src, src = self._embed(ctx, h0, nbr_ids, t_slot, layer - 1), np.arange(len(row))
        phi = self.time_enc(self.pset, ts, nbr_times, ctx.t0, row)
        x_uv = ctx.index.edge_features_for(nbr_ords)
        # every query sees a zero gap to itself: encode it once, copy it per row
        phi_self = T.gather(self.time_enc(self.pset, np.zeros(1), np.zeros(1), 0.0), np.zeros(b, dtype=np.int64))
        q_in = T.concat([h_self, phi_self], axis=1)

        li, ps = layer - 1, self.pset
        q = self.att_q[li](ps, q_in)
        context, _ = _temporal_attention(
            q, h_src, src, phi, x_uv, ps[f"att{layer}.k.w"], *self.att_v[li].weights(ps),
            row, b, cfg.n_heads,
        )
        context = self.att_o[li](ps, context)
        has_nbr = (count > 0).astype(np.float64)
        context = context * T.constant(has_nbr[:, None])
        return self.combine[li](ps, T.concat([h_self, context], axis=1))

    def score_pairs(self, ctx: GraphContext, mem: T.Tensor, users: np.ndarray, items: np.ndarray, ts: np.ndarray, hide_users: np.ndarray | None = None, hide_items: np.ndarray | None = None) -> T.Tensor:
        """Link probabilities for (user, item, t) triples; items are global ids.

        Users and items are embedded in one `embed` call on the users followed
        by the items, so both sides share one layer-0 table and one neighbor
        lookup per layer. Users and items are disjoint node ids, so the call
        folds repeated queries within each side, never across them.
        """
        ts = np.asarray(ts, dtype=np.float64)
        _check_lengths(users=users, items=items, ts=ts, hide_users=hide_users, hide_items=hide_items)
        b = len(ts)
        hide = None
        if hide_users is not None or hide_items is not None:
            hide = np.concatenate([np.zeros(b) if h is None else h for h in (hide_users, hide_items)])
        h = self.embed(ctx, mem, np.concatenate([users, items]), np.concatenate([ts, ts]), hide=hide)
        logits = self.decoder(self.pset, T.concat([T.gather(h, slice(0, b)), T.gather(h, slice(b, 2 * b))], axis=1))
        return T.sigmoid(logits.reshape((b,)))

    # -- memory updates ------------------------------------------------------------

    def batch_updates(self, mem: T.Tensor, last_update: np.ndarray, batch: EventBatch, ctx: GraphContext):
        """New memory rows for a batch of events of `ctx`'s graph.

        Both endpoints of every event receive a message computed from
        batch-start memories; per node only its latest message in the batch
        survives. Returns (nodes ascending, new row tensor, new last_update).
        """
        items_g = batch.items + ctx.graph.num_users
        ev_nodes = np.concatenate([batch.users, items_g])
        ev_partner = np.concatenate([items_g, batch.users])
        ev_times = np.concatenate([batch.times, batch.times])
        ev_feats = np.concatenate([batch.edge_features, batch.edge_features], axis=0)

        if (ev_times < last_update[ev_nodes]).any():
            raise ValueError("event time precedes a node's last memory update")

        # last message per node: scan positions in reverse, unique keeps first
        rev = ev_nodes[::-1]
        uniq, rev_first = np.unique(rev, return_index=True)
        last_pos = len(ev_nodes) - 1 - rev_first

        m_self = T.gather(mem, ev_nodes[last_pos])
        m_other = T.gather(mem, ev_partner[last_pos])
        phi = self.time_enc(self.pset, ev_times[last_pos], last_update[uniq], ctx.t0)
        msg_in = T.concat([m_self, m_other, phi, T.constant(ev_feats[last_pos])], axis=1)
        msg = self.msg_mlp(self.pset, msg_in)
        new_rows = self.gru(self.pset, msg, m_self)
        return uniq, new_rows, ev_times[last_pos]


def update_memory(model: TgnModel, state: MemoryState, batch: EventBatch, ctx: GraphContext) -> MemoryState:
    """Apply one batch of events of `ctx`'s graph to a state immediately;
    returns a new state."""
    out = state.copy()
    with T.no_grad():
        mem = T.constant(state.memory)
        nodes, rows, new_last = model.batch_updates(mem, state.last_update, batch, ctx)
    out.memory[nodes] = rows.data
    out.last_update[nodes] = new_last
    return out


def train_epoch(
    model: TgnModel,
    ctx: GraphContext,
    train_graph: TemporalGraph,
    init_state: MemoryState,
    opt,
    rng: np.random.Generator,
) -> tuple[MemoryState, float]:
    """One pass over the training events; returns (end state, mean loss).

    The epoch starts from a copy of `init_state` (zeros for fresh training,
    or a transferred memory) and leaves `init_state` untouched. Each batch's
    memory update runs in the next batch's forward; the last batch's runs at
    the end, with the trained parameters. Each batch is one `_train_step`,
    whose tape is gone when it returns, so no step holds two tapes.
    """
    if train_graph.num_events == 0:
        raise ValueError("empty training graph")
    state = init_state.copy()
    losses = []
    pending = None
    for batch in batch_iter(train_graph, model.config.batch_size):
        losses.append(_train_step(model, ctx, state, pending, batch, opt, rng))
        pending = batch
    return update_memory(model, state, pending, ctx), float(np.mean(losses))


def _train_step(model: TgnModel, ctx: GraphContext, state: MemoryState, pending: EventBatch | None,
                batch: EventBatch, opt, rng: np.random.Generator) -> float:
    """Score `batch` after applying `pending`'s memory update on the tape,
    take one optimizer step, write that update into `state`; returns the
    batch loss. The tape lives in this frame only."""
    num_users = ctx.graph.num_users
    model.pset.zero_grads()
    mem = T.constant(state.memory)
    if pending is not None:
        nodes, rows, new_last = model.batch_updates(mem, state.last_update, pending, ctx)
        mem = T.scatter_rows(mem, nodes, rows)

    items_g = batch.items + num_users
    neg_items = sample_negatives(batch.items, ctx.graph.num_items, rng) + num_users
    users2 = np.concatenate([batch.users, batch.users])
    cands = np.concatenate([items_g, neg_items])
    times2 = np.concatenate([batch.times, batch.times])
    hide_u = hide_i = None
    if model.config.context_dropout > 0.0:
        hide_u = rng.random(len(users2)) < model.config.context_dropout
        hide_i = rng.random(len(cands)) < model.config.context_dropout
    probs = model.score_pairs(ctx, mem, users2, cands, times2,
                              hide_users=hide_u, hide_items=hide_i)
    labels = np.concatenate([np.ones(len(batch.users)), np.zeros(len(batch.users))])
    loss = T.bce_loss(probs, labels)
    T.backward(loss, params=model.pset.tensors())
    opt.step(model.pset)

    if pending is not None:
        state.memory[nodes] = rows.data
        state.last_update[nodes] = new_last
    return float(loss.data)


def train(
    model: TgnModel,
    ctx: GraphContext,
    train_graph: TemporalGraph,
    epochs: int,
    rng: np.random.Generator,
    init_state: MemoryState | None = None,
    optimizer=None,
) -> tuple[MemoryState, list[float]]:
    """Multi-epoch training; memory restarts from `init_state` every epoch.

    `epochs` may be 0, which returns `init_state`'s copy (zero memory when
    none is given) and no losses; a negative count raises `ValueError`.
    Training sets the C heap to keep the pages freed tapes held (see
    `numerics.tensor._keep_freed_pages`), so each step reuses the last
    step's memory instead of faulting fresh pages in.
    """
    check_value("epochs", epochs, "size")
    T._keep_freed_pages()
    base = init_state or MemoryState.zeros(ctx.num_nodes, model.config.d_mem)
    opt = optimizer or Adam(lr=model.config.lr)
    losses = []
    state = base.copy()
    for _ in range(epochs):
        state, loss = train_epoch(model, ctx, train_graph, base, opt, rng)
        losses.append(loss)
    return state, losses


# -- checkpointing -------------------------------------------------------------------


class TgnCheckpoint(NamedTuple):
    model: TgnModel
    state: MemoryState
    source: TransformedGraph


def snapshot(
    model: TgnModel,
    state: MemoryState,
    optimizer,
    path,
    source_graph: TemporalGraph,
    train_pairs: tuple,
) -> None:
    """Write params, memory, and the source graph a later transfer run maps
    memory from: its transformed graph over the (user, item, count)
    `train_pairs` of its training split, stored at array names prefixed
    "graph." in the `transform` blob format, so the raw event log is not
    needed. `optimizer` is not read: optimizer state never transfers."""
    arrays = dict(model.pset.state_arrays())
    arrays["memory.values"] = state.memory
    arrays["memory.last_update"] = state.last_update
    meta = {
        "kind": "tgn-checkpoint",
        "config": model.config.to_dict(),
        "edge_dim": model.edge_dim,
        "feature_vocab": model.feature_vocab,
    }
    static = StaticGraph(*train_pairs, source_graph.num_users, source_graph.num_items)
    tg = TransformedGraph(static, source_graph.user_features, source_graph.item_features,
                          source_graph.feature_vocab)
    meta["graph"], graph_arrays = graph_blob(tg, prefix="graph.")
    arrays.update(graph_arrays)
    write_blob(path, meta, arrays)


def restore(path) -> TgnCheckpoint:
    """The model, memory and source graph `snapshot` wrote. Stored arrays
    the model does not name, such as an old key bias or the Adam state older
    checkpoints hold, are dropped."""
    meta, arrays = read_blob(path)
    if meta.get("kind") != "tgn-checkpoint":
        raise ValueError(f"{path} is not a tgn checkpoint")
    config, edge_dim, vocab, graph = require(meta, "config", "edge_dim", "feature_vocab", "graph")
    model = TgnModel(config_from(TgnConfig, config), vocab, edge_dim, np.random.default_rng(0))
    if not isinstance(graph, dict):
        raise CheckpointError(f"{path} holds no source graph")
    param_names = set(model.pset.names())
    model.pset.load_arrays({k: v for k, v in arrays.items() if k in param_names})
    state = MemoryState(*require(arrays, "memory.values", "memory.last_update"))
    return TgnCheckpoint(model, state, graph_from_blob(graph, arrays, prefix="graph."))
