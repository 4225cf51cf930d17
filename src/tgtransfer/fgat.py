"""Staged attention encoder over transformed graphs.

Graph nodes start at zero and feature nodes at a learned embedding, then each
layer runs four update phases in a fixed order: feature nodes into all graph
nodes, items into users, users into items, and graph nodes back into feature
nodes. Phase 1 therefore reads feature embeddings as they stood at the end of
the previous layer, while phases 2-4 read values already updated within the
current layer.

Each phase applies the same attention block with its own weights: per edge
(u aggregating v with weight a_uv),

    msg  = leaky_relu([w1 h_u, w2 h_v, w3 * a_uv])
    alpha = softmax_over_u's_neighbors(w4^T msg)
    h_u' = MLP([w5 h_u, sum_v alpha w6 h_v])

Nodes without neighbors in a phase still update through MLP([w5 h_u, 0]).

The edge part of a phase is one autodiff op with a hand-written backward,
`_edge_attention`. It projects, then gathers: `w1`, `w2`, `w6` and the
activation act once per node row and the results are gathered per edge. The
activation acts blockwise and edge weights are nonnegative, so the score
splits into per-node terms (static, GAT-style attention, not GATv2's):
`act(w1 h_u) @ w4[:d] + act(w2 h_v) @ w4[d:2d] + a_uv * (act(w3) @ w4[2d:])`.
The op still scores the per-edge `(E, 3d)` product, which fixes its bytes;
the `w3 * a_uv` block, the score, the softmax and the weighted sum stay per
edge.

Training is masked link prediction over a pool of transformed graphs: each
epoch samples one graph, hides half of its interaction pairs, re-encodes the
remainder, and scores hidden pairs against equally many non-edges with a
dot-product sigmoid decoder. Masking leaves the feature attachments alone, so
the tables of phases 1 and 4 are built once per pool graph.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .numerics import tensor as T
from .numerics.checkpoint import config_from, read_blob, require, write_blob
from .numerics.nn import Mlp
from .numerics.optim import Adam
from .numerics.params import ParameterSet, xavier_uniform
from .transform import StaticGraph, TransformedGraph

UNKNOWN_ROW = 0  # embedding row for feature tokens outside the training vocab


@dataclass
class FgatConfig:
    dim: int = 32
    n_layers: int = 2
    lr: float = 0.005
    mask_fraction: float = 0.5
    slope: float = 0.2

    def to_dict(self) -> dict:
        return asdict(self)


class PhaseTable(NamedTuple):
    start: int  # target nodes are the contiguous id range [start, start+count)
    count: int
    edge_tgt: np.ndarray
    edge_src: np.ndarray
    edge_a: np.ndarray
    seg: np.ndarray  # edge -> target position, edges sorted by (tgt, src)


def _sorted_table(start, count, tgt, src, a) -> PhaseTable:
    tgt = np.asarray(tgt, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    a = np.asarray(a, dtype=np.float64)
    order = np.lexsort((src, tgt))
    tgt, src, a = tgt[order], src[order], a[order]
    return PhaseTable(start, count, tgt, src, a, tgt - start)


def phase_plan(tg: TransformedGraph) -> list[PhaseTable]:
    """Edge tables for the four phases of one layer, in schedule order."""
    p1, p4 = _feature_tables(tg)
    return [p1, *_interaction_tables(tg), p4]


def _feature_tables(tg: TransformedGraph) -> tuple[PhaseTable, PhaseTable]:
    """Tables of phases 1 and 4, which read only the feature attachments."""
    g_count = tg.num_graph_nodes
    feat_global = tg.feature_global(tg.feat_edge_feat)

    # phase 1: every graph node aggregates its feature nodes, weight 1/|F_u|
    a1 = 1.0 / tg.node_features.lengths[tg.feat_edge_node]
    p1 = _sorted_table(0, g_count, tg.feat_edge_node, feat_global, a1)

    # phase 4: feature nodes aggregate attached graph nodes, weight 1/deg
    a4 = 1.0 / tg.feature_nodes.lengths[tg.feat_edge_feat]
    p4 = _sorted_table(g_count, tg.num_features, feat_global, tg.feat_edge_node, a4)
    return p1, p4


def _interaction_tables(tg: TransformedGraph) -> tuple[PhaseTable, PhaseTable]:
    """Tables of phases 2 and 3: interaction-fraction edges, split by
    aggregating side."""
    u_count, g_count = tg.num_users, tg.num_graph_nodes
    es, ed, ew = tg.static.edge_src, tg.static.edge_dst, tg.static.edge_weight
    user_side = es < u_count
    p2 = _sorted_table(0, u_count, es[user_side], ed[user_side], ew[user_side])
    item_side = ~user_side
    p3 = _sorted_table(u_count, g_count - u_count, es[item_side], ed[item_side], ew[item_side])
    return p2, p3


def _edge_attention(H, w1, w2, w6, w3, w4, table: PhaseTable, slope: float):
    """The attention context of one phase with at least one edge, as one op.

    Returns the (count, d) context as a `Tensor` with op name
    "edge_attention", and the (E, 1) `alpha` array. Products and activations
    are formed per node row, then gathered per edge: a matrix product row has
    the same bytes whatever rows share the product, unless exactly one of two
    products has a single row (one edge, or one target or source row under
    several edges), which numpy multiplies through its matrix-vector kernel.

    Backward: past the softmax rule `alpha * (g - segsum(alpha * g))`, an
    edge's score gradient reaches `w1 h_u` and `w2 h_v` through the slopes of
    its target's and source's rows, so it is summed per node row first. Edge
    weights are nonnegative, so `a_uv * w3` takes the slopes of `w3`.
    """
    seg, src, count = table.seg, table.edge_src, table.count
    d = w1.shape[1]
    lo, hi = int(src.min()), int(src.max()) + 1
    src = src - lo
    H_t, H_s = H.data[table.start : table.start + count], H.data[lo:hi]

    def activate(x):
        z = slope * x
        if 0.0 <= slope <= 1.0:
            np.maximum(x, z, out=z)  # the selected one of x and slope*x is the larger
        else:
            z = np.where(x > 0.0, x, z)
        return z

    def slopes(x):
        return np.where(x > 0.0, 1.0, slope)

    p_t, p_s = T._matmul(H_t, w1.data), T._matmul(H_s, w2.data)
    z = np.concatenate(
        [
            activate(p_t).take(seg, axis=0),
            activate(p_s).take(src, axis=0),
            activate(table.edge_a[:, None] * w3.data),
        ],
        axis=1,
    )
    logits = T._matmul(z, w4.data)
    e = np.exp(logits - T._segment_max_rows(logits, seg))
    alpha = e / T._index_add(seg, e, count).take(seg, axis=0)
    v = T._matmul(H_s, w6.data).take(src, axis=0)
    context = T._index_add(seg, v * alpha, count)

    def backward(g):
        g_edge = g.take(seg, axis=0)
        g_alpha = np.sum(g_edge * v, axis=1, keepdims=True)
        g_logits = alpha * (g_alpha - T._index_add(seg, alpha * g_alpha, count).take(seg, axis=0))
        w4_t, w4_s, w4_a = w4.data[:d, 0], w4.data[d : 2 * d, 0], w4.data[2 * d :, 0]
        g_t = T._index_add(seg, g_logits, count) * w4_t * slopes(p_t)
        g_s2 = T._index_add(src, g_logits, hi - lo) * w4_s * slopes(p_s)
        g_s6 = T._index_add(src, g_edge * alpha, hi - lo)
        g_H = np.zeros_like(H.data)
        g_H[table.start : table.start + count] = g_t @ w1.data.T
        g_H[lo:hi] += g_s2 @ w2.data.T + g_s6 @ w6.data.T
        return (
            g_H,
            H_t.T @ g_t,
            H_s.T @ g_s2,
            H_s.T @ g_s6,
            w4_a * slopes(w3.data) * (table.edge_a @ g_logits[:, 0]),
            z.T @ g_logits,
        )

    out = T.Tensor(context, _parents=(H, w1, w2, w6, w3, w4), _backward=backward, _op="edge_attention")
    return out, alpha


class FgatModel:
    """Config, vocabulary, and parameters; reusable across graphs."""

    def __init__(self, config: FgatConfig, feature_vocab: list[str], rng: np.random.Generator):
        self.config = config
        self.feature_vocab = list(feature_vocab)
        self._token_row = {tok: k + 1 for k, tok in enumerate(self.feature_vocab)}
        self.pset = ParameterSet()
        d = config.dim
        self.pset.add(
            "feat.table",
            xavier_uniform(rng, d, d, (len(self.feature_vocab) + 1, d)),
        )
        self._mlps: dict[tuple[int, int], Mlp] = {}
        for layer in range(1, config.n_layers + 1):
            for phase in range(1, 5):
                p = f"layer{layer}.phase{phase}"
                for w in ("w1", "w2", "w5", "w6"):
                    self.pset.add(f"{p}.{w}", xavier_uniform(rng, d, d, (d, d)))
                self.pset.add(f"{p}.w3", xavier_uniform(rng, 1, d, (d,)))
                self.pset.add(f"{p}.w4", xavier_uniform(rng, 3 * d, 1, (3 * d, 1)))
                mlp = Mlp(f"{p}.mlp", [2 * d, d, d])
                mlp.init_params(self.pset, rng)
                self._mlps[(layer, phase)] = mlp

    def token_rows(self, tokens: list[str]) -> np.ndarray:
        """Embedding rows for tokens; unseen tokens share the unknown row."""
        return np.array([self._token_row.get(t, UNKNOWN_ROW) for t in tokens], dtype=np.int64)

    def _phase_update(self, H: T.Tensor, table: PhaseTable, layer: int, phase: int, trace=None) -> T.Tensor:
        pset = self.pset
        p = f"layer{layer}.phase{phase}"
        tgt_nodes = slice(table.start, table.start + table.count)
        self_proj = T.matmul(T.gather(H, tgt_nodes), pset[f"{p}.w5"])
        if len(table.edge_tgt):
            context, alpha = _edge_attention(
                H, *(pset[f"{p}.{w}"] for w in ("w1", "w2", "w6", "w3", "w4")), table, self.config.slope
            )
        else:
            alpha = None
            context = T.constant(np.zeros((table.count, self.config.dim)))
        out = self._mlps[(layer, phase)](pset, T.concat([self_proj, context], axis=1))
        if trace is not None:
            trace.append(
                {
                    "layer": layer,
                    "phase": phase,
                    "before": H.data.copy(),
                    "alpha": None if alpha is None else alpha[:, 0].copy(),
                    "seg": table.seg,
                    "targets": np.arange(table.start, table.start + table.count),
                }
            )
        return T.scatter_rows(H, tgt_nodes, out)

    def encode(self, tg: TransformedGraph, trace=None) -> T.Tensor:
        """Embeddings for all transformed-graph nodes after n_layers rounds."""
        return self._encode(tg, phase_plan(tg), trace)

    def _encode(self, tg: TransformedGraph, plan: list[PhaseTable], trace=None) -> T.Tensor:
        rows = self.token_rows(tg.feature_vocab)
        feat_h = T.gather(self.pset["feat.table"], rows)
        zeros = T.constant(np.zeros((tg.num_graph_nodes, self.config.dim)))
        H = T.concat([zeros, feat_h], axis=0)
        for layer in range(1, self.config.n_layers + 1):
            for phase in range(1, 5):
                H = self._phase_update(H, plan[phase - 1], layer, phase, trace)
        return H

    def encode_arrays(self, tg: TransformedGraph) -> np.ndarray:
        with T.no_grad():
            return self.encode(tg).data


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


def _masked_static(tg: TransformedGraph, keep_idx: np.ndarray) -> TransformedGraph:
    """`tg` restricted to the interaction pairs `keep_idx`.

    Feature attachments do not depend on the pairs, so the result shares
    them with `tg` instead of rebuilding them."""
    s = tg.static
    visible = copy.copy(tg)
    visible.static = StaticGraph(
        s.pair_users[keep_idx], s.pair_items[keep_idx], s.pair_counts[keep_idx],
        s.num_users, s.num_items,
    )
    return visible


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
    """Masked-link training; returns the per-epoch loss curve."""
    if not pool:
        raise ValueError("training pool is empty")
    banned = {graph_fingerprint(t) for t in forbidden}
    for tg in pool:
        if graph_fingerprint(tg) in banned:
            raise ValueError("pool contains a forbidden (target) graph")
        if tg.static.num_pairs < 2:
            raise ValueError("pool graph has fewer than 2 interaction pairs")

    # masking hides pairs only, so phases 1 and 4 keep their tables
    feature_tables = [_feature_tables(tg) for tg in pool]
    opt = Adam(lr=model.config.lr)
    losses: list[float] = []
    for _ in range(epochs):
        k = int(rng.integers(0, len(pool)))
        tg = pool[k]
        n_pairs = tg.static.num_pairs
        n_mask = max(1, int(round(n_pairs * model.config.mask_fraction)))
        n_mask = min(n_mask, n_pairs - 1)  # always keep at least one pair
        perm = rng.permutation(n_pairs)
        mask_idx, keep_idx = perm[:n_mask], np.sort(perm[n_mask:])
        visible = _masked_static(tg, keep_idx)
        p1, p4 = feature_tables[k]

        H = model._encode(visible, [p1, *_interaction_tables(visible), p4])
        pos_u = tg.static.pair_users[mask_idx]
        pos_i = tg.static.pair_items[mask_idx] + tg.num_users
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
        losses.append(float(loss.data))
    return losses


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
