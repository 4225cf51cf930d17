"""Shared test utilities: finite-difference gradient oracle and reference
implementations that the vectorised library code must reproduce exactly."""

import copy

import numpy as np

from tgtransfer import fgat
from tgtransfer.numerics import backward
from tgtransfer.numerics import tensor as T
from tgtransfer.numerics.nn import Mlp
from tgtransfer.temporal_graph import EventBatch
from tgtransfer.transform import StaticGraph


def assert_grads_match_fd(build_loss, tensors, rng, n_coords=4, h=1e-5, tol=1e-4, h_min=1e-9):
    """Check autodiff grads of a scalar loss against central differences.

    `build_loss` must rebuild the forward pass from the tensors' current
    data on every call. A few coordinates per tensor are sampled; relative
    error uses max(|fd|, |ad|, 1e-3) as denominator so near-zero gradients
    do not blow up the ratio.

    A stencil across a leaky-ReLU kink measures no derivative. So where some
    `numerics.tensor._leaky_relu` input at x + h or x - h has another sign
    than at x, the step is halved for that coordinate until none does, down
    to `h_min`; at `h_min` the differences are compared as at any step.
    """
    for t in tensors:
        t.grad = None
    loss, signs = _loss_and_kink_signs(build_loss)
    backward(loss)
    for t in tensors:
        assert t.grad is not None, "no gradient reached a checked tensor"
        n = min(n_coords, t.data.size)
        picks = rng.choice(t.data.size, size=n, replace=False)
        for flat in picks:
            idx = np.unravel_index(flat, t.data.shape)
            orig, step = t.data[idx], h
            while True:
                t.data[idx] = orig + step
                hi, hi_signs = _loss_and_kink_signs(build_loss)
                t.data[idx] = orig - step
                lo, lo_signs = _loss_and_kink_signs(build_loss)
                t.data[idx] = orig
                if step / 2 < h_min or _same_signs(hi_signs, signs) and _same_signs(lo_signs, signs):
                    break
                step /= 2
            fd = (float(hi.data) - float(lo.data)) / (2.0 * step)
            ad = t.grad[idx]
            denom = max(abs(fd), abs(ad), 1e-3)
            rel = abs(fd - ad) / denom
            assert rel < tol, f"coord {idx}: fd={fd:.10g} ad={ad:.10g} rel={rel:.3g} h={step:.3g}"


def _loss_and_kink_signs(build_loss):
    """`build_loss()` and the `x > 0` mask of every `_leaky_relu` input it
    made, in call order."""
    signs, real = [], T._leaky_relu

    def recording(x):
        signs.append(x > 0.0)
        return real(x)

    T._leaky_relu = recording
    try:
        return build_loss(), signs
    finally:
        T._leaky_relu = real


def _same_signs(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def auc_loop(scores, labels):
    """Mann-Whitney AUC through a Python loop over the tie groups of the
    sorted scores, the reference for `eval_metrics.auc`'s midranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        # midrank of the tie group [i, j], 1-based
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = float(ranks[labels].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def truth_rank_row(scores, item_ids, truth_id):
    """1-based rank of the true item in one row of scores, tied scores
    ordered by item id: the one-row reference for `eval_metrics.truth_rank`."""
    scores = np.asarray(scores, dtype=np.float64)
    item_ids = np.asarray(item_ids)
    where = np.nonzero(item_ids == truth_id)[0]
    if len(where) != 1:
        raise ValueError("truth item must appear exactly once among candidates")
    s = scores[where[0]]
    greater = int(np.sum(scores > s))
    tied_earlier = int(np.sum((scores == s) & (item_ids < truth_id)))
    return 1 + greater + tied_earlier


def neighbors(index, node, t, k):
    """The k most recent interactions of `node` before t, newest first, as
    (neighbor ids, times, event ordinals), shorter than k when the history
    is: the one-query reference for `NeighborIndex.batch_neighbors`."""
    lo, hi = index.adjacency.bounds(node)
    cut = lo + int(np.searchsorted(index._times[lo:hi], t, side="left"))
    sel = slice(max(lo, cut - k), cut)
    return index.adjacency.values[sel][::-1], index._times[sel][::-1], index._ords[sel][::-1]


def open_counts_loop(cfg, n_items, comm, times, horizon):
    """Per-event reference for `synthdata._open_counts`: each community's
    item opening times, then one `np.searchsorted` call per event."""
    c = cfg.n_communities
    open_times = []
    for k in range(c):
        n_k = (n_items - k + c - 1) // c
        m_k = int(np.floor(cfg.item_churn * n_k))
        debut = horizon * np.arange(1, m_k + 1) / (m_k + 1)
        open_times.append(np.concatenate([np.zeros(n_k - m_k), debut]))
    return np.array([np.searchsorted(open_times[k], t, side="right") for k, t in zip(comm, times)],
                    dtype=np.int64)


def sample_non_edges_loop(tg, n, rng):
    """Scalar reference for `fgat._sample_non_edges`: draw a user, then an
    item, with one `rng.integers` call each, and skip pairs present in `tg`
    until `n` pairs are accepted."""
    s = tg.static
    existing = set((s.pair_users * s.num_items + s.pair_items).tolist())
    if s.num_users * s.num_items <= s.num_pairs:
        raise ValueError("graph has no non-edges to sample")
    users = np.empty(n, dtype=np.int64)
    items = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        u = int(rng.integers(0, s.num_users))
        i = int(rng.integers(0, s.num_items))
        if u * s.num_items + i in existing:
            continue
        users[filled] = u
        items[filled] = i
        filled += 1
    return users, items


def node_static_features_loop(model, ctx, nodes):
    """Per-row reference for `TgnModel.node_static_features`: gather each
    query node's embedding rows in turn, then average them per query with
    one `segment_sum`."""
    rows = [ctx.node_rows[int(n)] for n in nodes]
    counts = np.array([max(len(r), 1) for r in rows], dtype=np.float64)
    flat = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    if flat.size == 0:
        mean = T.constant(np.zeros((len(nodes), model.config.d_feat)))
    else:
        seg = np.repeat(np.arange(len(nodes)), [len(r) for r in rows])
        emb = T.gather(model.pset["feat.table"], flat)
        mean = T.segment_sum(emb, seg, len(nodes)) * T.constant(1.0 / counts[:, None])
    return model.feat_proj(model.pset, mean)


def compute_message(model, m_self, m_other, dt, x_uv):
    """Raw message for one endpoint: MSG(m_self, m_other, timegap, edge feats),
    the single-event reference for `TgnModel.batch_updates`."""
    if dt < 0:
        raise ValueError("negative time gap: events processed out of order")
    with T.no_grad():
        phi = model.time_enc(model.pset, np.array([dt]), np.zeros(1), 0.0)
        msg_in = T.concat(
            [
                T.constant(np.asarray(m_self)[None, :]),
                T.constant(np.asarray(m_other)[None, :]),
                phi,
                T.constant(np.asarray(x_uv, dtype=np.float64).reshape(1, -1)),
            ],
            axis=1,
        )
        return model.msg_mlp(model.pset, msg_in).data[0]


def predict_link(model, ctx, state, user, item_global, t):
    """Link probability of one (user, item, t) triple from a memory state,
    the single-pair reference for batched scoring."""
    with T.no_grad():
        mem = T.constant(state.memory)
        p = model.score_pairs(ctx, mem, np.array([user]), np.array([item_global]), np.array([t]))
    return float(p.data[0])


def g_theta(pset, prefix, h_u, neighbors):
    """Single-target FGAT attention block, the per-node reference for
    `fgat.phase_update`; `neighbors` is [(node_id, h_v, a_uv)].

    Neighbors are aggregated in ascending node-id order, matching the sorted
    edge tables of the vectorized path, so permuting the input list cannot
    change the result.
    """
    d = len(h_u)
    with T.no_grad():
        hu = T.constant(np.asarray(h_u)[None, :])
        self_proj = matmul(hu, pset[f"{prefix}.w5"])
        if neighbors:
            ordered = sorted(neighbors, key=lambda nb: nb[0])
            hv = T.constant(np.stack([np.asarray(nb[1]) for nb in ordered]))
            a = np.array([nb[2] for nb in ordered], dtype=np.float64)
            hu_rep = T.constant(np.repeat(np.asarray(h_u)[None, :], len(ordered), axis=0))
            msg = T.leaky_relu(
                T.concat(
                    [
                        matmul(hu_rep, pset[f"{prefix}.w1"]),
                        matmul(hv, pset[f"{prefix}.w2"]),
                        T.constant(a[:, None]) * pset[f"{prefix}.w3"],
                    ],
                    axis=1,
                ),
            )
            logits = matmul(msg, pset[f"{prefix}.w4"])
            seg = np.zeros(len(ordered), dtype=np.int64)
            shifted = logits - T.constant(np.full((len(ordered), 1), logits.data.max()))
            e = exp(shifted)
            denom = T.segment_sum(e, seg, 1)
            alpha = div(e, T.gather(denom, seg))
            context = T.segment_sum(matmul(hv, pset[f"{prefix}.w6"]) * alpha, seg, 1)
        else:
            context = T.constant(np.zeros((1, d)))
        mlp = Mlp(f"{prefix}.mlp", [2 * d, d, d])
        return mlp(pset, T.concat([self_proj, context], axis=1)).data[0]


def edge_attention_composed(H, w1, w2, w6, w3, w4, table):
    """Composed-op reference for `edge_attention_per_node`, the attention of
    `fgat.phase_update`: gather `h_u` and `h_v` per edge, project them per
    edge, and score, normalise and sum with one autodiff op per step.
    Returns the context and the `alpha` array."""
    h_u = T.gather(H, table.edge_tgt)
    h_v = T.gather(H, table.edge_src)
    msg = T.leaky_relu(
        T.concat(
            [
                matmul(h_u, w1),
                matmul(h_v, w2),
                T.constant(table.edge_a[:, None]) * w3,
            ],
            axis=1,
        ),
    )
    logits = matmul(msg, w4)
    alpha = segment_softmax(logits, table.seg, table.count)
    weighted = matmul(h_v, w6) * alpha
    return T.segment_sum(weighted, table.seg, table.count), alpha.data


def edge_attention_per_node(H, w1, w2, w6, w3, w4, table):
    """The attention context of one phase as one autodiff op, with per-node
    scores as in `fgat._edge_attention`: the edge part of the composed phase
    that `phase_update_composed` runs. Returns the context `Tensor` and the
    (E, 1) `alpha` array."""
    seg, src, count = table.seg, table.src_pos, table.count
    seg_sum1, seg_sum = table.seg_sums
    d = w1.shape[1]
    H_t, H_s = H.data[table.start : table.start + count], H.data[table.src_rows]

    def activate(x):
        return np.where(x > 0.0, x, T.SLOPE * x)

    def slopes(x):
        return np.where(x > 0.0, 1.0, T.SLOPE)

    w4_t, w4_s, w4_a = w4.data[:d], w4.data[d : 2 * d], w4.data[2 * d :]
    p_t, p_s = T._matmul(H_t, w1.data), T._matmul(H_s, w2.data)
    z_t, z_s, z_a = activate(p_t), activate(p_s), activate(w3.data)
    logits = (z_t @ w4_t).take(seg, axis=0) + (z_s @ w4_s).take(src, axis=0) + table.edge_a[:, None] * (z_a @ w4_a)
    e = np.exp(logits - T._segment_max_rows(logits, seg))
    alpha = e / seg_sum1(e).take(seg, axis=0)
    v = T._matmul(H_s, w6.data).take(src, axis=0)
    context = seg_sum(v * alpha)

    def backward(g):
        (src_sum1, src_sum), g_edge = table.src_sums, g.take(seg, axis=0)
        g_alpha = np.sum(g_edge * v, axis=1, keepdims=True)
        g_logits = alpha * (g_alpha - seg_sum1(alpha * g_alpha).take(seg, axis=0))
        g_lt, g_ls = seg_sum1(g_logits), src_sum1(g_logits)
        g_la = table.edge_a @ g_logits[:, 0]
        g_t = g_lt * w4_t[:, 0] * slopes(p_t)
        g_s2 = g_ls * w4_s[:, 0] * slopes(p_s)
        g_s6 = src_sum(g_edge * alpha)
        g_H = np.zeros_like(H.data)
        g_H[table.start : table.start + count] = g_t @ w1.data.T
        g_H[table.src_rows] += g_s2 @ w2.data.T + g_s6 @ w6.data.T
        return (
            g_H,
            H_t.T @ g_t,
            H_s.T @ g_s2,
            H_s.T @ g_s6,
            w4_a[:, 0] * slopes(w3.data) * g_la,
            np.concatenate([z_t.T @ g_lt, z_s.T @ g_ls, z_a[:, None] * g_la]),
        )

    out = T.Tensor(context, _parents=(H, w1, w2, w6, w3, w4), _backward=backward, _op="edge_attention")
    return out, alpha


def phase_update_composed(H, params, table, attention=edge_attention_per_node):
    """Composed-op reference for `fgat.phase_update`, same arguments and
    results: gather the targets, project them, run `attention` (an op like
    `edge_attention_per_node`), concat, the two-layer MLP as `linear`,
    `leaky_relu` and `linear` ops, and write the rows with `scatter_rows`."""
    w5, m_w0, m_b0, m_w1, m_b1 = params[:5]
    rows = slice(table.start, table.start + table.count)
    self_proj = matmul(T.gather(H, rows), w5)
    context, alpha = attention(H, *params[5:], table)
    hidden = T.leaky_relu(T.linear(T.concat([self_proj, context], axis=1), m_w0, m_b0))
    written = np.arange(table.start, table.start + table.count)
    return T.scatter_rows(H, written, T.linear(hidden, m_w1, m_b1)), alpha


def encode_composed(model, tg, plan=None, n_layers=None):
    """Four phases in each of `model`'s first `n_layers` layers (all by
    default) over `tg` through `phase_update_composed`: the reference for
    the graph-node rows of `FgatModel.encode`, which ends before the last
    phase 4, and so for `encode_arrays`. `FgatModel` draws its parameters in
    schedule order, so a model one layer deeper, built from the same seed,
    holds the tested model's weights and that layer's phase 4 too."""
    plan = fgat.phase_plan(tg, model.config.dim) if plan is None else plan
    feat_h = T.gather(model.pset["feat.table"], model.token_rows(tg.feature_vocab))
    H = T.concat([T.constant(np.zeros((tg.num_graph_nodes, model.config.dim))), feat_h], axis=0)
    for layer in range(1, (model.config.n_layers if n_layers is None else n_layers) + 1):
        for phase in range(1, 5):
            table = plan[phase - 1]
            H, _ = phase_update_composed(H, model._phase_params(layer, phase), table)
    return H


class AdamLoop:
    """Adam one parameter at a time, each moment its own array: the
    reference for the flat one-pass `numerics.optim.Adam`."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = float(lr), float(beta1), float(beta2), float(eps)
        self.t = 0
        self.m, self.v = {}, {}

    def step(self, pset):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in pset.items():
            g = p.grad
            m = self.m.setdefault(name, np.zeros_like(p.data))
            v = self.v.setdefault(name, np.zeros_like(p.data))
            tmp = np.multiply(g, 1.0 - b1)
            m *= b1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v *= b2
            v += tmp
            np.divide(v, bias2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            step = np.divide(m, bias1)
            step *= self.lr
            step /= tmp
            p.data = np.subtract(p.data, step, out=step)


def train_fgat_composed(model, pool, epochs, rng, n_layers=None):
    """`fgat.train_fgat` through `encode_composed` over `model`'s first
    `n_layers` layers, stepped by `AdamLoop`; returns the per-epoch losses
    and leaves the last epoch's gradients on the parameters."""
    d = model.config.dim
    feature_tables = [fgat._feature_tables(tg, d) for tg in pool]
    opt = AdamLoop(lr=model.config.lr)
    losses = []
    for _ in range(epochs):
        k = int(rng.integers(0, len(pool)))
        tg = pool[k]
        s = tg.static
        n_pairs = s.num_pairs
        n_mask = max(1, int(round(n_pairs * fgat.MASK_FRACTION)))
        n_mask = min(n_mask, n_pairs - 1)
        perm = rng.permutation(n_pairs)
        mask_idx, keep_idx = perm[:n_mask], np.sort(perm[n_mask:])
        p1, p4 = feature_tables[k]
        p2, p3 = fgat._bipartite_tables(
            s.pair_users[keep_idx], s.pair_items[keep_idx], s.pair_counts[keep_idx], s.num_users, s.num_items, d
        )
        H = encode_composed(model, tg, [p1, p2, p3, p4], n_layers)
        pos_u = s.pair_users[mask_idx]
        pos_i = s.pair_items[mask_idx] + tg.num_users
        neg_u, neg_i = fgat._sample_non_edges(tg, n_mask, rng)
        neg_i = neg_i + tg.num_users
        hu = T.gather(H, np.concatenate([pos_u, neg_u]))
        hv = T.gather(H, np.concatenate([pos_i, neg_i]))
        probs = T.sigmoid(T.tensor_sum(hu * hv, axis=1))
        loss = T.bce_loss(probs, np.concatenate([np.ones(n_mask), np.zeros(n_mask)]))
        model.pset.zero_grads()
        T.backward(loss, params=model.pset.tensors())
        opt.step(model.pset)
        losses.append(float(loss.data))
    return losses


def masked_static(tg, keep_idx):
    """`tg` restricted to the interaction pairs `keep_idx` through a rebuilt
    `StaticGraph`; the feature attachments are shared with `tg`."""
    s = tg.static
    visible = copy.copy(tg)
    visible.static = StaticGraph(
        s.pair_users[keep_idx], s.pair_items[keep_idx], s.pair_counts[keep_idx],
        s.num_users, s.num_items,
    )
    return visible


def static_interaction_tables(tg, dim):
    """Tables of phases 2 and 3 built edge by edge from `tg.static`'s pairs,
    each weight a pair's count over its aggregating node's integer total, and
    sorted by `sorted_table`: the reference for the pair tables of
    `fgat._bipartite_tables`, which builds them with numpy."""
    s, u_count = tg.static, tg.num_users
    pairs = list(zip(s.pair_users.tolist(), (s.pair_items + u_count).tolist(), s.pair_counts.tolist()))
    totals = {}
    for u, i, c in pairs:
        totals[u] = totals.get(u, 0) + c
        totals[i] = totals.get(i, 0) + c
    user_side = [(u, i, c / totals[u]) for u, i, c in pairs]
    item_side = [(i, u, c / totals[i]) for u, i, c in pairs]
    return (
        sorted_table(0, u_count, *_columns(user_side), dim),
        sorted_table(u_count, tg.num_items, *_columns(item_side), dim),
    )


def feature_attachment_tables(tg, dim):
    """Tables of phases 1 and 4 built edge by edge from the feature rows of
    `tg.user_features` and `tg.item_features`: phase 1 in (node, feature)
    order with weight 1/|F_u|, phase 4 in (feature, node) order with weight
    1/deg. The reference for `fgat._feature_tables`."""
    g_count = tg.num_graph_nodes
    rows = [row.tolist() for row in (*tg.user_features, *tg.item_features)]
    attach = sorted((node, g_count + f) for node, feats in enumerate(rows) for f in feats)
    deg = {}
    for _, f in attach:
        deg[f] = deg.get(f, 0) + 1
    p1 = [(node, f, 1 / len(rows[node])) for node, f in attach]
    p4 = [(f, node, 1 / deg[f]) for f, node in sorted((f, node) for node, f in attach)]
    return (
        fgat._phase_table(0, g_count, *_columns(p1), dim),
        fgat._phase_table(g_count, tg.num_features, *_columns(p4), dim),
    )


def sorted_table(start, count, tgt, src, a, dim):
    """The phase table of (tgt, src, a) edges given in any order, sorted by
    (tgt, src): fixtures that no transformed graph makes, such as sources
    that overlap the targets."""
    tgt = np.asarray(tgt, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    a = np.asarray(a, dtype=np.float64)
    order = np.lexsort((src, tgt))
    return fgat._phase_table(start, count, tgt[order], src[order], a[order], dim)


def _columns(edges):
    """(tgt, src, weight) arrays of a list of (tgt, src, weight) edges."""
    tgt, src, a = ([e[k] for e in edges] for k in range(3))
    return np.array(tgt, dtype=np.int64), np.array(src, dtype=np.int64), np.array(a, dtype=np.float64)


def score_link(h_u, h_v):
    """sigmoid(h_u . h_v), the FGAT link decoder for one pair."""
    h_u = np.asarray(h_u, dtype=np.float64)
    h_v = np.asarray(h_v, dtype=np.float64)
    if h_u.shape != h_v.shape:
        raise ValueError(f"embedding shapes disagree: {h_u.shape} vs {h_v.shape}")
    return float(0.5 * (np.tanh(0.5 * float(h_u @ h_v)) + 1.0))


def softmax(a, axis=-1):
    """Stable dense softmax op along `axis` (max subtracted before
    exponentiating), the attention normaliser of `embed_padded`."""
    if a.shape == () or a.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - dot),)

    return T.Tensor(out_data, _parents=(a,), _backward=backward, _op="softmax")


def embed_padded(model, ctx, mem, nodes, ts, hide=None, layer=None):
    """Padded reference for `TgnModel.embed`: every query attends over all k
    neighbor slots, and padded slots are pushed out of a dense softmax by a
    -1e30 score offset. Keys and values project each node once at layer 1,
    as in `tgn._temporal_attention`, through `key_value_composed`. The
    library attends over real slots only and must give the same values."""
    cfg = model.config
    layer = cfg.n_layers if layer is None else layer
    nodes = np.asarray(nodes, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.float64)
    if layer == 0:
        return model.node_static_features(ctx, nodes) + T.gather(mem, nodes)

    b, k = len(nodes), cfg.k_neighbors
    d, heads = cfg.d_mem, cfg.n_heads
    dh = d // heads
    h_self = embed_padded(model, ctx, mem, nodes, ts, layer=layer - 1)
    # (b, k) tables from the one-query reference; padded slots hold id 0,
    # ordinal 0 and the query time, and the mask pushes them out
    nbr_ids, nbr_ords = np.zeros((b, k), dtype=np.int64), np.zeros((b, k), dtype=np.int64)
    nbr_times, mask = np.repeat(ts[:, None], k, axis=1), np.zeros((b, k))
    for r in range(b):
        ids_r, times_r, ords_r = neighbors(ctx.index, int(nodes[r]), float(ts[r]), k)
        c = len(ids_r)
        nbr_ids[r, :c], nbr_times[r, :c], nbr_ords[r, :c], mask[r, :c] = ids_r, times_r, ords_r, 1.0
    if hide is not None:
        mask = mask * (1.0 - np.asarray(hide, dtype=np.float64))[:, None]
    flat_ids = nbr_ids.reshape(-1)
    flat_ts = np.repeat(ts, k)
    if layer == 1:  # the layer-0 row of every node, projected once per node
        h_src = model.node_static_features(ctx, np.arange(ctx.num_nodes)) + mem
        src = flat_ids
    else:
        h_src = embed_padded(model, ctx, mem, flat_ids, flat_ts, layer=layer - 1)
        src = np.arange(b * k)
    phi = model.time_enc(model.pset, flat_ts, nbr_times.reshape(-1), ctx.t0)
    x_uv = T.constant(ctx.index.edge_features_for(nbr_ords.reshape(-1)))
    q_in = T.concat([h_self, model.time_enc(model.pset, np.zeros(b), np.zeros(b), 0.0)], axis=1)

    li = layer - 1
    q = model.att_q[li](model.pset, q_in).reshape((b, 1, heads, dh))
    wv, bv = model.att_v[li].weights(model.pset)
    kk, vv = key_value_composed(h_src, src, T.concat([phi, x_uv], axis=1), model.pset[f"att{layer}.k.w"], wv, bv)
    kk, vv = kk.reshape((b, k, heads, dh)), vv.reshape((b, k, heads, dh))
    scores = head_dot(q, kk) * (1.0 / np.sqrt(dh))  # (b, k, heads)
    scores = scores + T.constant((mask - 1.0)[:, :, None] * 1e30)
    alpha = softmax(scores, axis=1)
    context = T.tensor_sum(alpha.reshape((b, k, heads, 1)) * vv, axis=1)  # (b, heads, dh)
    context = model.att_o[li](model.pset, context.reshape((b, d)))
    has_nbr = (mask.max(axis=1) > 0).astype(np.float64)
    context = context * T.constant(has_nbr[:, None])
    return model.combine[li](model.pset, T.concat([h_self, context], axis=1))


def score_pairs_padded(model, ctx, mem, users, items, ts, hide_users=None, hide_items=None):
    """`TgnModel.score_pairs` with `embed_padded` in place of `embed`."""
    h_u = embed_padded(model, ctx, mem, users, ts, hide=hide_users)
    h_i = embed_padded(model, ctx, mem, items, ts, hide=hide_items)
    logits = model.decoder(model.pset, T.concat([h_u, h_i], axis=1))
    return T.sigmoid(logits.reshape((len(users),)))


def matmul(a, b):
    """`a @ b` for 2-D tensors as one autodiff op; the composed-op oracles
    project with it, and `numerics.tensor.linear` of an output wider than 1
    must match it plus `add`."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")

    def backward(g):
        ga = T._matmul(g, b.data.T) if a.requires_grad else None
        gb = T._matmul(a.data.T, g) if b.requires_grad else None
        return ga, gb

    return T.Tensor(T._matmul(a.data, b.data), _parents=(a, b), _backward=backward, _op="matmul")


def exp(a):
    """Elementwise `exp` as one autodiff op, for the composed softmaxes."""
    out_data = np.exp(a.data)
    return T.Tensor(out_data, _parents=(a,), _backward=lambda g: (g * out_data,), _op="exp")


def cos(a):
    """Elementwise `cos` as one autodiff op, for the composed ops of
    `test_numerics`."""
    return T.Tensor(np.cos(a.data), _parents=(a,), _backward=lambda g: (-g * np.sin(a.data),), _op="cos")


def cos_difference(a, b):
    """Elementwise cos(a - b) = cos a cos b + sin a sin b as one autodiff op,
    for the composed time encoder; its backward takes sin(a - b) = sin a
    cos b - cos a sin b from the same identity."""
    cos_a, sin_a, cos_b, sin_b = np.cos(a.data), np.sin(a.data), np.cos(b.data), np.sin(b.data)

    def backward(g):
        sin_ab = sin_a * cos_b - cos_a * sin_b
        return -(g * sin_ab), g * sin_ab

    return T.Tensor(cos_a * cos_b + sin_a * sin_b, _parents=(a, b), _backward=backward, _op="cos_difference")


def div(a, b):
    """Elementwise `a / b` with broadcasting as one autodiff op; the
    composed-op oracles normalise with it."""

    def backward(g):
        ga = T._unbroadcast(g / b.data, a.shape)
        gb = T._unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return T.Tensor(a.data / b.data, _parents=(a, b), _backward=backward, _op="div")


def segment_softmax(a, seg_ids, num_segments):
    """Softmax of `a`'s rows within each segment, separately per column, as
    composed ops; `seg_ids` must be sorted. Each segment's max is subtracted
    as a constant, and the sums add rows in order, as `segment_sum` does."""
    seg_ids = np.asarray(seg_ids, dtype=np.int64)
    e = exp(a - T.constant(T._segment_max_rows(a.data, seg_ids)))
    return div(e, T.gather(T.segment_sum(e, seg_ids, num_segments), seg_ids))


def key_value_composed(h_src, src, rest, wk, wv, bv):
    """Keys and values of `tgn._temporal_attention` as composed ops, in its
    order: `P = h_src @ W_h + [0, bv]`, with `W_h` the key and value
    weights' first rows side by side, gathered at `src`, plus `rest @
    W_rest` with their remaining rows side by side. Returns the (n, d) keys
    and values, the first and last d columns of that sum."""
    dm, d, n = h_src.shape[1], wk.shape[1], len(src)
    w = T.concat([wk, wv], axis=1)
    p = matmul(h_src, T.gather(w, slice(0, dm))) + T.concat([T.constant(np.zeros(d)), bv])
    kv = T.gather(p, src) + matmul(rest, T.gather(w, slice(dm, wk.shape[0])))
    # row 2s of the (2n, d) view holds slot s's key, row 2s + 1 its value
    halves = kv.reshape((2 * n, d))
    return T.gather(halves, np.arange(0, 2 * n, 2)), T.gather(halves, np.arange(1, 2 * n, 2))


def head_dot(a, b):
    """Dot products over the last axis, `np.einsum("...d,...d->...")` with
    broadcasting, as one autodiff op: the attention scores of `embed_padded`
    in the sum order of `tgn._temporal_attention`."""

    def backward(g):
        g = g[..., None]
        return T._unbroadcast(g * b.data, a.shape), T._unbroadcast(g * a.data, b.shape)

    return T.Tensor(np.einsum("...d,...d->...", a.data, b.data), _parents=(a, b), _backward=backward,
                    _op="head_dot")


def temporal_attention_composed(q, h_src, src, phi, x_uv, wk, wv, bv, row, b, heads):
    """Composed-op reference for `tgn._temporal_attention`: one autodiff op
    per step, each keeping its output on the tape. Returns the context and
    the `alpha` array."""
    n, d = len(row), q.shape[1]
    dh = d // heads
    kk, vv = key_value_composed(h_src, src, T.concat([phi, T.constant(x_uv)], axis=1), wk, wv, bv)
    vv = vv.reshape((n, heads, dh))
    scores = T.tensor_sum((T.gather(q, row) * kk).reshape((n, heads, dh)), axis=2) * (1.0 / np.sqrt(dh))
    alpha = segment_softmax(scores, row, b)
    context = T.segment_sum((alpha.reshape((n, heads, 1)) * vv).reshape((n, d)), row, b)
    return context, alpha.data


def temporal_attention_recompute(q, h_src, src, phi, x_uv, wk, wv, bv, row, b, heads):
    """Recomputing reference for `tgn._temporal_attention`: its backward
    projects the keys and values and gathers the per-slot query rows again,
    and every sum over `row` or `src` makes its own `_index_add` plan. The
    library op, which reuses its forward, must give the same bytes, forward
    and backward."""
    n, d = len(row), q.shape[1]
    dm, dh = h_src.shape[1], d // heads
    scale = 1.0 / np.sqrt(dh)
    w_h = np.concatenate([wk.data[:dm], wv.data[:dm]], axis=1)
    w_rest = np.concatenate([wk.data[dm:], wv.data[dm:]], axis=1)
    rest_in = np.concatenate([phi.data, x_uv], axis=1)

    def project(half):
        p = T._matmul(h_src.data, w_h)
        p[:, d:] += bv.data
        kv = p[src] + T._matmul(rest_in, w_rest)
        return np.ascontiguousarray(kv[:, half]).reshape(n, heads, dh)

    keys, values = slice(0, d), slice(d, 2 * d)
    scores = np.einsum("shd,shd->sh", q.data.take(row, axis=0).reshape(n, heads, dh), project(keys)) * scale
    e = np.exp(scores - T._segment_max_rows(scores, row))
    alpha = e / T._index_add(row, e, b).take(row, axis=0)
    context = T._index_add(row, (alpha[:, :, None] * project(values)).reshape(n, d), b)

    def backward(g):
        g_edge = g.take(row, axis=0).reshape(n, heads, dh)
        g_alpha = np.einsum("shd,shd->sh", g_edge, project(values))
        g_scores = alpha * (g_alpha - T._index_add(row, alpha * g_alpha, b).take(row, axis=0))
        g_scores = (g_scores * scale)[:, :, None]
        g_q = T._index_add(row, (g_scores * project(keys)).reshape(n, d), b)
        g_kv = np.concatenate([(g_scores * q.data.take(row, axis=0).reshape(n, heads, dh)).reshape(n, d),
                               (g_edge * alpha[:, :, None]).reshape(n, d)], axis=1)
        g_p = T._index_add(src, g_kv, len(h_src.data))
        g_w_h, g_w_rest, g_b = T._matmul(h_src.data.T, g_p), T._matmul(rest_in.T, g_kv), g_p.sum(axis=0)
        dt = phi.shape[1]
        return (
            g_q,
            T._matmul(g_p, w_h.T),
            T._matmul(g_kv, w_rest[:dt].T),
            np.concatenate([g_w_h[:, :d], g_w_rest[:, :d]]),
            np.concatenate([g_w_h[:, d:], g_w_rest[:, d:]]),
            g_b[d:],
        )

    out = T.Tensor(
        context, _parents=(q, h_src, phi, wk, wv, bv), _backward=backward, _op="temporal_attention"
    )
    return out, alpha


def time_encoder_composed(encoder, pset, t, s, t0, row=None):
    """`TimeEncoder.__call__` as composed ops: one angle table over the
    distinct query times t and event times s, `(time - t0) * freq` by
    `mul`, the phase added to the query rows a, each row gathered (row j's
    query time is `t[row[j]]` when `row` is given), and `cos_difference` of
    a and the event rows b. The one-op encoder must match it byte for byte,
    forward and backward."""
    freq, phase = pset[f"{encoder.prefix}.freq"], pset[f"{encoder.prefix}.phase"]
    t_tab, ti = np.unique(np.asarray(t, dtype=np.float64), return_inverse=True)
    ti = ti if row is None else ti[row]
    s_tab, si = np.unique(np.asarray(s, dtype=np.float64), return_inverse=True)
    nt = len(t_tab)
    angles = T.constant(np.concatenate([t_tab, s_tab])[:, None] - t0) * freq
    a = T.gather(angles, slice(0, nt)) + phase
    b = T.gather(angles, slice(nt, None))
    return cos_difference(T.gather(a, ti), T.gather(b, si))


def time_encoder_direct(encoder, pset, dt):
    """cos(dt * freq + phase) with the gap taken first: the direct form the
    encoder's angle-addition tables approximate."""
    dt = np.asarray(dt, dtype=np.float64)[..., None]
    return np.cos(dt * pset[f"{encoder.prefix}.freq"].data + pset[f"{encoder.prefix}.phase"].data)


def event_batch_of(g, start, end):
    """Events `start:end` of `g` as one `EventBatch`."""
    return EventBatch(
        g.users[start:end], g.items[start:end], g.times[start:end],
        g.edge_features[start:end], np.arange(start, end, dtype=np.int64),
    )


def scarcity_subsample(g, fraction):
    """Earliest floor(fraction * N) events; node tables and vocab unchanged."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    keep = int(np.floor(fraction * g.num_events))
    if keep == 0:
        raise ValueError(f"fraction {fraction} keeps zero of {g.num_events} events")
    return g.slice(0, keep)
