"""Shared test utilities: finite-difference gradient oracle and reference
implementations that the vectorised library code must reproduce exactly."""

import numpy as np

from tgtransfer.numerics import backward
from tgtransfer.numerics import tensor as T


def assert_grads_match_fd(build_loss, tensors, rng, n_coords=4, h=1e-5, tol=1e-4):
    """Check autodiff grads of a scalar loss against central differences.

    `build_loss` must rebuild the forward pass from the tensors' current
    data on every call. A few coordinates per tensor are sampled; relative
    error uses max(|fd|, |ad|, 1e-3) as denominator so near-zero gradients
    do not blow up the ratio.
    """
    for t in tensors:
        t.grad = None
    loss = build_loss()
    backward(loss)
    for t in tensors:
        assert t.grad is not None, "no gradient reached a checked tensor"
        n = min(n_coords, t.data.size)
        picks = rng.choice(t.data.size, size=n, replace=False)
        for flat in picks:
            idx = np.unravel_index(flat, t.data.shape)
            orig = t.data[idx]
            t.data[idx] = orig + h
            hi = float(build_loss().data)
            t.data[idx] = orig - h
            lo = float(build_loss().data)
            t.data[idx] = orig
            fd = (hi - lo) / (2.0 * h)
            ad = t.grad[idx]
            denom = max(abs(fd), abs(ad), 1e-3)
            rel = abs(fd - ad) / denom
            assert rel < tol, f"coord {idx}: fd={fd:.10g} ad={ad:.10g} rel={rel:.3g}"


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
