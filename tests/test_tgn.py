import platform
import weakref

import numpy as np
import pytest

import tgtransfer.tgn as tgn
from tgtransfer import synthdata, temporal_graph as tg
from tgtransfer.numerics import Adam, tensor as T

from helpers import (
    assert_grads_match_fd, compute_message, embed_padded, event_batch_of, node_static_features_loop,
    predict_link, score_pairs_padded, temporal_attention_composed, temporal_attention_recompute,
    time_encoder_composed,
)

VOCAB = [f"tok{k}" for k in range(5)]


def small_config(**over):
    base = dict(d_mem=8, d_time=4, d_feat=8, n_layers=1, n_heads=2, k_neighbors=4, batch_size=10, lr=0.01)
    base.update(over)
    return tgn.TgnConfig(**base)


def make_graph(n_users=5, n_items=4, n_events=40, seed=0, edge_dim=0, structured=False):
    rng = np.random.default_rng(seed)
    if structured:
        # two user groups, each strongly preferring its own item half
        users = rng.integers(0, n_users, n_events)
        halves = (users < n_users // 2).astype(int)
        lo = np.where(halves == 1, 0, n_items // 2)
        items = lo + rng.integers(0, n_items // 2, n_events)
    else:
        users = rng.integers(0, n_users, n_events)
        items = rng.integers(0, n_items, n_events)
    times = np.sort(rng.uniform(1, 500, n_events))
    feats = rng.normal(size=(n_events, edge_dim))
    return tg.TemporalGraph(
        users, items, times, feats,
        [f"u{k}" for k in range(n_users)],
        [f"i{k}" for k in range(n_items)],
        VOCAB,
        [np.sort(rng.choice(5, 2, replace=False)) for _ in range(n_users)],
        [np.sort(rng.choice(5, 1, replace=False)) for _ in range(n_items)],
    )


@pytest.fixture
def rng():
    return np.random.default_rng(123)


@pytest.fixture
def setup(rng):
    g = make_graph()
    model = tgn.TgnModel(small_config(), VOCAB, 0, rng)
    ctx = model.bind_graph(g)
    return model, ctx, g


def zero_params(model, prefixes):
    for name, t in model.pset.items():
        if any(name.startswith(p) for p in prefixes):
            t.data = np.zeros_like(t.data)


# -- messages and memory updates ------------------------------------------------


def test_message_zero_weights_gives_zero(setup, rng):
    model, _, _ = setup
    zero_params(model, ["msg."])
    out = compute_message(model, rng.normal(size=8), rng.normal(size=8), 3.0, np.zeros(0))
    assert np.array_equal(out, np.zeros(8))


def test_message_concat_order_matters(setup, rng):
    model, _, _ = setup
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    m_ab = compute_message(model, a, b, 1.0, np.zeros(0))
    m_ba = compute_message(model, b, a, 1.0, np.zeros(0))
    assert not np.allclose(m_ab, m_ba)


def test_message_negative_dt_raises(setup):
    model, _, _ = setup
    with pytest.raises(ValueError):
        compute_message(model, np.zeros(8), np.zeros(8), -0.5, np.zeros(0))


def test_memory_update_grads_match_fd(rng):
    model = tgn.TgnModel(small_config(), VOCAB, 0, rng)
    g = make_graph(n_events=6, seed=4)
    mem0 = rng.normal(size=(g.num_nodes, 8))
    mem = T.Tensor(mem0, requires_grad=True)
    batch, ctx = event_batch_of(g, 0, 6), model.bind_graph(g)

    def loss():
        _, rows, _ = model.batch_updates(mem, np.zeros(g.num_nodes), batch, ctx)
        return T.tensor_mean(rows * rows)

    assert_grads_match_fd(loss, [mem, model.pset["gru.wz"], model.pset["msg.l0.w"]], rng, n_coords=3)


def test_update_memory_touches_only_endpoints(setup):
    model, ctx, g = setup
    state = tgn.MemoryState.zeros(g.num_nodes, 8)
    state.memory[:] = 0.3
    batch = event_batch_of(g, 0, 1)
    u, i, t = int(g.users[0]), int(g.items[0]) + g.num_users, float(g.times[0])
    out = tgn.update_memory(model, state, batch, ctx)
    assert out.last_update[u] == t and out.last_update[i] == t
    untouched = [n for n in range(g.num_nodes) if n not in (u, i)]
    assert np.array_equal(out.memory[untouched], state.memory[untouched])
    assert not np.allclose(out.memory[u], state.memory[u])
    # input state is not mutated
    assert np.all(state.last_update == 0)


def test_zero_params_zero_memory_fixed_point(rng):
    model = tgn.TgnModel(small_config(), VOCAB, 0, rng)
    zero_params(model, ["msg.", "gru."])
    g = make_graph(n_events=10)
    state = tgn.MemoryState.zeros(g.num_nodes, 8)
    out = tgn.update_memory(model, state, event_batch_of(g, 0, 10), model.bind_graph(g))
    assert np.array_equal(out.memory, np.zeros_like(out.memory))


def test_batch_equals_sequential_without_repeats(rng):
    model = tgn.TgnModel(small_config(), VOCAB, 0, rng)
    # two events touching four distinct nodes
    g = tg.TemporalGraph(
        np.array([0, 1]), np.array([0, 1]), np.array([5.0, 7.0]), np.zeros((2, 0)),
        ["u0", "u1"], ["i0", "i1"], VOCAB,
        [np.array([0]), np.array([1])], [np.array([2]), np.array([3])],
    )
    state = tgn.MemoryState(np.asarray(rng.normal(size=(4, 8))), np.zeros(4))
    ctx = model.bind_graph(g)
    whole = tgn.update_memory(model, state, event_batch_of(g, 0, 2), ctx)
    step = tgn.update_memory(model, state, event_batch_of(g, 0, 1), ctx)
    step = tgn.update_memory(model, step, event_batch_of(g, 1, 2), ctx)
    assert np.allclose(whole.memory, step.memory, atol=1e-12)
    assert np.array_equal(whole.last_update, step.last_update)


def test_batch_differs_from_sequential_with_repeats(rng):
    model = tgn.TgnModel(small_config(), VOCAB, 0, rng)
    # user 0 appears twice: batch semantics reads batch-start memory twice
    g = tg.TemporalGraph(
        np.array([0, 0]), np.array([0, 1]), np.array([5.0, 7.0]), np.zeros((2, 0)),
        ["u0"], ["i0", "i1"], VOCAB,
        [np.array([0])], [np.array([1]), np.array([2])],
    )
    state = tgn.MemoryState(np.asarray(rng.normal(size=(3, 8))), np.zeros(3))
    ctx = model.bind_graph(g)
    whole = tgn.update_memory(model, state, event_batch_of(g, 0, 2), ctx)
    step = tgn.update_memory(model, state, event_batch_of(g, 0, 1), ctx)
    step = tgn.update_memory(model, step, event_batch_of(g, 1, 2), ctx)
    assert not np.allclose(whole.memory[0], step.memory[0])


def test_update_rejects_time_regression(setup, rng):
    model, ctx, g = setup
    state = tgn.MemoryState.zeros(g.num_nodes, 8)
    state.last_update[:] = 1e6
    with pytest.raises(ValueError, match="precedes"):
        tgn.update_memory(model, state, event_batch_of(g, 0, 5), ctx)


def test_last_message_wins_within_batch(rng):
    model = tgn.TgnModel(small_config(), VOCAB, 0, rng)
    g = tg.TemporalGraph(
        np.array([0, 0]), np.array([0, 1]), np.array([5.0, 9.0]), np.zeros((2, 0)),
        ["u0"], ["i0", "i1"], VOCAB,
        [np.array([0])], [np.array([1]), np.array([2])],
    )
    state = tgn.MemoryState(np.asarray(rng.normal(size=(3, 8))), np.zeros(3))
    out = tgn.update_memory(model, state, event_batch_of(g, 0, 2), model.bind_graph(g))
    assert out.last_update[0] == 9.0
    # oracle: user 0's new memory comes from the t=9 event alone
    msg = compute_message(model, state.memory[0], state.memory[2], 9.0, np.zeros(0))
    with T.no_grad():
        expect = model.gru(model.pset, T.constant(msg[None, :]), T.constant(state.memory[0][None, :]))
    assert np.allclose(out.memory[0], expect.data[0], atol=1e-12)


# -- embeddings and prediction ------------------------------------------------------


def test_embed_layer0_is_features_plus_memory(rng):
    # a model without attention layers embeds every query at layer 0
    g = make_graph()
    model = tgn.TgnModel(small_config(n_layers=0), VOCAB, 0, rng)
    ctx = model.bind_graph(g)
    state = tgn.MemoryState(np.asarray(rng.normal(size=(g.num_nodes, 8))), np.zeros(g.num_nodes))
    nodes = np.array([0, 3, g.num_users + 1])
    with T.no_grad():
        mem = T.constant(state.memory)
        h0 = model.embed(ctx, mem, nodes, np.full(3, 50.0)).data
        feats = model.node_static_features(ctx, nodes).data
    assert np.allclose(h0, feats + state.memory[nodes], atol=1e-12)


def test_node_static_features_matches_row_loop(rng):
    g = make_graph(n_events=30, seed=4)
    # users 1 and 3 and item 2 carry no features; user 0 carries a repeat
    user_feats = [np.array([4, 0, 4]), np.array([], dtype=np.int64), np.array([1, 2]),
                  np.array([], dtype=np.int64), np.array([3])]
    item_feats = [np.array([2]), np.array([0, 1, 3]), np.array([], dtype=np.int64), np.array([4])]
    g = tg.TemporalGraph(g.users, g.items, g.times, g.edge_features, g.user_ids, g.item_ids,
                         g.feature_vocab, user_feats, item_feats)
    model = tgn.TgnModel(small_config(), VOCAB[:3], 0, rng)  # tok3, tok4 unknown
    ctx = model.bind_graph(g)
    checked = [model.pset[name] for name in ("feat.table", "feat_proj.w", "feat_proj.b")]
    for nodes in ([0, 5, 0, 1, 6, 1, 8, 3, 5], [1, 3, 7, 1], [], list(range(g.num_nodes))):
        nodes = np.array(nodes, dtype=np.int64)
        outs, grads = [], []
        for fn in (model.node_static_features, lambda c, n: node_static_features_loop(model, c, n)):
            model.pset.zero_grads()
            out = fn(ctx, nodes)
            T.backward(T.tensor_sum(out * T.constant(np.arange(out.data.size).reshape(out.shape))),
                       params=model.pset.tensors())
            outs.append(out.data.tobytes())
            grads.append([np.zeros_like(p.data) if p.grad is None else p.grad for p in checked])
        assert outs[0] == outs[1]
        # the per-node table sums gradients in another order than the row loop
        for got, expect in zip(*grads):
            assert np.allclose(got, expect, rtol=0.0, atol=1e-12)
    with pytest.raises(KeyError):
        model.node_static_features(ctx, np.array([0, -1]))


def test_node_static_rows_do_not_depend_on_the_query(setup):
    model, ctx, _ = setup
    proj, projected = model.feat_proj, []

    def counting_proj(pset, x):
        projected.append(x.shape[0])
        return proj(pset, x)

    model.feat_proj = counting_proj
    every = np.arange(ctx.num_nodes)
    long = np.random.default_rng(0).integers(0, ctx.num_nodes, 5000)  # repeats every node
    batch = model.node_static_features(ctx, long).data
    with T.no_grad():
        full = model.node_static_features(ctx, every).data
        for node in every:
            alone = model.node_static_features(ctx, np.array([node])).data
            assert alone.tobytes() == full[node:node + 1].tobytes()
    assert batch.tobytes() == full[long].tobytes()
    assert len(projected) == ctx.num_nodes + 2 and max(projected) <= ctx.num_nodes


def test_embed_empty_neighborhood_is_combine_of_zero_context(setup, rng):
    model, ctx, g = setup
    state = tgn.MemoryState.zeros(g.num_nodes, 8)
    node = np.array([2])
    t = np.array([0.0])  # before every event: no history
    with T.no_grad():
        mem = T.constant(state.memory)
        h1 = model.embed(ctx, mem, node, t).data
        h0 = model.node_static_features(ctx, node) + T.gather(mem, node)
        expect = model.combine[0](model.pset, T.concat([h0, T.constant(np.zeros((1, 8)))], axis=1)).data
    assert np.allclose(h1, expect, atol=1e-12)


def _record_attention(monkeypatch):
    """Wrap `tgn._temporal_attention`; each call appends its slot rows `row`,
    its query count `b` and its (slots, heads) `alpha`."""
    calls, real = [], tgn._temporal_attention

    def recording(*args):
        out, alpha = real(*args)
        calls.append({"row": args[8], "b": args[9], "alpha": alpha})
        return out, alpha

    monkeypatch.setattr(tgn, "_temporal_attention", recording)
    return calls


def _attention_sums(call, heads):
    """Per query of one attention call: its slot count and, per head, the
    sum of its attention weights."""
    sums = np.zeros((call["b"], heads))
    np.add.at(sums, call["row"], call["alpha"])
    return np.bincount(call["row"], minlength=call["b"]), sums


def test_single_neighbor_gets_full_attention(rng, monkeypatch):
    model = tgn.TgnModel(small_config(), VOCAB, 0, rng)
    g = tg.TemporalGraph(
        np.array([0]), np.array([0]), np.array([5.0]), np.zeros((1, 0)),
        ["u0"], ["i0"], VOCAB, [np.array([0])], [np.array([1])],
    )
    ctx = model.bind_graph(g)
    calls = _record_attention(monkeypatch)
    with T.no_grad():
        mem = T.constant(np.zeros((2, 8)))
        model.embed(ctx, mem, np.array([0]), np.array([9.0]))
    (call,) = calls
    assert call["b"] == 1 and call["row"].tolist() == [0]
    assert call["alpha"].shape == (1, model.config.n_heads) and np.allclose(call["alpha"], 1.0)


def test_attention_weights_sum_to_one(setup, rng, monkeypatch):
    model, ctx, g = setup
    heads = model.config.n_heads
    state = tgn.MemoryState(np.asarray(rng.normal(size=(g.num_nodes, 8))), np.zeros(g.num_nodes))
    calls = _record_attention(monkeypatch)
    with T.no_grad():
        mem = T.constant(state.memory)
        model.embed(ctx, mem, np.arange(g.num_nodes), np.full(g.num_nodes, 400.0))
    (call,) = calls
    counts, sums = _attention_sums(call, heads)
    assert call["b"] == g.num_nodes and counts.all()
    assert np.allclose(sums, 1.0, atol=1e-6)
    # queries made before a node's first event have no neighbor to attend to
    calls.clear()
    nodes = np.concatenate([np.arange(g.num_nodes), np.arange(g.num_nodes)])
    ts = np.concatenate([np.full(g.num_nodes, 400.0), np.zeros(g.num_nodes)])
    with T.no_grad():
        model.embed(ctx, mem, nodes, ts)
    (call,) = calls
    counts, sums = _attention_sums(call, heads)
    assert call["b"] == len(nodes) and (counts > 0).sum() == g.num_nodes
    assert np.allclose(sums[counts > 0], 1.0, atol=1e-6)
    assert np.array_equal(sums[counts == 0], np.zeros((g.num_nodes, heads)))


def _outputs_and_grads(model, mem, forward):
    """Forward values of `forward()` and the gradients of a fixed weighted
    sum of them, for every parameter and for `mem`."""
    model.pset.zero_grads()
    mem.grad = None
    out = forward()
    weights = np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape)
    T.backward(T.tensor_sum(out * T.constant(weights)), params=model.pset.tensors())
    grads = {name: t.grad.copy() for name, t in model.pset.items()}
    grads["mem"] = mem.grad.copy()
    return out.data, grads


def _assert_matches_padded(model, ctx, mem, users, items, ts, hide_u, hide_i, exact):
    pairs = [
        (lambda: model.embed(ctx, mem, users, ts, hide=hide_u),
         lambda: embed_padded(model, ctx, mem, users, ts, hide=hide_u)),
        (lambda: model.score_pairs(ctx, mem, users, items, ts, hide_users=hide_u, hide_items=hide_i),
         lambda: score_pairs_padded(model, ctx, mem, users, items, ts, hide_users=hide_u, hide_items=hide_i)),
    ]
    for ragged, padded in pairs:
        got, got_grads = _outputs_and_grads(model, mem, ragged)
        expect, expect_grads = _outputs_and_grads(model, mem, padded)
        if exact:
            assert got.tobytes() == expect.tobytes()
        else:
            assert np.allclose(got, expect, rtol=0.0, atol=1e-12)
        # the segment softmax sums gradients in another order than the dense one
        for name, grad in expect_grads.items():
            assert np.allclose(got_grads[name], grad, rtol=0.0, atol=1e-12), name


@pytest.mark.parametrize("k", [4, 64])
@pytest.mark.parametrize("n_layers", [1, 2])
def test_embed_matches_padded_attention(rng, k, n_layers):
    # one batch mixing full, partial and empty neighborhoods, repeated nodes
    # and hidden rows; k=64 is larger than any node's history
    g = make_graph(n_events=40, seed=8, edge_dim=3)
    model = tgn.TgnModel(small_config(k_neighbors=k, n_layers=n_layers), VOCAB, 3, rng)
    ctx = model.bind_graph(g)
    mem = T.Tensor(rng.normal(size=(g.num_nodes, 8)), requires_grad=True)
    users = np.array([0, 1, 2, 0, 3, 4, 0, 1])
    items = g.num_users + np.array([0, 1, 2, 3, 0, 1, 0, 2])
    ts = np.array([600.0, 250.0, 0.0, 600.0, 60.0, 600.0, 600.0, 120.0])
    hide_u = np.array([0, 0, 0, 1, 0, 0, 0, 1], dtype=bool)
    hide_i = np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=bool)
    counts = ctx.index.batch_neighbors(users, ts, 64)[3]
    assert counts.max() < 64 and set(counts[counts < 4]) >= {0.0, 1.0} and (counts >= 4).any()
    _assert_matches_padded(model, ctx, mem, users, items, ts, hide_u, hide_i, exact=True)


def test_embed_matches_padded_attention_with_one_real_slot(rng):
    # numpy multiplies a one-row matrix through a matrix-vector kernel, whose
    # bytes differ from the same row inside a taller product
    model = tgn.TgnModel(small_config(), VOCAB, 0, rng)
    g = tg.TemporalGraph(
        np.array([0, 1]), np.array([0, 1]), np.array([5.0, 8.0]), np.zeros((2, 0)),
        ["u0", "u1"], ["i0", "i1"], VOCAB, [np.array([0]), np.array([2])], [np.array([1]), np.array([3])],
    )
    ctx = model.bind_graph(g)
    mem = T.Tensor(rng.normal(size=(g.num_nodes, 8)), requires_grad=True)
    users, items, ts = np.array([0, 1]), np.array([3, 3]), np.array([6.0, 6.0])
    assert ctx.index.batch_neighbors(users, ts, 4)[3].sum() == 1.0
    assert ctx.index.batch_neighbors(items, ts, 4)[3].sum() == 0.0
    _assert_matches_padded(model, ctx, mem, users, items, ts, None, None, exact=False)


@pytest.mark.parametrize("n_layers", [1, 2])
def test_embed_folds_repeated_queries(rng, monkeypatch, n_layers):
    g = make_graph(n_events=40, seed=8, edge_dim=3)
    model = tgn.TgnModel(small_config(n_layers=n_layers), VOCAB, 3, rng)
    ctx = model.bind_graph(g)
    mem = T.Tensor(rng.normal(size=(g.num_nodes, 8)), requires_grad=True)
    # five distinct queries; node 0 at t=600 comes unhidden and hidden
    base_nodes = np.array([0, 0, 1, g.num_users, 0])
    base_ts = np.array([600.0, 600.0, 250.0, 600.0, 120.0])
    base_hide = np.array([0, 1, 0, 0, 0], dtype=bool)
    rep = np.array([0, 2, 0, 1, 3, 2, 1, 0, 4, 3, 4])
    nodes, ts, hide = base_nodes[rep], base_ts[rep], base_hide[rep]

    seen, lookup = [], ctx.index.batch_neighbors

    def counting_lookup(qnodes, qts, k):
        out = lookup(qnodes, qts, k)
        seen.append(len(out[3]))  # one row count per query
        return out

    ctx.index.batch_neighbors = counting_lookup
    attention = _record_attention(monkeypatch)
    with T.no_grad():
        folded = model.embed(ctx, mem, nodes, ts, hide=hide).data
        calls = len(seen)
        alone = model.embed(ctx, mem, base_nodes, base_ts, hide=base_hide).data
    # only the distinct queries reach the neighbor lookup, at every layer; the
    # self path below the top folds the two copies of node 0 at t=600 into one
    assert seen[n_layers - 1] == len(base_nodes) and seen[:calls] == seen[calls:]
    if n_layers == 2:
        assert seen[0] == len(base_nodes) - 1
    assert folded.tobytes() == alone[rep].tobytes()
    # attention runs as often as the lookup, over the distinct queries only:
    # the top layer's (the last op of each call) has one query per distinct one
    assert len(attention) == 2 * calls and attention[calls - 1]["b"] == len(base_nodes)
    for got, expect in zip(attention[:calls], attention[calls:]):
        assert got["b"] == expect["b"] and np.array_equal(got["row"], expect["row"])
        assert got["alpha"].tobytes() == expect["alpha"].tobytes()

    got, got_grads = _outputs_and_grads(model, mem, lambda: model.embed(ctx, mem, nodes, ts, hide=hide))
    expect, expect_grads = _outputs_and_grads(
        model, mem, lambda: embed_padded(model, ctx, mem, nodes, ts, hide=hide))
    assert got.tobytes() == expect.tobytes()
    # repeats sum their gradients before the layers, not after
    for name, grad in expect_grads.items():
        assert np.allclose(got_grads[name], grad, rtol=0.0, atol=1e-12), name


def test_score_pairs_traces_each_layer_once_users_first(setup, rng, monkeypatch):
    """`score_pairs` runs each layer's attention once, over the distinct
    queries of one `embed` call on the users followed by the items."""
    model, ctx, g = setup
    mem = T.constant(rng.normal(size=(g.num_nodes, 8)))
    users, items = np.array([0, 1, 0]), g.num_users + np.array([2, 2, 1])
    ts = np.array([400.0, 450.0, 400.0])
    calls = _record_attention(monkeypatch)
    with T.no_grad():
        model.score_pairs(ctx, mem, users, items, ts)
        model.embed(ctx, mem, np.concatenate([users, items]), np.concatenate([ts, ts]))
    got, expect = calls
    assert got["b"] == expect["b"] == 5  # users 0 and 1, items 2 (twice) and 1
    assert np.array_equal(got["row"], expect["row"]) and got["alpha"].tobytes() == expect["alpha"].tobytes()


def test_embed_and_score_pairs_reject_mismatched_lengths(setup):
    model, ctx, g = setup
    mem = T.constant(np.zeros((g.num_nodes, 8)))
    items = g.num_users + np.array([0, 1, 2])
    with pytest.raises(ValueError, match="ts has 1 entries but nodes has 3"):
        model.embed(ctx, mem, np.array([0, 1, 2]), np.array([5.0]))
    with pytest.raises(ValueError, match="hide has 2 entries but nodes has 3"):
        model.embed(ctx, mem, np.array([0, 1, 2]), np.full(3, 5.0), hide=np.zeros(2, dtype=bool))
    with pytest.raises(ValueError, match="ts has 1 entries but users has 3"):
        model.score_pairs(ctx, mem, np.array([0, 1, 2]), items, np.array([5.0]))
    with pytest.raises(ValueError, match="ts has 3 entries but users has 2"):
        model.score_pairs(ctx, mem, np.array([0, 1]), items[:2], np.full(3, 5.0))
    with pytest.raises(ValueError, match="items has 2 entries but users has 3"):
        model.score_pairs(ctx, mem, np.array([0, 1, 2]), items[:2], np.full(3, 5.0))
    for hides in (dict(hide_users=np.zeros(2, dtype=bool)), dict(hide_items=np.zeros(4, dtype=bool))):
        with pytest.raises(ValueError, match="entries but users has 3"):
            model.score_pairs(ctx, mem, np.array([0, 1, 2]), items, np.full(3, 5.0), **hides)


def _attention_inputs(model, layer, seed, n_slots=None):
    # six queries: 0 and 3 hold one slot each, 1 and 5 none, 2 three, 4 four;
    # or `n_slots` slots spread over 300 queries. At layer 1 the slots read
    # rows of a layer-0 table of 7 nodes (200 with `n_slots`), some of them
    # twice; above, each slot reads a row of its own. The value bias is
    # drawn nonzero, in place of `Linear`'s zeros
    rng = np.random.default_rng(seed)
    row = np.array([0, 2, 2, 2, 3, 4, 4, 4, 4]) if n_slots is None else np.sort(rng.integers(0, 300, n_slots))
    n, b, d, dt = len(row), 6 if n_slots is None else 300, model.config.d_mem, model.config.d_time
    n_nodes = 7 if n_slots is None else 200
    q = T.Tensor(rng.normal(size=(b, d)), requires_grad=True)
    h_src = T.Tensor(rng.normal(size=(n_nodes if layer == 1 else n, d)), requires_grad=True)
    src = rng.integers(0, n_nodes, n) if layer == 1 else np.arange(n)
    phi = T.Tensor(rng.normal(size=(n, dt)), requires_grad=True)
    x_uv = rng.normal(size=(n, model.edge_dim))
    weights = [model.pset[f"att{layer}.{p}"] for p in ("k.w", "v.w", "v.b")]
    weights[2].data = rng.normal(size=d)
    return [q, h_src, phi], src, x_uv, weights, row, b


@pytest.mark.parametrize("layer", [1, 2])
def test_temporal_attention_matches_composed_ops(rng, layer):
    model = tgn.TgnModel(small_config(n_layers=2), VOCAB, 3, rng)
    (q, h_src, phi), src, x_uv, weights, row, b = _attention_inputs(model, layer, seed=layer)
    out_w = np.random.default_rng(9).normal(size=(b, model.config.d_mem))
    checked = [q, h_src, phi, *weights]
    runs = []
    for op in (tgn._temporal_attention, temporal_attention_composed):
        for t in checked:
            t.grad = None
        context, alpha = op(q, h_src, src, phi, x_uv, *weights, row, b, model.config.n_heads)
        T.backward(T.tensor_sum(context * T.constant(out_w)))
        runs.append((context.data, alpha, [t.grad.copy() for t in checked]))
    (context, alpha, grads), (expect_context, expect_alpha, expect_grads) = runs
    # the composed scores sum each head's products in another order
    np.testing.assert_allclose(context, expect_context, rtol=0, atol=1e-12)
    np.testing.assert_allclose(alpha, expect_alpha, rtol=0, atol=1e-12)
    assert not context[[1, 5]].any()  # queries without a slot get no context
    assert np.array_equal(alpha[[0, 4]], np.ones((2, model.config.n_heads)))
    for got, expect in zip(grads, expect_grads):
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def _grads_bytes(tensors):
    return [t.grad.tobytes() for t in tensors]


# (layer, edge_dim, n_slots); `n_slots` set means the default TgnConfig
# widths over that many slots: products of these shapes round differently
# when they are split into per-block products
SAME_BYTES_CASES = [(layer, edge_dim, None) for layer in (1, 2) for edge_dim in (0, 3)] + [
    (1, 3, 60), (1, 3, 2000)]


@pytest.mark.parametrize("layer, edge_dim, n_slots", SAME_BYTES_CASES)
def test_temporal_attention_same_bytes_as_recompute(layer, edge_dim, n_slots):
    config = small_config(n_layers=2) if n_slots is None else tgn.TgnConfig()
    model = tgn.TgnModel(config, VOCAB, edge_dim, np.random.default_rng(layer))
    (q, h_src, phi), src, x_uv, weights, row, b = _attention_inputs(model, layer, 10 * layer + edge_dim, n_slots)
    out_w = np.random.default_rng(11).normal(size=(b, model.config.d_mem))
    checked = [q, h_src, phi, *weights]
    runs = []
    for op in (tgn._temporal_attention, temporal_attention_recompute):
        for t in checked:
            t.grad = None
        context, alpha = op(q, h_src, src, phi, x_uv, *weights, row, b, model.config.n_heads)
        T.backward(T.tensor_sum(context * T.constant(out_w)))
        runs.append([context.data.tobytes(), alpha.tobytes(), *_grads_bytes(checked)])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("shape", [(7,), (3, 5)])
def test_time_encoder_same_bytes_as_composed_ops(rng, shape):
    """`shape` is that of a grid of (query time, event time) rows: (7,) is
    seven rows of their own, (3, 5) three query times against five event
    times, so both time tables hold repeats. Each encoder also runs in its
    `row` form, over a query list that repeats times and holds one time no
    row reads, as `TgnModel._embed` calls it for queries without slots."""
    model = tgn.TgnModel(small_config(), VOCAB, 0, rng)
    model.pset["time.phase"].data = rng.normal(size=model.config.d_time)
    t0 = 100.0
    if len(shape) == 1:
        s = rng.uniform(t0, 400, size=shape)
        t = s + rng.uniform(0, 100, size=shape)
    else:
        t, s = (x.ravel() for x in np.meshgrid(rng.uniform(450, 500, shape[0]), rng.uniform(t0, 400, shape[1]),
                                                indexing="ij"))
    out_w = rng.normal(size=(len(t), model.config.d_time))
    params = [model.pset["time.freq"], model.pset["time.phase"]]
    distinct, inverse = np.unique(t, return_inverse=True)
    queries = np.concatenate([distinct, [(t.min() + t.max()) / 2], distinct])
    runs = []
    for encode in (model.time_enc.__call__, lambda *args: time_encoder_composed(model.time_enc, *args)):
        for args in ((t, s, t0), (queries, s, t0, inverse + len(distinct) + 1)):
            for t_ in params:
                t_.grad = None
            phi = encode(model.pset, *args)
            T.backward(T.tensor_sum(phi * T.constant(out_w)))
            runs.append([phi.data.tobytes(), *_grads_bytes(params)])
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("config", [dict(n_layers=1), dict(n_layers=2), dict(d_mem=32, d_time=16, d_feat=32)])
def test_training_step_same_bytes_as_recompute_and_composed_encoder(monkeypatch, config):
    g = make_graph(n_events=80, seed=4, edge_dim=3)
    model = tgn.TgnModel(small_config(**config), VOCAB, 3, np.random.default_rng(2))
    ctx = model.bind_graph(g)
    rng = np.random.default_rng(6)
    mem = T.constant(rng.normal(size=(g.num_nodes, model.config.d_mem)))
    b = 40  # early queries have no history; the rest have one to k real slots
    users, items = rng.integers(0, g.num_users, b), g.num_users + rng.integers(0, g.num_items, b)
    ts = np.sort(rng.uniform(0.0, float(g.times[-1]) + 1.0, b))
    hide_u, hide_i = rng.random(b) < 0.3, rng.random(b) < 0.3
    labels = rng.integers(0, 2, b)

    def step():
        model.pset.zero_grads()
        probs = model.score_pairs(ctx, mem, users, items, ts, hide_users=hide_u, hide_items=hide_i)
        T.backward(T.bce_loss(probs, labels), params=model.pset.tensors())
        return [probs.data.tobytes(), *_grads_bytes(model.pset.tensors())]

    fused = step()
    monkeypatch.setattr(tgn, "_temporal_attention", temporal_attention_recompute)
    monkeypatch.setattr(type(model.time_enc), "__call__", time_encoder_composed)
    assert step() == fused


def test_temporal_attention_grads_match_fd(rng):
    # layer 1 reads a shared node table, layer 2 a row per slot
    for layer in (1, 2):
        model = tgn.TgnModel(small_config(n_layers=layer), VOCAB, 3, rng)
        (q, h_src, phi), src, x_uv, weights, row, b = _attention_inputs(model, layer, seed=3)
        out_w = np.random.default_rng(4).normal(size=(b, model.config.d_mem))

        def loss():
            context, _ = tgn._temporal_attention(q, h_src, src, phi, x_uv, *weights, row, b, model.config.n_heads)
            return T.tensor_mean(context * T.constant(out_w))

        assert_grads_match_fd(loss, [q, h_src, phi, *weights], np.random.default_rng(5))


def test_temporal_attention_names_itself_on_nan(rng):
    model = tgn.TgnModel(small_config(), VOCAB, 3, rng)
    (q, h_src, phi), src, x_uv, weights, row, b = _attention_inputs(model, 1, seed=6)
    h_src.data[src[2]] = np.nan
    with pytest.raises(T.NonFiniteError, match="temporal_attention"):
        tgn._temporal_attention(q, h_src, src, phi, x_uv, *weights, row, b, model.config.n_heads)


def test_predict_link_range_and_determinism(setup, rng):
    model, ctx, g = setup
    state = tgn.MemoryState(np.asarray(rng.normal(size=(g.num_nodes, 8))), np.zeros(g.num_nodes))
    p1 = predict_link(model, ctx, state, 0, g.num_users + 1, 100.0)
    p2 = predict_link(model, ctx, state, 0, g.num_users + 1, 100.0)
    assert 0.0 < p1 < 1.0 and p1 == p2
    zero_params(model, ["dec."])
    assert predict_link(model, ctx, state, 0, g.num_users + 1, 100.0) == 0.5
    with pytest.raises(KeyError):
        predict_link(model, ctx, state, g.num_nodes, 0, 1.0)


def test_scoring_never_mutates_state(setup, rng):
    model, ctx, g = setup
    state = tgn.MemoryState(np.asarray(rng.normal(size=(g.num_nodes, 8))), np.zeros(g.num_nodes))
    mem_before = state.memory.copy()
    lu_before = state.last_update.copy()
    predict_link(model, ctx, state, 0, g.num_users, 50.0)
    assert np.array_equal(state.memory, mem_before)
    assert np.array_equal(state.last_update, lu_before)


def test_full_model_gradcheck(rng):
    model = tgn.TgnModel(small_config(k_neighbors=3), VOCAB, 0, rng)
    g = make_graph(n_events=12, seed=6)
    ctx = model.bind_graph(g)
    mem = T.Tensor(rng.normal(size=(g.num_nodes, 8)), requires_grad=True)
    users = np.array([0, 1])
    items = np.array([g.num_users, g.num_users + 2])
    ts = np.array([300.0, 420.0])

    def loss():
        return T.tensor_mean(model.score_pairs(ctx, mem, users, items, ts))

    checked = [
        mem,
        model.pset["feat.table"],
        model.pset["att1.q.w"],
        model.pset["att1.k.w"],
        model.pset["att1.v.w"],
        model.pset["combine1.l0.w"],
        model.pset["dec.l1.w"],
        model.pset["time.freq"],
    ]
    assert_grads_match_fd(loss, checked, rng, n_coords=3, tol=1e-4)


def test_context_dropout_hide_falls_back_to_empty_neighborhood(setup, rng):
    model, ctx, g = setup
    mem = T.constant(rng.normal(size=(g.num_nodes, 8)))
    nodes = np.array([0, 1, g.num_users])
    ts = np.full(3, float(g.times[-1]) + 1.0)
    with T.no_grad():
        plain = model.embed(ctx, mem, nodes, ts).data
        unhidden = model.embed(ctx, mem, nodes, ts, hide=np.zeros(3)).data
        hidden = model.embed(ctx, mem, nodes, ts, hide=np.ones(3)).data
        no_history = model.embed(ctx, mem, nodes, np.zeros(3)).data
    assert np.array_equal(unhidden, plain)
    assert not np.allclose(hidden, plain)
    # masking all neighbors is exactly the pre-history embedding
    assert np.array_equal(hidden, no_history)


def test_context_dropout_training_is_seeded(rng):
    g = make_graph(n_events=60, seed=9)

    def run():
        model = tgn.TgnModel(small_config(context_dropout=0.5), VOCAB, 0, np.random.default_rng(3))
        ctx = model.bind_graph(g)
        _, losses = tgn.train(model, ctx, g, epochs=2, rng=np.random.default_rng(11))
        return losses

    assert run() == run()

    model = tgn.TgnModel(small_config(), VOCAB, 0, np.random.default_rng(3))
    ctx = model.bind_graph(g)
    _, plain = tgn.train(model, ctx, g, epochs=2, rng=np.random.default_rng(11))
    assert run() != plain


def test_featureless_graph_trains_with_context_dropout():
    # no node holds a token: every static row is the projection's bias, and
    # the embedding table receives an all-zero gradient
    g = make_graph(n_events=60, seed=9)
    bare = tg.TemporalGraph(g.users, g.items, g.times, g.edge_features, g.user_ids, g.item_ids, [],
                            [np.array([], dtype=np.int64)] * g.num_users,
                            [np.array([], dtype=np.int64)] * g.num_items)
    model = tgn.TgnModel(small_config(context_dropout=0.5), [], 0, np.random.default_rng(3))
    ctx = model.bind_graph(bare)
    _, losses = tgn.train(model, ctx, bare, epochs=1, rng=np.random.default_rng(11))
    assert np.isfinite(losses).all()
    static = model.node_static_features(ctx, np.arange(bare.num_nodes)).data
    assert np.array_equal(static, np.broadcast_to(model.pset["feat_proj.b"].data, static.shape))
    table = model.pset["feat.table"]
    assert table.grad.shape == table.data.shape and not table.grad.any()


# -- training loop -------------------------------------------------------------------


def test_train_epoch_loss_decreases(rng):
    g = make_graph(n_users=6, n_items=6, n_events=200, seed=2, structured=True)
    model = tgn.TgnModel(small_config(batch_size=25, lr=0.02), VOCAB, 0, rng)
    ctx = model.bind_graph(g)
    state, losses = tgn.train(model, ctx, g, epochs=10, rng=np.random.default_rng(1))
    assert len(losses) == 10
    assert losses[-1] < losses[0]


def test_train_deterministic(rng):
    g = make_graph(n_events=60, seed=8)

    def run():
        model = tgn.TgnModel(small_config(batch_size=20), VOCAB, 0, np.random.default_rng(9))
        ctx = model.bind_graph(g)
        state, losses = tgn.train(model, ctx, g, epochs=3, rng=np.random.default_rng(2))
        return losses, state.memory.copy()

    (la, ma), (lb, mb) = run(), run()
    assert la == lb
    assert ma.tobytes() == mb.tobytes()


def test_train_epoch_sets_last_update(rng):
    g = make_graph(n_events=50, seed=3)
    model = tgn.TgnModel(small_config(batch_size=10), VOCAB, 0, rng)
    ctx = model.bind_graph(g)
    state, _ = tgn.train(model, ctx, g, epochs=1, rng=np.random.default_rng(0))
    touched = set(g.users.tolist()) | set((g.items + g.num_users).tolist())
    for node in range(g.num_nodes):
        if node in touched:
            assert state.last_update[node] > 0
        else:
            assert state.last_update[node] == 0


def test_deferred_updates_match_immediate_when_params_frozen(rng):
    # with a zero learning rate the deferred write must reproduce the plain
    # score-then-update schedule exactly
    g = make_graph(n_events=40, seed=5)
    model = tgn.TgnModel(small_config(batch_size=8), VOCAB, 0, rng)
    ctx = model.bind_graph(g)
    init = tgn.MemoryState.zeros(g.num_nodes, 8)
    state, _ = tgn.train_epoch(model, ctx, g, init, Adam(lr=0.0), np.random.default_rng(4))

    oracle = init.copy()
    for batch in tg.batch_iter(g, 8):
        oracle = tgn.update_memory(model, oracle, batch, ctx)
    assert np.allclose(state.memory, oracle.memory, atol=1e-12)
    assert np.array_equal(state.last_update, oracle.last_update)


def test_train_memory_resets_each_epoch(rng):
    g = make_graph(n_events=30, seed=7)
    model = tgn.TgnModel(small_config(batch_size=10, lr=0.0), VOCAB, 0, rng)
    ctx = model.bind_graph(g)
    one, _ = tgn.train(model, ctx, g, epochs=1, rng=np.random.default_rng(3), optimizer=Adam(lr=0.0))
    three, _ = tgn.train(model, ctx, g, epochs=3, rng=np.random.default_rng(3), optimizer=Adam(lr=0.0))
    # frozen params: every epoch replays the same trajectory from the reset state
    assert np.allclose(one.memory, three.memory, atol=1e-12)


def test_train_empty_graph_raises(setup):
    model, ctx, g = setup
    with pytest.raises(ValueError):
        tgn.train_epoch(
            model, ctx, g.slice(0, 0), tgn.MemoryState.zeros(g.num_nodes, 8),
            Adam(lr=0.1), np.random.default_rng(0),
        )


def test_train_rejects_negative_epochs(setup):
    model, ctx, g = setup
    with pytest.raises(ValueError, match=r"epochs must be an integer >= 0, got -1"):
        tgn.train(model, ctx, g, epochs=-1, rng=np.random.default_rng(0))


@pytest.mark.parametrize("rows, cols", [(1, 8), (14, 8), (9, 4)])
def test_memory_of_the_wrong_shape_is_rejected(setup, rows, cols):
    """Memory holds one d_mem row per graph node (9 nodes, d_mem 8 here);
    another shape fails at the first `embed`, naming both shapes, not as an
    index or broadcast error deeper in."""
    model, ctx, g = setup
    with pytest.raises(ValueError, match=rf"memory of shape \({rows}, {cols}\) where the graph needs \(9, 8\)"):
        tgn.train(model, ctx, g, epochs=1, rng=np.random.default_rng(0), init_state=tgn.MemoryState.zeros(rows, cols))


def test_a_training_step_frees_the_last_steps_tape(monkeypatch):
    """Each batch's probabilities and loss, and the memory they were scored
    from (which carries the pending memory update's tape), are unreachable
    by the time the next batch's forward starts. A `Tensor` takes no weak
    reference, so the test holds one to its array, which the tensor keeps
    alive."""
    g = make_graph(n_events=50, seed=3)
    model = tgn.TgnModel(small_config(batch_size=10), VOCAB, 0, np.random.default_rng(1))
    ctx = model.bind_graph(g)
    tapes, checks = [], []
    bce_loss, score_pairs, batch_updates = T.bce_loss, model.score_pairs, model.batch_updates

    def step_starts():
        checks.append(len(tapes))
        assert all(ref() is None for ref in tapes), "a previous step's tape is still alive"

    def recording_bce(probs, labels):
        loss = bce_loss(probs, labels)
        tapes.extend(weakref.ref(t.data) for t in (probs, loss))
        return loss

    def checked_updates(mem, *args):
        step_starts()
        return batch_updates(mem, *args)

    def checked_score(ctx, mem, *args, **kwargs):
        if mem.requires_grad:  # the pending update's scatter_rows output
            tapes.append(weakref.ref(mem.data))
        else:  # a constant over the state's own array: no pending update ran
            step_starts()
        return score_pairs(ctx, mem, *args, **kwargs)

    monkeypatch.setattr(T, "bce_loss", recording_bce)
    monkeypatch.setattr(model, "score_pairs", checked_score)
    monkeypatch.setattr(model, "batch_updates", checked_updates)
    tgn.train(model, ctx, g, epochs=2, rng=np.random.default_rng(0))
    assert checks[:5] == [0, 2, 5, 8, 11]  # five batches, four with a pending update


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_a_second_training_epoch_reuses_the_freed_heap():
    """Training keeps the pages freed tapes held, so once one epoch has run
    on the README source, the next faults almost no page in, where it took
    about 10 000 minor faults when glibc handed freed tapes back to the OS."""
    import resource  # POSIX only
    source, _, _ = synthdata.generate_pair(synthdata.SynthConfig(
        n_users=80, n_items=120, n_feature_tokens=36, n_communities=6, n_events=3000, target_scale=0.6, seed=7))
    model = tgn.TgnModel(tgn.TgnConfig(), source.feature_vocab, source.edge_feature_dim, np.random.default_rng(0))
    ctx = model.bind_graph(source)
    tgn.train(model, ctx, source, epochs=1, rng=np.random.default_rng(1))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tgn.train(model, ctx, source, epochs=1, rng=np.random.default_rng(2))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


# -- binding and checkpoints -----------------------------------------------------------


def test_bind_graph_remaps_unknown_tokens(rng):
    model = tgn.TgnModel(small_config(), ["tok0", "tok1"], 0, rng)
    g = make_graph()  # vocab tok0..tok4; tok2+ unknown to the model
    ctx = model.bind_graph(g)
    for node, feats in enumerate((*g.user_features, *g.item_features)):
        expect = [f + 1 if f < 2 else tgn.UNKNOWN_ROW for f in feats]
        assert list(ctx.node_rows[node]) == expect


def test_bind_graph_edge_dim_mismatch(rng):
    model = tgn.TgnModel(small_config(), VOCAB, 2, rng)
    with pytest.raises(ValueError, match="edge feature dim"):
        model.bind_graph(make_graph(edge_dim=0))


def test_snapshot_restore_roundtrip(tmp_path, rng):
    g = make_graph(n_events=50, seed=1)
    model = tgn.TgnModel(small_config(batch_size=10), VOCAB, 0, rng)
    ctx = model.bind_graph(g)
    state, _ = tgn.train(model, ctx, g, epochs=2, rng=np.random.default_rng(5), optimizer=tgn.Adam(lr=0.01))
    assert state.num_nodes == g.num_users + g.num_items

    path = tmp_path / "tgn.ckpt"
    static_pairs = (np.array([0, 1]), np.array([0, 1]), np.array([3, 4]))
    tgn.snapshot(model, state, None, path, source_graph=g, train_pairs=static_pairs)
    loaded = tgn.restore(path)

    assert loaded.model.feature_vocab == VOCAB
    ctx2 = loaded.model.bind_graph(g)
    p_orig = predict_link(model, ctx, state, 0, g.num_users + 1, 600.0)
    p_load = predict_link(loaded.model, ctx2, loaded.state, 0, g.num_users + 1, 600.0)
    assert p_orig == p_load
    assert loaded.state.memory.tobytes() == state.memory.tobytes()
    assert np.array_equal(loaded.source.static.pair_counts, [3, 4])
    assert loaded.source.num_users == g.num_users

    # resaving the restored model is byte-identical
    path2 = tmp_path / "tgn2.ckpt"
    tgn.snapshot(loaded.model, loaded.state, None, path2, source_graph=g, train_pairs=static_pairs)
    assert path.read_bytes() == path2.read_bytes()
