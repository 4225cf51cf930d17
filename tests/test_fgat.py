import weakref

import numpy as np
import pytest

import tgtransfer.fgat as fg
from tgtransfer import transform as tf
from tgtransfer.numerics import read_blob, tensor as T, write_blob

from helpers import (
    assert_grads_match_fd, edge_attention_composed, encode_composed, feature_attachment_tables, g_theta,
    masked_static, phase_update_composed, sample_non_edges_loop, score_link, segment_softmax,
    sorted_table, static_interaction_tables, train_fgat_composed,
)


def make_tg(rng, n_users=4, n_items=3, vocab_size=4, n_events=30, user_feats=None, item_feats=None):
    pairs_u = rng.integers(0, n_users, n_events)
    pairs_i = rng.integers(0, n_items, n_events)
    key = pairs_u * n_items + pairs_i
    uniq, counts = np.unique(key, return_counts=True)
    static = tf.StaticGraph(uniq // n_items, uniq % n_items, counts, n_users, n_items)
    vocab = [f"tok{k}" for k in range(vocab_size)]
    if user_feats is None:
        user_feats = [
            np.sort(rng.choice(vocab_size, size=int(rng.integers(1, 3)), replace=False))
            for _ in range(n_users)
        ]
    if item_feats is None:
        item_feats = [
            np.sort(rng.choice(vocab_size, size=int(rng.integers(1, 3)), replace=False))
            for _ in range(n_items)
        ]
    return tf.TransformedGraph(static, user_feats, item_feats, vocab)


@pytest.fixture
def rng():
    return np.random.default_rng(77)


@pytest.fixture
def model(rng):
    cfg = fg.FgatConfig(dim=8, n_layers=2)
    return fg.FgatModel(cfg, [f"tok{k}" for k in range(4)], rng)


def _record_phases(monkeypatch, model):
    """Wrap `fg.phase_update` for `model`'s phases; each call appends its
    layer, phase, table, `alpha`, and the rows of `H` before and after."""
    names = {id(model.pset[f"layer{layer}.phase{phase}.w5"]): (layer, phase) for layer, phase in model._schedule}
    steps, real = [], fg.phase_update

    def recording(H, params, table):
        out, alpha = real(H, params, table)
        layer, phase = names[id(params[0])]
        steps.append({"layer": layer, "phase": phase, "table": table, "alpha": alpha,
                      "before": H.data, "after": out.data})
        return out, alpha

    monkeypatch.setattr(fg, "phase_update", recording)
    return steps


def test_parameter_count(model):
    # one feature table + per layer per phase: w1..w6 and a 2-layer MLP (4
    # arrays); the last layer has no phase 4
    per_block = 6 + 4
    assert len(model.pset) == 1 + (model.config.n_layers * 4 - 1) * per_block
    default = fg.FgatModel(fg.FgatConfig(), [f"tok{k}" for k in range(64)], np.random.default_rng(0))
    assert len(default.pset) == 71 and sum(t.data.size for t in default.pset.tensors()) == 53_600
    assert not [name for name in default.pset.names() if name.startswith("layer2.phase4.")]


@pytest.mark.parametrize("n_layers", [1, 2])
def test_the_model_draws_nothing_it_drops(n_layers):
    """The generator a model is built from stops after the last layer's
    phase 3, where a model one layer deeper draws that layer's phase 4: the
    model draws the parameters it keeps and no more."""
    vocab, d = [f"tok{k}" for k in range(4)], 8
    draws = np.random.default_rng(4)
    fg.FgatModel(fg.FgatConfig(dim=d, n_layers=n_layers), vocab, draws)
    deeper = fg.FgatModel(fg.FgatConfig(dim=d, n_layers=n_layers + 1), vocab, np.random.default_rng(4))
    nxt = deeper.pset[f"layer{n_layers}.phase4.w1"].data
    assert draws.uniform(-np.sqrt(3 / d), np.sqrt(3 / d), (d, d)).tobytes() == nxt.tobytes()


def test_initial_embeddings(rng, model, monkeypatch):
    tg = make_tg(rng)
    steps = _record_phases(monkeypatch, model)
    with T.no_grad():
        model.encode(tg)
    first = steps[0]
    assert first["layer"] == 1 and first["phase"] == 1
    h0 = first["before"]
    assert np.array_equal(h0[: tg.num_graph_nodes], np.zeros((tg.num_graph_nodes, 8)))
    rows = model.token_rows(tg.feature_vocab)
    assert np.array_equal(h0[tg.num_graph_nodes :], model.pset["feat.table"].data[rows])


def test_shared_tokens_share_initial_rows(rng, model):
    tg_a = make_tg(rng, n_users=3, n_items=2)
    tg_b = make_tg(rng, n_users=5, n_items=4)
    ra = model.token_rows(tg_a.feature_vocab)
    rb = model.token_rows(tg_b.feature_vocab)
    assert np.array_equal(ra, rb)  # same vocab token strings -> same rows
    assert model.token_rows(["never-seen"]) == [fg.UNKNOWN_ROW]


def test_phase_schedule_and_target_ranges(rng, model, monkeypatch):
    tg = make_tg(rng)
    steps = _record_phases(monkeypatch, model)
    with T.no_grad():
        H = model.encode(tg)
    # the last layer ends after phase 3, the last phase to write a graph row
    assert [(s["layer"], s["phase"]) for s in steps] == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3)]
    assert steps[-1]["after"] is H.data
    states = [s["before"] for s in steps] + [H.data]
    u, g, n = tg.num_users, tg.num_graph_nodes, tg.num_nodes
    ranges = {1: (0, g), 2: (0, u), 3: (u, g), 4: (g, n)}
    for snap, after, step in zip(states[:-1], states[1:], steps):
        lo, hi = ranges[step["phase"]]
        changed = np.where(np.any(snap != after, axis=1))[0]
        assert changed.size > 0
        assert changed.min() >= lo and changed.max() < hi
    # feature rows stay at their layer-(l-1) values through phases 1-3, so
    # `encode` returns those the last layer read
    for k in (0, 4):  # phase-1 steps of each layer
        assert np.array_equal(states[k][g:], states[k + 3][g:])


def test_attention_weights_sum_to_one(rng, model, monkeypatch):
    tg = make_tg(rng)
    steps = _record_phases(monkeypatch, model)
    with T.no_grad():
        model.encode(tg)
    for step in steps:
        table = step["table"]
        assert step["alpha"].shape == (len(table.seg), 1)
        sums = np.zeros(table.count)
        np.add.at(sums, table.seg, step["alpha"][:, 0])
        nonempty = np.zeros(table.count, dtype=bool)
        nonempty[table.seg] = True
        assert np.allclose(sums[nonempty], 1.0, atol=1e-6)


def test_phase_output_matches_per_node_block(rng, model, monkeypatch):
    # oracle: recompute each phase target with the single-node block
    tg = make_tg(rng)
    steps = _record_phases(monkeypatch, model)
    with T.no_grad():
        model.encode(tg)
    for step_idx in (0, 1, 2, 3, 5):  # phases of layer 1 plus one of layer 2
        step = steps[step_idx]
        before, after, table = step["before"], step["after"], step["table"]
        prefix = f"layer{step['layer']}.phase{step['phase']}"
        for pos, node in enumerate(range(table.start, table.start + table.count)[:6]):
            sel = table.seg == pos
            nbrs = [
                (int(s), before[int(s)], float(a))
                for s, a in zip(table.edge_src[sel], table.edge_a[sel])
            ]
            expect = g_theta(model.pset, prefix, before[node], nbrs)
            assert np.allclose(after[node], expect, atol=1e-12)


def test_g_theta_permutation_invariant(rng, model):
    h_u = rng.normal(size=8)
    nbrs = [(k, rng.normal(size=8), float(rng.uniform(0.1, 1))) for k in (4, 9, 2, 7)]
    a = g_theta(model.pset, "layer1.phase2", h_u, nbrs)
    for _ in range(4):
        perm = [nbrs[j] for j in rng.permutation(len(nbrs))]
        b = g_theta(model.pset, "layer1.phase2", h_u, perm)
        assert a.tobytes() == b.tobytes()


def test_g_theta_duplicate_neighbor_equals_single(rng, model):
    # two identical neighbors get alpha 0.5 each, reproducing the singleton sum
    h_u = rng.normal(size=8)
    h_v = rng.normal(size=8)
    single = g_theta(model.pset, "layer1.phase3", h_u, [(3, h_v, 0.4)])
    double = g_theta(model.pset, "layer1.phase3", h_u, [(3, h_v, 0.4), (5, h_v, 0.4)])
    assert np.allclose(single, double, atol=1e-12)


def test_isolated_node_runs_mlp_chain(rng):
    cfg = fg.FgatConfig(dim=8, n_layers=2)
    model = fg.FgatModel(cfg, ["a"], rng)
    # user 1 never interacts and has no features; item partition needs user 0 active
    static = tf.StaticGraph([0], [0], [3], 2, 1)
    tg = tf.TransformedGraph(
        static,
        [np.array([0]), np.array([], dtype=np.int64)],
        [np.array([0])],
        ["a"],
    )
    with T.no_grad():
        H = model.encode(tg).data
    h = np.zeros(8)
    for layer in (1, 2):
        for phase in (1, 2):  # isolated user is a target of phases 1 and 2 only
            h = g_theta(model.pset, f"layer{layer}.phase{phase}", h, [])
    assert np.allclose(H[1], h, atol=1e-12)


def test_twin_users_get_identical_embeddings(rng):
    cfg = fg.FgatConfig(dim=8, n_layers=2)
    model = fg.FgatModel(cfg, ["x", "y"], rng)
    # users 0 and 1 are exact structural twins: same features, same counts
    static = tf.StaticGraph([0, 1, 2], [0, 0, 1], [2, 2, 5], 3, 2)
    tg = tf.TransformedGraph(
        static,
        [np.array([0]), np.array([0]), np.array([1])],
        [np.array([1]), np.array([0])],
        ["x", "y"],
    )
    with T.no_grad():
        H = model.encode(tg).data
    assert np.allclose(H[0], H[1], atol=1e-12)
    assert not np.allclose(H[0], H[2], atol=1e-6)


def test_relabeling_permutes_embeddings(rng):
    cfg = fg.FgatConfig(dim=8, n_layers=2)
    vocab = [f"tok{k}" for k in range(4)]
    model = fg.FgatModel(cfg, vocab, rng)
    tg = make_tg(rng, n_users=5, n_items=4)
    uperm = rng.permutation(5)  # new id of user u is uperm[u]
    iperm = rng.permutation(4)
    s = tg.static
    relabeled = tf.StaticGraph(
        uperm[s.pair_users], iperm[s.pair_items], s.pair_counts, 5, 4
    )
    uf = [None] * 5
    for u in range(5):
        uf[uperm[u]] = tg.user_features[u]
    itf = [None] * 4
    for i in range(4):
        itf[iperm[i]] = tg.item_features[i]
    tg2 = tf.TransformedGraph(relabeled, uf, itf, vocab)
    with T.no_grad():
        a = model.encode(tg).data
        b = model.encode(tg2).data
    for u in range(5):
        assert np.allclose(a[u], b[uperm[u]], atol=1e-12)
    for i in range(4):
        assert np.allclose(a[5 + i], b[5 + iperm[i]], atol=1e-12)
    assert np.allclose(a[9:], b[9:], atol=1e-12)  # feature nodes unmoved


def test_encode_deterministic(rng, model):
    tg = make_tg(rng)
    a = model.encode_arrays(tg)
    b = model.encode_arrays(tg)
    assert a.tobytes() == b.tobytes()


def test_layer_gradients_match_fd(rng):
    cfg = fg.FgatConfig(dim=4, n_layers=2)
    model = fg.FgatModel(cfg, [f"tok{k}" for k in range(3)], rng)
    tg = make_tg(rng, n_users=3, n_items=2, vocab_size=3, n_events=12)
    weights = rng.normal(size=(tg.num_nodes, 4))

    def loss():
        return T.tensor_mean(model.encode(tg) * T.constant(weights))

    checked = [
        model.pset["feat.table"],
        model.pset["layer1.phase1.w1"],
        model.pset["layer1.phase2.w3"],
        model.pset["layer1.phase2.w4"],
        model.pset["layer1.phase3.w6"],
        model.pset["layer1.phase4.mlp.l0.w"],
        model.pset["layer1.phase1.w5"],
        model.pset["layer2.phase3.w2"],
    ]
    assert_grads_match_fd(loss, checked, rng, n_coords=3, tol=1e-4)


def _attention_graphs():
    # users 0 and 4, item 3, user 0's feature row and token 3 have no
    # neighbours in their phases; item 0 is the source of three user edges
    isolated = tf.TransformedGraph(
        tf.StaticGraph([1, 1, 2, 3, 3], [0, 1, 0, 0, 2], [2, 1, 3, 1, 4], 5, 4),
        [np.array([], dtype=np.int64), np.array([0, 1]), np.array([2]), np.array([0]), np.array([1, 2])],
        [np.array([0]), np.array([1, 2]), np.array([0]), np.array([2])],
        [f"tok{k}" for k in range(4)],
    )
    # one user, one item, one pair: phases 2 and 3 hold a single edge
    single = tf.TransformedGraph(
        tf.StaticGraph([0], [0], [3], 1, 1), [np.array([0])], [np.array([1])], ["tok0", "tok1"],
    )
    return isolated, single


def _overlapping_table(dim):
    """Targets 0-2 whose sources 1-4 overlap them; target 1 has no edges."""
    return sorted_table(0, 3, [0, 0, 2, 2, 2], [1, 4, 2, 3, 0], [0.5, 0.2, 1.0, 0.3, 0.7], dim)


def _update_inputs(model, tg, table, phase, seed):
    """A random H to update, the phase's parameters, moved off their start
    so that the biases are not zero, and output weights."""
    rng = np.random.default_rng(seed)
    H = T.parameter(rng.normal(size=(tg.num_nodes, model.config.dim)))
    params = model._phase_params(1, phase)
    for p in params:
        p.data = p.data + 0.1 * rng.normal(size=p.shape)
    return H, params, rng.normal(size=H.shape)


def _update_runs(model, tg, table, phase, seed, ops):
    """Output, alpha and the gradients of H and every parameter, per op."""
    H, params, out_w = _update_inputs(model, tg, table, phase, seed)
    runs = []
    for op in ops:
        for t in [H, *params]:
            t.grad = None
        out, alpha = op(H, params, table)
        T.backward(T.tensor_sum(out * T.constant(out_w)))
        runs.append((out.data, alpha, [t.grad.copy() for t in [H, *params]]))
    return runs


@pytest.mark.parametrize("graph", [0, 1])
@pytest.mark.parametrize("phase", [1, 2, 3, 4])
def test_edge_attention_matches_composed_ops(model, graph, phase):
    """`phase_update` against the composed phase whose attention runs one
    op per step over per-edge rows (`edge_attention_composed`)."""
    tg = _attention_graphs()[graph]
    table = fg.phase_plan(tg, model.config.dim)[phase - 1]

    def composed(*args):
        return phase_update_composed(*args, attention=edge_attention_composed)

    (out, alpha, grads), (expect, expect_alpha, expect_grads) = _update_runs(
        model, tg, table, phase, 10 * graph + phase, (fg.phase_update, composed)
    )
    # per-node scores round differently from the per-edge (E, 3d) product
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12)
    np.testing.assert_allclose(alpha, expect_alpha, rtol=0, atol=1e-12)
    for got, want in zip(grads, expect_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _featureless(tg):
    """`tg` with every feature row emptied: phases 1 and 4 have no edges."""
    bare = [np.array([], dtype=np.int64)]
    return tf.TransformedGraph(tg.static, bare * tg.num_users, bare * tg.num_items, tg.feature_vocab)


@pytest.mark.parametrize("graph", [0, 1, "overlap", "featureless"])
@pytest.mark.parametrize("phase", [1, 2, 3, 4])
def test_phase_update_keeps_the_composed_phase_bytes(model, graph, phase):
    """The one-op phase gives the composed phase's output and alpha byte for
    byte and its gradients exactly (up to the sign of zeros), on phases
    with and without edges and on sources that overlap the targets. A phase
    without edges has an empty `alpha` and zero attention-weight gradients."""
    if graph == "overlap":
        tg, table = _attention_graphs()[0], _overlapping_table(model.config.dim)
    else:
        tg = _featureless(_attention_graphs()[0]) if graph == "featureless" else _attention_graphs()[graph]
        table = fg.phase_plan(tg, model.config.dim)[phase - 1]
    (out, alpha, grads), (expect, expect_alpha, expect_grads) = _update_runs(
        model, tg, table, phase, 30 + phase, (fg.phase_update, phase_update_composed)
    )
    assert out.tobytes() == expect.tobytes()
    assert alpha.shape == expect_alpha.shape == (len(table.edge_tgt), 1)
    assert alpha.tobytes() == expect_alpha.tobytes()
    for got, want in zip(grads, expect_grads):
        assert np.array_equal(got, want)
    if len(table.edge_tgt) == 0:
        assert all(not g.any() for g in grads[-5:])


@pytest.mark.parametrize("phase", [1, 2, 3, 4])
def test_edge_attention_scores_split_into_per_node_terms(model, phase):
    # leaky_relu acts blockwise and edge weights are nonnegative, so an edge's
    # logit is a target-node term plus a source-node term plus a_uv times a
    # constant: static, GAT-style attention
    tg = _attention_graphs()[0]
    table = fg.phase_plan(tg, model.config.dim)[phase - 1]
    H, params, _ = _update_inputs(model, tg, table, phase, seed=20 + phase)
    w1, w2, _, w3, w4 = (w.data for w in params[5:])
    d = w1.shape[1]

    def act(x):
        return np.where(x > 0.0, x, T.SLOPE * x)

    per_target = act(H.data[table.start : table.start + table.count] @ w1) @ w4[:d]
    per_source = act(H.data @ w2) @ w4[d : 2 * d]
    logits = per_target[table.seg] + per_source[table.edge_src] + table.edge_a[:, None] * (act(w3) @ w4[2 * d :])
    _, alpha = fg.phase_update(H, params, table)
    expect = segment_softmax(T.constant(logits), table.seg, table.count).data
    np.testing.assert_allclose(alpha, expect, rtol=0, atol=1e-12)


def _assert_update_grads_match_fd(model, table):
    H, params, out_w = _update_inputs(model, _attention_graphs()[0], table, 2, seed=3)

    def loss():
        out, _ = fg.phase_update(H, params, table)
        return T.tensor_mean(out * T.constant(out_w))

    assert_grads_match_fd(loss, [H, *params], np.random.default_rng(4))


def test_edge_attention_grads_match_fd(model):
    _assert_update_grads_match_fd(model, fg.phase_plan(_attention_graphs()[0], model.config.dim)[1])


def test_phase_update_grads_match_fd_on_overlapping_sources(model):
    _assert_update_grads_match_fd(model, _overlapping_table(model.config.dim))


def test_fd_check_steps_inside_a_kink_of_a_phase(model, monkeypatch):
    """The MLP bias of phase 2 moved so that one target's first hidden unit
    sits 3e-7 above its leaky-ReLU kink: the plain 1e-6 stencil on that bias
    straddles the kink and misreads the derivative. The check halves its
    step and passes, and it still fails a wrong leaky-ReLU backward."""
    tg = _attention_graphs()[0]
    table = fg.phase_plan(tg, model.config.dim)[1]
    H, params, out_w = _update_inputs(model, tg, table, 2, seed=3)
    inputs, real = [], T._leaky_relu
    monkeypatch.setattr(T, "_leaky_relu", lambda x: inputs.append(x) or real(x))
    fg.phase_update(H, params, table)
    monkeypatch.setattr(T, "_leaky_relu", real)
    bias = params[2]  # shifts the hidden layer's inputs, the op's last activation
    bias.data[0] += 3e-7 - inputs[-1][0, 0]

    def loss():
        out, _ = fg.phase_update(H, params, table)
        return T.tensor_mean(out * T.constant(out_w))

    def check(**step):
        assert_grads_match_fd(loss, [bias], np.random.default_rng(0), n_coords=bias.data.size, h=1e-6, **step)

    with pytest.raises(AssertionError, match=r"coord \(np.int64\(0\),\)"):
        check(h_min=1e-6)
    check()
    monkeypatch.setattr(T, "_leaky_relu", lambda x: (real(x)[0], lambda g: g * np.where(x > 0.0, 1.0, 0.3)))
    with pytest.raises(AssertionError):
        check()


def test_edge_attention_names_itself_on_nan(model):
    tg = _attention_graphs()[0]
    table = fg.phase_plan(tg, model.config.dim)[1]
    H, params, _ = _update_inputs(model, tg, table, 2, seed=5)
    H.data[table.edge_src[0]] = np.nan
    with pytest.raises(T.NonFiniteError, match="phase_update"):
        fg.phase_update(H, params, table)


def _assert_same_table(got, expect, dim, rng):
    for name, a, b in zip(fg.PhaseTable._fields, got, expect):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        elif isinstance(a, tuple):  # sum plans: the same sums of the same values
            for plan_a, plan_b, width in zip(a, b, (1, dim)):
                values = rng.normal(size=(len(got.seg), width))
                assert plan_a(values).tobytes() == plan_b(values).tobytes(), name
        else:
            assert a == b, name


def test_pair_built_tables_match_static_graph_route(rng):
    """Phases 2 and 3 built from pairs are byte for byte the tables built
    edge by edge from a (masked) `StaticGraph`'s pairs: on a full graph, a
    masked one, and graphs with isolated nodes and with a single pair."""
    dim = 3
    full = make_tg(rng, n_users=6, n_items=5, n_events=40)
    for tg in (full, *_attention_graphs()):
        for got, expect in zip(fg.phase_plan(tg, dim)[1:3], static_interaction_tables(tg, dim)):
            _assert_same_table(got, expect, dim, rng)
    s = full.static
    keep = np.sort(rng.permutation(s.num_pairs)[: s.num_pairs // 2])
    got = fg._bipartite_tables(
        s.pair_users[keep], s.pair_items[keep], s.pair_counts[keep], s.num_users, s.num_items, dim
    )
    for got_table, expect in zip(got, static_interaction_tables(masked_static(full, keep), dim)):
        _assert_same_table(got_table, expect, dim, rng)


def test_feature_tables_match_attachment_oracle(rng):
    """Phases 1 and 4 are byte for byte the tables built edge by edge from
    the feature rows, node-major with weight 1/|F_u| and feature-major with
    weight 1/deg: on random graphs, on feature rows given out of order, and
    on a graph with a featureless node and an unattached token."""
    dim = 3
    shuffled = make_tg(rng, user_feats=[np.array([2, 0]), np.array([3]), np.array([1, 3, 0]), np.array([0])],
                       item_feats=[np.array([3, 1]), np.array([0]), np.array([2, 1])])
    graphs = [make_tg(rng, n_users=6, n_items=5, vocab_size=6, n_events=40) for _ in range(3)]
    for tg in (*graphs, shuffled, *_attention_graphs()):
        p1, _, _, p4 = fg.phase_plan(tg, dim)
        for got, expect in zip((p1, p4), feature_attachment_tables(tg, dim)):
            _assert_same_table(got, expect, dim, rng)


def test_train_fgat_builds_each_tables_plans_once(monkeypatch, rng):
    """Phases 1 and 4 build their sum plans once per pool graph and phases 2
    and 3 once per epoch; the phase op, forward and backward, builds none.
    Each epoch runs every phase but the last layer's phase 4."""
    pool = [make_tg(rng, n_users=6, n_items=5, n_events=40) for _ in range(3)]
    real_plan, real_table, real_op = T._index_plan, fg._phase_table, fg.phase_update
    entered, plans, where = {"table": 0, "op": 0}, {"table": 0, "op": 0, None: 0}, [None]

    def within(place, fn):
        def run(*args):
            entered[place] += 1
            where[0] = place
            try:
                return fn(*args)
            finally:
                where[0] = None
        return run

    def plan(*args):
        plans[where[0]] += 1
        return real_plan(*args)

    def op(*args):
        out, alpha = within("op", real_op)(*args)
        out._backward = within("op", out._backward)
        return out, alpha

    monkeypatch.setattr(T, "_index_plan", plan)
    monkeypatch.setattr(fg, "_phase_table", within("table", real_table))
    monkeypatch.setattr(fg, "phase_update", op)
    epochs = 4
    for n_layers in (1, 2):
        entered.update(table=0, op=0)
        plans.update(table=0, op=0)
        model = fg.FgatModel(fg.FgatConfig(dim=8, n_layers=n_layers), [f"tok{k}" for k in range(4)], rng)
        fg.train_fgat(model, pool, epochs, np.random.default_rng(2))
        assert entered["table"] == 2 * len(pool) + 2 * epochs
        assert plans["table"] == 4 * entered["table"]  # over seg and over sources, at widths 1 and dim
        assert entered["op"] == 2 * (4 * n_layers - 1) * epochs  # forward and backward of each phase run
        assert plans["op"] == 0


def test_tape_free_tables_build_only_the_forward_plans(monkeypatch, rng):
    """Two sum plans per table without a tape (over seg), four with one."""
    tg = make_tg(rng)
    count = [0]
    real_plan = T._index_plan

    def plan(*args):
        count[0] += 1
        return real_plan(*args)

    monkeypatch.setattr(T, "_index_plan", plan)
    with T.no_grad():
        tables = fg.phase_plan(tg, 8)
    assert count[0] == 2 * 4 and all(t.src_sums == () for t in tables)
    fg.phase_plan(tg, 8)
    assert count[0] == 2 * 4 + 4 * 4
    model = fg.FgatModel(fg.FgatConfig(dim=8, n_layers=1), [f"tok{k}" for k in range(4)], rng)
    H, params, _ = _update_inputs(model, tg, tables[1], 2, seed=0)
    with pytest.raises(ValueError, match="without a tape"):
        fg.phase_update(H, params, tables[1])


@pytest.mark.parametrize("n_layers", [1, 2])
def test_full_schedule_gives_the_last_phase_4_zero_gradient(rng, n_layers):
    """The premise of ending the schedule at the last layer's phase 3: over
    four phases in every layer, the loss gives that layer's phase-4 weights
    exactly zero gradient (phase 4 writes feature rows, which the loss never
    reads)."""
    vocab = [f"tok{k}" for k in range(6)]
    pool = [make_tg(rng, n_users=8, n_items=6, vocab_size=6, n_events=60) for _ in range(3)]
    deeper = fg.FgatModel(fg.FgatConfig(dim=8, n_layers=n_layers + 1), vocab, np.random.default_rng(1))
    for seed in range(3):
        train_fgat_composed(deeper, pool, 1, np.random.default_rng(seed), n_layers)
        last = [t for name, t in deeper.pset.items() if name.startswith(f"layer{n_layers}.phase4.")]
        assert len(last) == 10 and all(not t.grad.any() for t in last)
        assert deeper.pset[f"layer{n_layers}.phase3.w5"].grad.any()


@pytest.mark.parametrize("n_layers", [1, 2])
def test_train_fgat_keeps_the_composed_full_schedule_bytes(rng, n_layers):
    """Losses and parameters byte for byte as the composed phases over four
    phases in every layer, stepped by a per-parameter Adam: a model one layer
    deeper runs its first `n_layers` layers, so the last phase 4, which only
    it holds, changes no byte of the loss or of any parameter."""
    vocab = [f"tok{k}" for k in range(6)]
    pool = [make_tg(rng, n_users=8, n_items=6, vocab_size=6, n_events=60) for _ in range(3)]
    model, deeper = (fg.FgatModel(fg.FgatConfig(dim=8, n_layers=n, lr=0.02), vocab, np.random.default_rng(6))
                     for n in (n_layers, n_layers + 1))
    got = fg.train_fgat(model, pool, 8, np.random.default_rng(7))
    expect = train_fgat_composed(deeper, pool, 8, np.random.default_rng(7), n_layers)
    assert np.array(got).tobytes() == np.array(expect).tobytes()
    for name, t in model.pset.items():
        assert t.data.tobytes() == deeper.pset[name].data.tobytes(), name


def test_encode_arrays_are_the_graph_rows_of_every_phase(rng):
    vocab = [f"tok{k}" for k in range(4)]
    model, deeper = (fg.FgatModel(fg.FgatConfig(dim=8, n_layers=n), vocab, np.random.default_rng(5)) for n in (2, 3))
    tg = make_tg(rng, n_users=6, n_items=5, n_events=40)
    g = tg.num_graph_nodes
    with T.no_grad():
        expect = encode_composed(deeper, tg, n_layers=2).data[:g]
    got = model.encode_arrays(tg)
    assert got.shape == expect.shape and got.tobytes() == expect.tobytes()
    assert model.encode(tg).data[:g].tobytes() == encode_composed(deeper, tg, n_layers=2).data[:g].tobytes()


def test_encode_arrays_and_training_run_through_encode(rng, model, monkeypatch):
    """Both reach the schedule through the public `encode`, with no switch."""
    calls, real = [], fg.FgatModel.encode

    def encode(self, tg, *args, **kwargs):
        calls.append((args, sorted(kwargs)))
        return real(self, tg, *args, **kwargs)

    monkeypatch.setattr(fg.FgatModel, "encode", encode)
    tg = make_tg(rng, n_users=6, n_items=5, n_events=40)
    model.encode_arrays(tg)
    fg.train_fgat(model, [tg], 2, np.random.default_rng(0))
    assert calls == [((), []), ((), ["plan"]), ((), ["plan"])]


def test_score_link_values():
    assert score_link(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.5
    h = np.array([1.0, 1.0, 1.0])
    assert abs(score_link(h, h) - 1.0 / (1.0 + np.exp(-3.0))) < 1e-12
    a, b = np.array([0.3, -0.2, 1.0]), np.array([0.5, 0.4, -0.1])
    assert score_link(a, b) == score_link(b, a)
    with pytest.raises(ValueError):
        score_link(np.zeros(2), np.zeros(3))


def test_train_fgat_loss_decreases(rng):
    cfg = fg.FgatConfig(dim=8, n_layers=1, lr=0.01)
    vocab = [f"tok{k}" for k in range(6)]
    model = fg.FgatModel(cfg, vocab, rng)
    pool = [make_tg(rng, n_users=8, n_items=6, vocab_size=6, n_events=60) for _ in range(5)]
    losses = fg.train_fgat(model, pool, epochs=30, rng=np.random.default_rng(5))
    assert len(losses) == 30
    assert np.mean(losses[-5:]) < np.mean(losses[:5])


def test_train_fgat_deterministic(rng):
    vocab = [f"tok{k}" for k in range(6)]
    pool_rng = np.random.default_rng(8)
    pool = [make_tg(pool_rng, n_users=6, n_items=5, vocab_size=6, n_events=40) for _ in range(3)]

    def run():
        model = fg.FgatModel(fg.FgatConfig(dim=8, n_layers=1), vocab, np.random.default_rng(3))
        return fg.train_fgat(model, pool, epochs=6, rng=np.random.default_rng(4))

    assert run() == run()


def test_a_training_step_frees_the_last_steps_tape(rng, monkeypatch):
    """Each epoch's encoding, probabilities and loss are unreachable by the
    time the next epoch's forward starts. A `Tensor` takes no weak
    reference, so the test holds one to its array, which the tensor keeps
    alive."""
    vocab = [f"tok{k}" for k in range(6)]
    model = fg.FgatModel(fg.FgatConfig(dim=8, n_layers=2), vocab, np.random.default_rng(3))
    pool = [make_tg(rng, n_users=6, n_items=5, vocab_size=6, n_events=40) for _ in range(2)]
    tapes, checks = [], []
    bce_loss, encode = T.bce_loss, model.encode

    def recording_bce(probs, labels):
        loss = bce_loss(probs, labels)
        tapes.extend(weakref.ref(t.data) for t in (probs, loss))
        return loss

    def checked_encode(*args, **kwargs):
        checks.append(len(tapes))
        assert all(ref() is None for ref in tapes), "a previous step's tape is still alive"
        H = encode(*args, **kwargs)
        tapes.append(weakref.ref(H.data))
        return H

    monkeypatch.setattr(T, "bce_loss", recording_bce)
    monkeypatch.setattr(model, "encode", checked_encode)
    fg.train_fgat(model, pool, epochs=4, rng=np.random.default_rng(4))
    assert checks == [0, 3, 6, 9]


def _pairs_graph(pair_keys, n_users, n_items):
    static = tf.StaticGraph(pair_keys // n_items, pair_keys % n_items,
                            np.ones(len(pair_keys), dtype=np.int64), n_users, n_items)
    return tf.TransformedGraph(static, [np.array([0])] * n_users, [np.array([0])] * n_items, ["tok0"])


@pytest.mark.parametrize("present_share", [0.1, 0.95])
def test_sample_non_edges_matches_scalar_loop(present_share):
    """Same pairs, and the generator left in the same state, as one scalar
    draw per user and item with rejection; the dense graph forces many
    rejection rounds."""
    n_users, n_items = 12, 15
    keys = np.random.default_rng(9).permutation(n_users * n_items)
    tg = _pairs_graph(np.sort(keys[: int(present_share * n_users * n_items)]), n_users, n_items)
    for n in (0, 1, 9, 40):
        fast_rng, loop_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = fg._sample_non_edges(tg, n, fast_rng)
        expect = sample_non_edges_loop(tg, n, loop_rng)
        assert got[0].tobytes() == expect[0].tobytes()
        assert got[1].tobytes() == expect[1].tobytes()
        assert fast_rng.random() == loop_rng.random()
    present = set((tg.static.pair_users * n_items + tg.static.pair_items).tolist())
    assert not present & set((got[0] * n_items + got[1]).tolist())


def test_sample_non_edges_ends_on_one_non_edge():
    """A graph one pair short of complete: every sample is that pair, drawn
    with at most two random numbers each (rejection sampling would need
    about 72 candidates per sample here)."""
    n_users, n_items = 8, 9
    missing = 40
    keys = np.delete(np.arange(n_users * n_items), missing)
    tg = _pairs_graph(keys, n_users, n_items)

    class CountingRng:
        def __init__(self):
            self.rng, self.draws = np.random.default_rng(0), 0

        def integers(self, *args, **kwargs):
            out = self.rng.integers(*args, **kwargs)
            self.draws += np.size(out)
            return out

    rng = CountingRng()
    users, items = fg._sample_non_edges(tg, 50, rng)
    assert users.tolist() == [missing // n_items] * 50
    assert items.tolist() == [missing % n_items] * 50
    assert rng.draws <= 2 * 50


def test_sample_non_edges_rejects_complete_graph():
    tg = _pairs_graph(np.arange(6), 2, 3)
    with pytest.raises(ValueError, match="no non-edges"):
        fg._sample_non_edges(tg, 1, np.random.default_rng(0))


def test_train_fgat_rejects_bad_pools(rng):
    vocab = ["tok0", "tok1", "tok2", "tok3"]
    model = fg.FgatModel(fg.FgatConfig(dim=8), vocab, rng)
    with pytest.raises(ValueError):
        fg.train_fgat(model, [], 5, rng)
    target = make_tg(rng)
    with pytest.raises(ValueError, match="forbidden"):
        fg.train_fgat(model, [target], 5, rng, forbidden=[target])
    tiny = tf.TransformedGraph(
        tf.StaticGraph([0], [0], [4], 1, 1),
        [np.array([0])], [np.array([1])], vocab,
    )
    with pytest.raises(ValueError, match="fewer than 2"):
        fg.train_fgat(model, [tiny], 5, rng)
    with pytest.raises(ValueError, match="epochs must be an integer >= 0, got -1"):
        fg.train_fgat(model, [target], -1, rng)


def test_load_fgat_rejects_weights_for_the_last_phase_4(tmp_path, model):
    """A checkpoint that holds weights for the last layer's phase 4, which
    the schedule does not run, fails to load and names them."""
    path = tmp_path / "fgat.ckpt"
    fg.save_fgat(model, path)
    meta, arrays = read_blob(path)
    last = {k.replace(".phase3.", ".phase4."): a for k, a in arrays.items() if k.startswith("layer2.phase3.")}
    write_blob(path, meta, {**arrays, **last})
    with pytest.raises(ValueError, match=r"missing=\[\] extra=\['layer2\.phase4\.mlp\.l0\.b', "):
        fg.load_fgat(path)


def test_fgat_checkpoint_roundtrip(tmp_path, rng, model):
    tg = make_tg(rng)
    path = tmp_path / "fgat.ckpt"
    fg.save_fgat(model, path)
    loaded = fg.load_fgat(path)
    assert loaded.feature_vocab == model.feature_vocab
    assert loaded.config == model.config
    a = model.encode_arrays(tg)
    b = loaded.encode_arrays(tg)
    assert a.tobytes() == b.tobytes()
