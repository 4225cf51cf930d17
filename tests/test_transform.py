import numpy as np
import pytest

from tgtransfer import fgat as fg
from tgtransfer import transform as tf
from tgtransfer.temporal_graph import TemporalGraph


def make_temporal(users, items, num_users, num_items, user_feats=None, item_feats=None, vocab=None):
    n = len(users)
    return TemporalGraph(
        np.asarray(users),
        np.asarray(items),
        np.arange(n, dtype=np.float64),
        np.zeros((n, 0)),
        [f"u{k}" for k in range(num_users)],
        [f"i{k}" for k in range(num_items)],
        vocab if vocab is not None else [],
        user_feats if user_feats is not None else [np.array([], dtype=np.int64)] * num_users,
        item_feats if item_feats is not None else [np.array([], dtype=np.int64)] * num_items,
    )


def weighted_neighbors(tg, node):
    """(graph ids, graph weights, feature ids, feature weights) of `node`,
    read off the `fgat.phase_plan` tables that aggregate it: phases 2 and 3
    hold the interaction fractions, phase 1 a graph node's feature nodes and
    phase 4 a feature node's graph nodes."""
    p1, p2, p3, p4 = fg.phase_plan(tg, 2)

    def into(table):
        sel = table.edge_tgt == node
        return table.edge_src[sel], table.edge_a[sel]

    if node < tg.num_graph_nodes:
        return (*into(p2 if node < tg.num_users else p3), *into(p1))
    return (*into(p4), np.zeros(0, dtype=np.int64), np.zeros(0))


def edge_arrays(tg):
    """Every phase table's (edge_tgt, edge_src, edge_a), in schedule order."""
    return [arr for table in fg.phase_plan(tg, 2) for arr in (table.edge_tgt, table.edge_src, table.edge_a)]


def test_static_frequency_weights():
    # u0 hits item0 three times and item1 twice
    g = make_temporal([0, 0, 0, 0, 0], [0, 0, 0, 1, 1], 1, 2)
    ids, w, _, _ = weighted_neighbors(tf.transform_graph(g), 0)
    assert list(ids) == [1, 2]  # item globals offset by num_users=1
    assert np.allclose(w, [0.6, 0.4])


def test_static_single_interactor_gets_weight_one():
    g = make_temporal([0, 1], [0, 1], 2, 2)
    ids, w, _, _ = weighted_neighbors(tf.transform_graph(g), 2)  # item0, only u0 interacted
    assert list(ids) == [0] and np.allclose(w, [1.0])


def test_static_weights_sum_to_one_random_graph():
    rng = np.random.default_rng(11)
    n_users, n_items, n_events = 12, 9, 500
    users = rng.integers(0, n_users, n_events)
    items = rng.integers(0, n_items, n_events)
    tg = tf.transform_graph(make_temporal(users, items, n_users, n_items))

    # oracle: recount the interaction multiset directly
    for node in range(n_users + n_items):
        ids, w, _, _ = weighted_neighbors(tg, node)
        if node < n_users:
            mask = users == node
            partners = items[mask] + n_users
        else:
            mask = items == (node - n_users)
            partners = users[mask]
        if not mask.any():
            assert len(ids) == 0
            continue
        assert abs(w.sum() - 1.0) < 1e-9
        expect = {}
        for p in partners:
            expect[p] = expect.get(p, 0) + 1
        total = mask.sum()
        got = dict(zip(ids.tolist(), w.tolist()))
        assert set(got) == set(expect)
        for p, c in expect.items():
            assert abs(got[p] - c / total) < 1e-12


def test_static_asymmetric_weights():
    # u0: 1 of 2 interactions with item0; item0: its only interaction is u0
    tg = tf.transform_graph(make_temporal([0, 0], [0, 1], 1, 2))
    _, w_u, _, _ = weighted_neighbors(tg, 0)
    ids_i, w_i, _, _ = weighted_neighbors(tg, 1)
    assert np.allclose(sorted(w_u), [0.5, 0.5])
    assert list(ids_i) == [0] and w_i[0] == 1.0


def test_transformed_node_counts_and_partitions():
    vocab = ["a", "b", "c"]
    g = make_temporal(
        [0, 1], [0, 1], 2, 2,
        user_feats=[np.array([0]), np.array([1])],
        item_feats=[np.array([2]), np.array([], dtype=np.int64)],
        vocab=vocab,
    )
    tg = tf.transform_graph(g)
    assert tg.num_nodes == 7  # 2 users + 2 items + 3 features
    assert (tg.num_users, tg.num_graph_nodes) == (2, 4)
    assert [list(weighted_neighbors(tg, tg.num_graph_nodes + f)[0]) for f in range(3)] == [[0], [1], [2]]


def test_feature_edges_exact():
    vocab = ["f1", "f2"]
    g = make_temporal(
        [0], [0], 1, 1,
        user_feats=[np.array([0])],
        item_feats=[np.array([0, 1])],
        vocab=vocab,
    )
    tg = tf.transform_graph(g)
    pairs = set(zip(tg.feat_edge_node.tolist(), tg.feat_edge_feat.tolist()))
    assert pairs == {(0, 0), (1, 0), (1, 1)}


def test_neighborhoods_graph_node():
    vocab = ["f1", "f2"]
    g = make_temporal(
        [0, 0, 0], [0, 0, 1], 1, 2,
        user_feats=[np.array([0, 1])],
        item_feats=[np.array([], dtype=np.int64)] * 2,
        vocab=vocab,
    )
    tg = tf.transform_graph(g)
    graph_ids, graph_weights, feature_ids, feature_weights = weighted_neighbors(tg, 0)
    got = dict(zip(graph_ids.tolist(), graph_weights.tolist()))
    assert got == {1: pytest.approx(2 / 3), 2: pytest.approx(1 / 3)}
    assert list(feature_ids) == [tg.num_graph_nodes, tg.num_graph_nodes + 1]
    assert np.allclose(feature_weights, 0.5)


def test_neighborhoods_feature_node_and_roundtrip():
    rng = np.random.default_rng(3)
    n_users, n_items, vocab = 6, 5, [f"f{k}" for k in range(4)]
    user_feats = [np.sort(rng.choice(4, size=rng.integers(0, 3), replace=False)) for _ in range(n_users)]
    item_feats = [np.sort(rng.choice(4, size=rng.integers(1, 3), replace=False)) for _ in range(n_items)]
    g = make_temporal(
        rng.integers(0, n_users, 40), rng.integers(0, n_items, 40),
        n_users, n_items, user_feats, item_feats, vocab,
    )
    tg = tf.transform_graph(g)
    # oracle: brute-force scan of the edge list in both directions
    for f in range(4):
        graph_ids, graph_weights, feature_ids, _ = weighted_neighbors(tg, tg.num_graph_nodes + f)
        expect = {n for n, ff in zip(tg.feat_edge_node, tg.feat_edge_feat) if ff == f}
        assert set(graph_ids.tolist()) == expect
        if expect:
            assert abs(graph_weights.sum() - 1.0) < 1e-12
        assert len(feature_ids) == 0
        for v in graph_ids:
            assert tg.num_graph_nodes + f in weighted_neighbors(tg, int(v))[2]


def test_bad_node_and_feature_ids_raise_key_error():
    g = make_temporal([0, 1, 1], [0, 0, 1], 2, 2,
                      [np.array([1, 0]), np.array([], dtype=np.int64)], [np.array([1])] * 2, ["a", "b"])
    tg = tf.transform_graph(g)
    assert list(tg.node_features[0]) == [0, 1]  # ascending, whatever the input order
    assert list(weighted_neighbors(tg, tg.num_graph_nodes + 1)[0]) == [0, 2, 3]
    for bad in (-1, tg.num_graph_nodes):
        with pytest.raises(KeyError):
            tg.node_features[bad]


def test_empty_feature_set_gives_no_feature_edges():
    g = make_temporal([0], [0], 1, 1, vocab=["x"])
    tg = tf.transform_graph(g)
    _, _, feature_ids, feature_weights = weighted_neighbors(tg, 0)
    assert len(feature_ids) == 0 and len(feature_weights) == 0


def test_transform_is_deterministic_and_timestamp_free():
    rng = np.random.default_rng(5)
    users = rng.integers(0, 4, 30)
    items = rng.integers(0, 3, 30)
    a = tf.transform_graph(make_temporal(users, items, 4, 3))
    b = tf.transform_graph(make_temporal(users, items, 4, 3))
    for x, y in zip(edge_arrays(a), edge_arrays(b)):
        assert np.array_equal(x, y)
    # shuffling event order leaves the transformation unchanged
    perm = rng.permutation(30)
    c = tf.transform_graph(make_temporal(users[perm], items[perm], 4, 3))
    for x, y in zip(edge_arrays(a), edge_arrays(c)):
        assert np.array_equal(x, y)
    # no timestamp survives anywhere in the structure
    assert not any("time" in attr for attr in vars(a))
    assert not any("time" in attr for attr in vars(a.static))


def test_static_graph_rejects_bad_pairs():
    with pytest.raises(ValueError):
        tf.StaticGraph([0], [0], [0], 1, 1)
    with pytest.raises(ValueError):
        tf.StaticGraph([0, 1], [0], [1], 2, 1)


def test_transformed_rejects_out_of_vocab_feature():
    static = tf.StaticGraph([0], [0], [1], 1, 1)
    with pytest.raises(ValueError):
        tf.build_transformed(static, [np.array([3])], [np.array([], dtype=np.int64)], ["only"])


def test_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    vocab = [f"f{k}" for k in range(5)]
    g = make_temporal(
        rng.integers(0, 5, 60), rng.integers(0, 4, 60), 5, 4,
        [np.sort(rng.choice(5, 2, replace=False)) for _ in range(5)],
        [np.sort(rng.choice(5, 1, replace=False)) for _ in range(4)],
        vocab,
    )
    tg = tf.transform_graph(g)
    path = tmp_path / "t.cache"
    tf.save_transformed(tg, path)
    tg2 = tf.load_transformed(path)
    assert tg2.num_nodes == tg.num_nodes
    for x, y in zip(edge_arrays(tg2), edge_arrays(tg)):
        assert np.array_equal(x, y)
    assert np.array_equal(tg2.feat_edge_node, tg.feat_edge_node)
    assert tg2.feature_vocab == tg.feature_vocab
