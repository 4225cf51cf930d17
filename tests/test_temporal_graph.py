import numpy as np
import pytest

from tgtransfer import temporal_graph as tg

from helpers import neighbors


def write_csv(path, rows, header="user_id,item_id,timestamp,user_feature_ids,item_feature_ids"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


@pytest.fixture
def small_csv(tmp_path):
    rows = [
        "alice,movie1,10,young|urban,action",
        "bob,movie1,5,old,action",
        "alice,movie2,20,young|urban,drama|long",
        "alice,movie1,20,,action",
    ]
    return write_csv(tmp_path / "events.csv", rows)


def test_load_counts_and_order(small_csv):
    g = tg.load_events(small_csv)
    assert g.num_users == 2 and g.num_items == 2 and g.num_events == 4
    assert list(g.times) == [5.0, 10.0, 20.0, 20.0]
    # stable sort keeps ingestion order for the two t=20 rows
    assert g.item_ids[g.items[2]] == "movie2"
    assert g.item_ids[g.items[3]] == "movie1"


def test_load_densifies_stably(small_csv):
    a = tg.load_events(small_csv)
    b = tg.load_events(small_csv)
    assert a.user_ids == b.user_ids and a.item_ids == b.item_ids
    assert a.feature_vocab == b.feature_vocab
    assert np.array_equal(a.users, b.users) and np.array_equal(a.times, b.times)


def test_load_feature_union(small_csv):
    g = tg.load_events(small_csv)
    alice = g.user_ids.index("alice")
    toks = {g.feature_vocab[f] for f in g.user_features[alice]}
    assert toks == {"young", "urban"}
    movie1 = g.item_ids.index("movie1")
    assert {g.feature_vocab[f] for f in g.item_features[movie1]} == {"action"}


def test_load_duplicate_rows_kept(tmp_path):
    rows = ["u,i,1,f,g", "u,i,1,f,g", "u,i,1,f,g"]
    g = tg.load_events(write_csv(tmp_path / "d.csv", rows))
    assert g.num_events == 3 and g.num_users == 1 and g.num_items == 1


def test_load_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(tg.IngestError):
        tg.load_events(empty)

    header_only = write_csv(tmp_path / "h.csv", [])
    with pytest.raises(tg.IngestError, match="no event rows"):
        tg.load_events(header_only)

    bad_ts = write_csv(tmp_path / "b.csv", ["u,i,notatime,f,g"])
    with pytest.raises(tg.IngestError, match=":2"):
        tg.load_events(bad_ts)

    neg_ts = write_csv(tmp_path / "n.csv", ["u,i,-4,f,g"])
    with pytest.raises(tg.IngestError):
        tg.load_events(neg_ts)

    missing_col = tmp_path / "m.csv"
    missing_col.write_text("user_id,item_id,timestamp\nu,i,1\n")
    with pytest.raises(tg.IngestError, match="missing columns"):
        tg.load_events(missing_col)

    # csv fills a row's missing trailing fields with None
    cut = write_csv(tmp_path / "c.csv", ["u1,i1,1.0,a,b", "u2"])
    with pytest.raises(tg.IngestError, match=r":3: malformed row: missing columns \['item_id', 'timestamp', "
                       r"'user_feature_ids', 'item_feature_ids'\]"):
        tg.load_events(cut)
    cut = write_csv(tmp_path / "c.csv", ["u1,i1,1.0,a,b", "u2,i2,2.0"])
    with pytest.raises(tg.IngestError, match=r":3: malformed row: missing columns \['user_feature_ids', "
                       r"'item_feature_ids'\]"):
        tg.load_events(cut)
    # a quoted field may span lines: errors name the line a row ends on
    multiline = write_csv(tmp_path / "ml.csv", ['u1,i1,1.0,"a\nb",g', "u2,i2,bad,f,g"])
    with pytest.raises(tg.IngestError, match=r"ml\.csv:4: malformed row"):
        tg.load_events(multiline)


def test_edge_features_parsed(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text(
        "user_id,item_id,timestamp,user_feature_ids,item_feature_ids,edge_features\n"
        "u,i,1,f,g,0.5|1.5\n"
        "u,j,2,f,h,2.0|3.0\n"
    )
    g = tg.load_events(path)
    assert g.edge_feature_dim == 2
    assert np.allclose(g.edge_features, [[0.5, 1.5], [2.0, 3.0]])

    path.write_text(
        "user_id,item_id,timestamp,user_feature_ids,item_feature_ids,edge_features\n"
        "u,i,1,f,g,0.5\n"
        "u,j,2,f,h,2.0|3.0\n"
    )
    with pytest.raises(tg.IngestError, match="arity"):
        tg.load_events(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_edge_features_rejected(tmp_path, bad):
    path = tmp_path / "e.csv"
    path.write_text(
        "user_id,item_id,timestamp,user_feature_ids,item_feature_ids,edge_features\n"
        "u,i,1,f,g,0.5|1.5\n"
        f"u,j,2,f,h,2.0|{bad}\n"
    )
    with pytest.raises(tg.IngestError, match=r"e\.csv:3: .*non-finite edge feature"):
        tg.load_events(path)


def make_graph(n_events=20, n_users=4, n_items=5, seed=0):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, n_users, n_events)
    items = rng.integers(0, n_items, n_events)
    times = np.sort(rng.uniform(0, 100, n_events))
    return tg.TemporalGraph(
        users,
        items,
        times,
        np.zeros((n_events, 0)),
        [f"u{k}" for k in range(n_users)],
        [f"i{k}" for k in range(n_items)],
        ["f0", "f1"],
        [np.array([0])] * n_users,
        [np.array([1])] * n_items,
    )


def test_split_sizes_and_concat():
    g = make_graph(10)
    tr, va, te = tg.chronological_split(g, (0.7, 0.15, 0.15))
    assert (tr.num_events, va.num_events, te.num_events) == (7, 1, 2)
    recon = np.concatenate([tr.times, va.times, te.times])
    assert np.array_equal(recon, g.times)

    g100 = make_graph(100)
    tr, va, te = tg.chronological_split(g100, (0.1, 0.45, 0.45))
    assert (tr.num_events, va.num_events, te.num_events) == (10, 45, 45)


def test_split_shares_vocab_and_validates():
    g = make_graph(10)
    tr, _, _ = tg.chronological_split(g, (0.7, 0.15, 0.15))
    assert tr.feature_vocab == g.feature_vocab
    assert tr.num_users == g.num_users
    with pytest.raises(ValueError):
        tg.chronological_split(g, (0.5, 0.5, 0.1))
    with pytest.raises(ValueError):
        tg.chronological_split(g.slice(0, 2), (0.7, 0.15, 0.15))


def test_split_all_equal_timestamps():
    g = make_graph(10)
    g2 = tg.TemporalGraph(
        g.users, g.items, np.zeros(10), g.edge_features,
        g.user_ids, g.item_ids, g.feature_vocab, g.user_features, g.item_features,
    )
    tr, va, te = tg.chronological_split(g2, (0.7, 0.15, 0.15))
    assert np.array_equal(np.concatenate([tr.users, va.users, te.users]), g2.users)


def test_batch_iter_shapes_and_order():
    g = make_graph(10)
    batches = list(tg.batch_iter(g, 3))
    assert [len(b.users) for b in batches] == [3, 3, 3, 1]
    assert np.array_equal(np.concatenate([b.users for b in batches]), g.users)
    assert np.array_equal(np.concatenate([b.ordinals for b in batches]), np.arange(10))
    singles = list(tg.batch_iter(g, 1))
    assert len(singles) == 10
    with pytest.raises(ValueError):
        list(tg.batch_iter(g, 0))


def test_neighbor_queries_strict_and_newest_first():
    # events (u0,a,1),(u0,b,2),(u0,c,3)
    g = tg.TemporalGraph(
        np.array([0, 0, 0]),
        np.array([0, 1, 2]),
        np.array([1.0, 2.0, 3.0]),
        np.zeros((3, 0)),
        ["u0"],
        ["a", "b", "c"],
        [],
        [np.array([], dtype=np.int64)],
        [np.array([], dtype=np.int64)] * 3,
    )
    idx = tg.NeighborIndex(g)
    ids, ts, _, count = idx.batch_neighbors(np.array([0, 0, 0]), np.array([3.0, 1.0, 99.0]), 3)
    # item globals are offset by num_users=1; rows follow each other, newest first
    assert list(ids[:2]) == [2, 1] and list(ts[:2]) == [2.0, 1.0]
    assert list(count) == [2, 0, 3]
    assert list(ids[2:]) == [3, 2, 1]


def test_neighbor_strictness_property():
    g = make_graph(60, seed=3)
    idx = tg.NeighborIndex(g)
    rng = np.random.default_rng(0)
    for _ in range(50):
        node = int(rng.integers(0, g.num_nodes))
        t = float(rng.uniform(0, 120))
        _, ts, _, count = idx.batch_neighbors(np.array([node]), np.array([t]), 8)
        assert len(ts) == count[0]
        assert all(x < t for x in ts)
        assert np.array_equal(ts, np.sort(ts)[::-1])


def test_neighbor_index_is_bidirectional():
    g = make_graph(30, seed=5)
    idx = tg.NeighborIndex(g)
    u, i, t = int(g.users[4]), int(g.items[4]), float(g.times[4])
    ids, _, _, count = idx.batch_neighbors(np.array([u, g.num_users + i]), np.full(2, t + 1e-9), 100)
    assert g.num_users + i in ids[: count[0]]
    assert u in ids[count[0] :]


def assert_batch_matches_rows(idx, nodes, ts, k):
    """`k` is one integer or one per query."""
    ids, times, ords, count = idx.batch_neighbors(nodes, ts, k)
    assert count.shape == (len(nodes),) and ids.shape == times.shape == ords.shape == (count.sum(),)
    assert (ids.dtype, times.dtype, ords.dtype, count.dtype) == (np.int64, np.float64, np.int64, np.int64)
    ends = np.cumsum(count)
    ks = np.broadcast_to(k, len(nodes))
    for row in range(len(nodes)):
        single_ids, single_ts, single_ords = neighbors(idx, int(nodes[row]), float(ts[row]), int(ks[row]))
        sel = slice(ends[row] - count[row], ends[row])
        assert np.array_equal(ids[sel], single_ids)
        assert np.array_equal(times[sel], single_ts)
        assert np.array_equal(ords[sel], single_ords)
    # the count-only query agrees with the rows' lengths
    assert np.array_equal(np.minimum(idx.history_lengths(nodes, ts), k), count)
    return count


def test_batch_neighbors_padding_and_mask():
    g = make_graph(40, seed=7)
    idx = tg.NeighborIndex(g)
    nodes = np.array([0, 1, g.num_users])
    ts = np.array([50.0, 0.0, 80.0])
    count = assert_batch_matches_rows(idx, nodes, ts, 6)
    assert count[1] == 0  # t=0 has no history

    # every node at every event time (neighbors must be strictly earlier),
    # just after it, and past the end; k from 0 to beyond any history
    nodes = np.repeat(np.arange(g.num_nodes), 3 * g.num_events)
    ts = np.tile(np.concatenate([g.times, g.times + 1e-9, g.times + 100.0]), g.num_nodes)
    for k in (0, 1, 3, 50):
        assert_batch_matches_rows(idx, nodes, ts, k)
    # one k per query, all four values within one batch
    mixed = np.resize(np.array([0, 1, 3, 50]), len(nodes))
    count = assert_batch_matches_rows(idx, nodes, ts, mixed)
    assert not count[mixed == 0].any() and count[mixed == 50].max() > 3
    assert assert_batch_matches_rows(idx, nodes[:0], ts[:0], 4).shape == (0,)


def test_batch_neighbors_tied_times_and_empty_history():
    # u0 meets items 0, 1, 2 all at t=2; u1 has no events at all
    g = tg.TemporalGraph(
        np.array([0, 0, 0, 2, 0]),
        np.array([0, 1, 2, 0, 1]),
        np.array([1.0, 2.0, 2.0, 2.0, 5.0]),
        np.zeros((5, 0)),
        ["u0", "u1", "u2"],
        ["a", "b", "c"],
        [],
        [np.array([], dtype=np.int64)] * 3,
        [np.array([], dtype=np.int64)] * 3,
    )
    idx = tg.NeighborIndex(g)
    nodes = np.repeat(np.arange(g.num_nodes), 6)
    ts = np.tile([0.0, 1.0, 2.0, 2.5, 5.0, 6.0], g.num_nodes)
    for k in (1, 2, 8):
        count = assert_batch_matches_rows(idx, nodes, ts, k)
        assert not count[nodes == 1].any()
    ids, times, ords, count = idx.batch_neighbors(np.array([0, 3]), np.array([2.5, 2.5]), 4)
    assert list(count) == [3, 2]
    assert list(ids[:3]) == [5, 4, 3] and list(ords[:3]) == [2, 1, 0]
    assert list(ids[3:]) == [2, 0] and list(times[3:]) == [2.0, 1.0]

    empty = tg.NeighborIndex(g.slice(0, 0))
    assert not assert_batch_matches_rows(empty, np.arange(6), np.full(6, 3.0), 2).any()


def test_bad_node_ids_raise_key_error():
    g = make_graph(20, seed=2)
    idx = tg.NeighborIndex(g)
    for bad in (-1, g.num_nodes):
        with pytest.raises(KeyError):
            g.node_features[bad]
        with pytest.raises(KeyError):
            idx.batch_neighbors(np.array([0, bad]), np.array([50.0, 50.0]), 3)
        with pytest.raises(KeyError):
            idx.history_lengths(np.array([0, bad]), np.array([50.0, 50.0]))
    with pytest.raises(KeyError):
        g.user_features[g.num_users]


def test_csr_rows_take_and_concat():
    rows = [np.array([4, 1]), np.array([], dtype=np.int64), np.array([7])]
    t = tg.Csr.of(rows)
    assert tg.Csr.of(t) is t
    assert list(t.offsets) == [0, 2, 2, 3] and list(t.lengths) == [2, 0, 1]
    assert [list(r) for r in t] == [[4, 1], [], [7]]
    assert list(t[0]) == [4, 1] and len(t) == 3
    assert list(t.segment_ids()) == [0, 0, 2]
    assert [list(r) for r in t.take([2, 0, 2, 1])] == [[7], [4, 1], [7], []]
    assert [list(r) for r in tg.Csr.concat([t, tg.Csr.of([[5]])])] == [[4, 1], [], [7], [5]]
    assert len(tg.Csr.of([])) == 0 and list(tg.Csr.of([])) == []
    with pytest.raises(ValueError):
        t.values[0] = 9
    for bad in (-1, 3):
        with pytest.raises(KeyError):
            t[bad]
        with pytest.raises(KeyError):
            t.take([0, bad])
    with pytest.raises(ValueError):
        tg.Csr([0, 3, 2], [1, 2])


def test_sample_negatives_avoids_positives_and_uniform():
    rng = np.random.default_rng(0)
    pos = np.array([0, 1, 0, 1])
    for _ in range(200):
        neg = tg.sample_negatives(pos, 2, rng)
        assert not np.any(neg == pos)
    with pytest.raises(ValueError):
        tg.sample_negatives(pos, 1, rng)

    # chi-square against uniform over the non-positive items
    draws = 100_000
    pos = np.zeros(draws, dtype=np.int64)
    neg = tg.sample_negatives(pos, 11, np.random.default_rng(1))
    counts = np.bincount(neg, minlength=11)
    assert counts[0] == 0
    expect = draws / 10
    chi2 = float(((counts[1:] - expect) ** 2 / expect).sum())
    # 9 dof: mean 9, sd sqrt(18); 3 sigma above is ~21.7
    assert chi2 < 9 + 3 * np.sqrt(18)


def test_sample_negatives_deterministic():
    pos = np.arange(50) % 7
    a = tg.sample_negatives(pos, 9, np.random.default_rng(42))
    b = tg.sample_negatives(pos, 9, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_global_node_convention():
    g = make_graph(10)
    assert g.num_nodes == g.num_users + g.num_items
    assert np.array_equal(g.node_features[0], [0])
    assert np.array_equal(g.node_features[g.num_users], [1])
