import json

import numpy as np
import pytest

import tgtransfer.eval_metrics as em
import tgtransfer.tgn as tgn
from tgtransfer import temporal_graph as tg

from helpers import auc_loop, predict_link, truth_rank_row

VOCAB = [f"tok{k}" for k in range(4)]


# -- brute-force oracles -----------------------------------------------------------


def ap_oracle(scores, labels):
    # full sort, ties by original index, textbook precision-at-positives sum
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for pos, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            total += hits / pos
    return total / sum(labels)


def auc_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def rank_oracle(scores, item_ids, truth_id):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], item_ids[i]))
    for pos, idx in enumerate(order, start=1):
        if item_ids[idx] == truth_id:
            return pos
    raise AssertionError("truth missing")


# -- scalar metrics ------------------------------------------------------------------


def test_ap_known_values():
    assert em.average_precision([0.9, 0.1], [1, 0]) == 1.0
    assert em.average_precision([0.1, 0.9], [1, 0]) == 0.5
    assert em.average_precision([0.3, 0.5, 0.9], [1, 1, 1]) == 1.0
    with pytest.raises(ValueError):
        em.average_precision([0.5], [0])


def test_ap_matches_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=n)  # force ties
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            labels[0] = 1
        got = em.average_precision(scores, labels)
        assert abs(got - ap_oracle(scores.tolist(), labels.tolist())) < 1e-12


def test_auc_known_values():
    assert em.auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    assert em.auc([0.4, 0.4, 0.4], [1, 0, 1]) == 0.5
    assert em.auc([0.1, 0.9], [1, 0]) == 0.0
    with pytest.raises(ValueError):
        em.auc([0.5, 0.6], [1, 1])


@pytest.mark.parametrize("ties", ["many", "all", "none"])
def test_auc_bytes_match_tie_group_loop(ties):
    rng = np.random.default_rng(21)
    n = 500
    scores = {
        "many": rng.integers(0, 12, n) / 11.0 * rng.choice([-1.0, 1.0], n),  # -0.0 ties 0.0
        "all": np.full(n, 0.25),
        "none": rng.permutation(n) / n,
    }[ties]
    for share in (0.02, 0.4, 0.97):
        labels = rng.random(n) < share
        labels[:2] = [True, False]
        assert np.float64(em.auc(scores, labels)).tobytes() == np.float64(auc_loop(scores, labels)).tobytes()


def test_auc_matches_bruteforce_exactly():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(4, 200))
        scores = rng.choice(np.linspace(0, 1, 7), size=n)
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[0] = 0
        assert em.auc(scores, labels) == auc_oracle(scores.tolist(), labels.tolist())


def test_truth_rank_tie_by_item_id():
    scores = np.array([0.5, 0.9, 0.5, 0.2])
    ids = np.array([3, 7, 11, 20])
    # item 11 ties with item 3; 3 has the smaller id so it ranks ahead
    assert em.truth_rank(scores, ids, 11) == 3
    assert em.truth_rank(scores, ids, 3) == 2
    assert em.truth_rank(scores, ids, 7) == 1
    with pytest.raises(ValueError):
        em.truth_rank(scores, ids, 99)


def test_rank_matches_full_sort_oracle():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        ids = rng.permutation(100)[:n]
        scores = rng.choice([0.2, 0.5, 0.8], size=n)
        truth = int(ids[rng.integers(n)])
        assert em.truth_rank(scores, ids, truth) == rank_oracle(scores, ids, truth)


@pytest.mark.parametrize("ties", ["many", "all", "none"])
def test_truth_rank_of_a_chunk_matches_row_by_row(ties):
    rng = np.random.default_rng(5)
    b, n = 30, 40
    ids = rng.permutation(100)[:n]
    scores = {"many": rng.choice([0.2, 0.5, 0.8], size=(b, n)), "all": np.full((b, n), 0.5),
              "none": rng.uniform(size=(b, n))}[ties]
    truths = ids[rng.integers(0, n, b)]
    expect = [truth_rank_row(row, ids, int(t)) for row, t in zip(scores, truths)]
    assert em.truth_rank(scores, ids, truths).tolist() == expect
    with pytest.raises(ValueError):
        em.truth_rank(scores, ids, np.where(np.arange(b) == 3, 101, truths))


def test_mrr_and_recall_formulas():
    assert em.mrr([1, 4]) == pytest.approx(0.625)
    assert em.mrr([1, 1, 1]) == 1.0
    assert em.recall_at_k([3, 25], 20) == 0.5
    assert em.recall_at_k([5, 2], 10) == 1.0
    with pytest.raises(ValueError):
        em.mrr([])
    with pytest.raises(ValueError):
        em.recall_at_k([], 5)


def test_recall_monotone_in_k():
    rng = np.random.default_rng(3)
    ranks = rng.integers(1, 50, size=100)
    values = [em.recall_at_k(ranks, k) for k in range(1, 50)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_metrics_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    scores = rng.uniform(size=60)
    labels = rng.integers(0, 2, 60)
    labels[0], labels[1] = 1, 0
    ids = np.arange(30)
    cat = rng.uniform(size=30)

    def squash(x):
        return 1.0 / (1.0 + np.exp(-(3.0 * x + 1.0)))

    assert em.average_precision(scores, labels) == pytest.approx(
        em.average_precision(squash(scores), labels), abs=1e-12
    )
    assert em.auc(scores, labels) == pytest.approx(em.auc(squash(scores), labels), abs=1e-12)
    assert em.truth_rank(cat, ids, 7) == em.truth_rank(squash(cat), ids, 7)


def test_summarize_std_floor():
    mean, std = em.summarize([0.5, 0.5004])
    assert std == 0.0
    mean, std = em.summarize([0.2, 0.8])
    assert std > 0.0 and mean == 0.5


# -- report shape ---------------------------------------------------------------------


def test_report_serialization_and_bounds():
    r = em.MetricsReport("nt", 3, 100, 20, 0.5, 0.6, 0.25, 0.75)
    d = json.loads(json.dumps(r.to_dict()))
    assert d["variant"] == "nt" and d["recall_at_k"] == 0.75
    with pytest.raises(ValueError):
        em.MetricsReport("nt", 0, 1, 20, 1.5, 0.5, 0.5, 0.5)


# -- protocol -----------------------------------------------------------------------


def make_graph(n_users=6, n_items=5, n_events=60, seed=0):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, n_users, n_events)
    items = rng.integers(0, n_items, n_events)
    times = np.sort(rng.uniform(1, 300, n_events))
    return tg.TemporalGraph(
        users, items, times, np.zeros((n_events, 0)),
        [f"u{k}" for k in range(n_users)], [f"i{k}" for k in range(n_items)],
        VOCAB,
        [np.sort(rng.choice(4, 2, replace=False)) for _ in range(n_users)],
        [np.sort(rng.choice(4, 1, replace=False)) for _ in range(n_items)],
    )


def small_model(seed=0):
    cfg = tgn.TgnConfig(d_mem=8, d_time=4, d_feat=8, n_layers=1, n_heads=2, k_neighbors=4, batch_size=10)
    return tgn.TgnModel(cfg, VOCAB, 0, np.random.default_rng(seed))


def test_evaluate_report_shape_and_determinism():
    g = make_graph()
    model = small_model()
    ctx = model.bind_graph(g)
    state = tgn.MemoryState.zeros(g.num_nodes, 8)
    rep1, end1 = em.evaluate(model, ctx, g, state, np.random.default_rng(5), variant="nt", seed=7)
    rep2, end2 = em.evaluate(model, ctx, g, state, np.random.default_rng(5), variant="nt", seed=7)
    assert rep1 == rep2
    assert end1.memory.tobytes() == end2.memory.tobytes()
    assert rep1.n_test_events == g.num_events
    assert rep1.variant == "nt" and rep1.seed == 7
    # the caller's state is untouched
    assert np.array_equal(state.memory, np.zeros_like(state.memory))


def test_evaluate_streams_the_split_into_memory():
    g = make_graph(seed=2)
    model = small_model(1)
    ctx = model.bind_graph(g)
    state = tgn.MemoryState.zeros(g.num_nodes, 8)
    _, end_stream = em.evaluate(model, ctx, g, state, np.random.default_rng(0))
    assert not np.allclose(end_stream.memory, 0.0)
    assert np.array_equal(state.memory, np.zeros_like(state.memory))
    assert end_stream.last_update.max() == g.times[-1]


def test_evaluate_pair_scores_same_with_and_without_ranking(monkeypatch):
    # a ranked run reads its pair scores off the catalog, which it scores
    # through score_pairs; they must be the bytes score_pairs gives on the
    # pairs alone, and the negatives the same draws
    g = make_graph(n_events=60, seed=3)
    model = small_model(2)
    ctx = model.bind_graph(g)
    state = tgn.MemoryState(np.random.default_rng(4).normal(size=(g.num_nodes, 8)), np.zeros(g.num_nodes))
    split = g.slice(30, 51)  # chunks of 10, 10 and one event
    scored, score_pairs = [], model.score_pairs

    def counting_score_pairs(*args, **kwargs):
        scored.append(args)
        return score_pairs(*args, **kwargs)

    model.score_pairs = counting_score_pairs
    runs, reports = [], {}
    for rank in (True, False):
        rng = np.random.default_rng(6)
        rep, end = em.evaluate(model, ctx, split, state, rng, chunk=10, rank_metrics=rank)
        runs.append((rep.ap, rep.auc, end.memory.tobytes(), rng.random()))
        reports[rank] = rep
        assert len(scored) == 3  # one call per chunk in either mode
        scored.clear()
    assert runs[0] == runs[1]
    # a budget of 13 pairs splits a chunk of 10 rows into groups of 2 rows
    # over the 5-item catalog (5 calls) and of 5 rows over its 2 candidates
    # (2 calls); the last chunk's one row is one call either way
    monkeypatch.setattr(em, "PAIR_BUDGET", 13)
    for rank, calls in ((True, 5 + 5 + 1), (False, 2 + 2 + 1)):
        rng = np.random.default_rng(6)
        rep, end = em.evaluate(model, ctx, split, state, rng, chunk=10, rank_metrics=rank)
        assert (rep.ap, rep.auc, end.memory.tobytes(), rng.random()) == runs[0]
        assert rep == reports[rank]  # MRR and Recall@20 too
        assert len(scored) == calls
        scored.clear()


def test_evaluate_rejects_bad_inputs():
    g = make_graph()
    model = small_model()
    ctx = model.bind_graph(g)
    state = tgn.MemoryState.zeros(g.num_nodes, 8)
    with pytest.raises(ValueError):
        em.evaluate(model, ctx, g.slice(0, 0), state, np.random.default_rng(0))
    # memory holds one d_mem row per graph node (11 nodes, d_mem 8)
    for rows, cols in [(1, 8), (16, 8), (11, 16)]:
        for rank in (True, False):
            with pytest.raises(ValueError, match=rf"memory of shape \({rows}, {cols}\) where the graph needs \(11, 8\)"):
                em.evaluate(model, ctx, g, tgn.MemoryState.zeros(rows, cols), np.random.default_rng(0),
                            rank_metrics=rank)


def test_random_model_auc_near_half():
    # untrained models on feature-free random data should hover around 0.5
    aucs = []
    for seed in range(5):
        g = make_graph(n_users=8, n_items=8, n_events=500, seed=seed + 10)
        model = small_model(seed)
        ctx = model.bind_graph(g)
        state = tgn.MemoryState.zeros(g.num_nodes, 8)
        rep, _ = em.evaluate(
            model, ctx, g, state, np.random.default_rng(seed), rank_metrics=False,
        )
        aucs.append(rep.auc)
    assert 0.4 < float(np.mean(aucs)) < 0.6


def test_catalog_ranks_match_direct_scoring():
    # the batched catalog scorer must agree with per-pair predict_link
    g = make_graph(n_events=30, seed=4)
    model = small_model(3)
    ctx = model.bind_graph(g)
    state = tgn.MemoryState.zeros(g.num_nodes, 8)
    state.memory[:] = np.random.default_rng(0).normal(size=state.memory.shape)
    rep, _ = em.evaluate(model, ctx, g.slice(10, 13), state, np.random.default_rng(1))
    # recompute the first event's rank by scoring each item separately
    u, truth, t = int(g.users[10]), int(g.items[10]), float(g.times[10])
    scores = np.array([
        predict_link(model, ctx, state, u, g.num_users + i, t) for i in range(g.num_items)
    ])
    expect = em.truth_rank(scores, np.arange(g.num_items), truth)
    got_scores_rank = None
    # evaluate internals: rerun the catalog path for the same memory
    from tgtransfer.numerics import tensor as T

    with T.no_grad():
        cat = em._candidate_scores(model, ctx, T.constant(state.memory), np.array([u]), np.array([t]),
                                   np.arange(g.num_items)[None])
    got_scores_rank = em.truth_rank(cat[0], np.arange(g.num_items), truth)
    assert got_scores_rank == expect
    assert np.allclose(cat[0], scores, atol=1e-12)


@pytest.mark.parametrize("n_layers", [1, 2])
def test_catalog_row_same_alone_and_in_a_chunk(n_layers):
    # items and users are embedded in one call, so a user's catalog row gets
    # the same bytes whether the user is ranked alone or inside a chunk, as
    # the last chunk of a split can hold a single user
    g = make_graph(n_events=60, seed=4)
    cfg = tgn.TgnConfig(d_mem=8, d_time=4, d_feat=8, n_layers=n_layers, n_heads=2, k_neighbors=4, batch_size=10)
    model = tgn.TgnModel(cfg, VOCAB, 0, np.random.default_rng(3))
    ctx = model.bind_graph(g)
    from tgtransfer.numerics import tensor as T

    mem = T.constant(np.random.default_rng(0).normal(size=(g.num_nodes, 8)))
    users, ts = g.users[30:37], g.times[30:37]
    catalog = np.broadcast_to(np.arange(g.num_items), (len(users), g.num_items))
    with T.no_grad():
        chunk = em._candidate_scores(model, ctx, mem, users, ts, catalog)
        for r in range(len(users)):
            alone = em._candidate_scores(model, ctx, mem, users[r : r + 1], ts[r : r + 1], catalog[r : r + 1])
            assert alone[0].tobytes() == chunk[r].tobytes()


@pytest.mark.parametrize("n_layers", [1, 2])
def test_catalog_row_groups_same_bytes_as_one_call(monkeypatch, n_layers):
    # a chunk larger than the pair budget is scored in near-equal groups of
    # whole user rows, one `score_pairs` call each; the rows keep the bytes
    # of one call on the whole chunk
    g = make_graph(n_events=60, seed=4)
    cfg = tgn.TgnConfig(d_mem=8, d_time=4, d_feat=8, n_layers=n_layers, n_heads=2, k_neighbors=4, batch_size=10)
    model = tgn.TgnModel(cfg, VOCAB, 0, np.random.default_rng(3))
    ctx = model.bind_graph(g)
    from tgtransfer.numerics import tensor as T

    mem = T.constant(np.random.default_rng(0).normal(size=(g.num_nodes, 8)))
    users, ts = g.users[30:37], g.times[30:37]
    catalog = np.broadcast_to(np.arange(g.num_items), (len(users), g.num_items))
    calls, score_pairs = [], model.score_pairs

    def counting_score_pairs(*args, **kwargs):
        calls.append(len(args[2]))
        return score_pairs(*args, **kwargs)

    monkeypatch.setattr(model, "score_pairs", counting_score_pairs)
    with T.no_grad():
        one = em._candidate_scores(model, ctx, mem, users, ts, catalog)
        assert calls == [7 * 5]
        # 12 pairs hold two 5-item rows: 7 rows in groups of 2, 2, 2 and 1
        monkeypatch.setattr(em, "PAIR_BUDGET", 12)
        grouped = em._candidate_scores(model, ctx, mem, users, ts, catalog)
    assert calls[1:] == [10, 10, 10, 5]
    assert grouped.tobytes() == one.tobytes()


@pytest.mark.parametrize("edge_dim", [0, 3])
@pytest.mark.parametrize("n_layers", [1, 2])
def test_catalog_row_same_alone_and_in_a_chunk_at_default_widths(n_layers, edge_dim):
    """As above at the default `TgnConfig` widths. A chunk scores all its
    (user, item) pairs in one decoder product, whose output layer has one
    column: a matrix-vector kernel would give a pair other bytes in a chunk
    than alone."""
    base = make_graph(n_users=8, n_items=12, n_events=120, seed=4)
    g = tg.TemporalGraph(base.users, base.items, base.times,
                         np.random.default_rng(1).normal(size=(base.num_events, edge_dim)),
                         base.user_ids, base.item_ids, base.feature_vocab, base.user_features, base.item_features)
    model = tgn.TgnModel(tgn.TgnConfig(n_layers=n_layers), VOCAB, edge_dim, np.random.default_rng(3))
    ctx = model.bind_graph(g)
    from tgtransfer.numerics import tensor as T

    mem = T.constant(np.random.default_rng(0).normal(size=(g.num_nodes, model.config.d_mem)))
    users, ts = g.users[60:70], g.times[60:70]
    catalog = np.broadcast_to(np.arange(g.num_items), (len(users), g.num_items))
    with T.no_grad():
        chunk = em._candidate_scores(model, ctx, mem, users, ts, catalog)
        for r in range(len(users)):
            alone = em._candidate_scores(model, ctx, mem, users[r : r + 1], ts[r : r + 1], catalog[r : r + 1])
            assert alone[0].tobytes() == chunk[r].tobytes()
