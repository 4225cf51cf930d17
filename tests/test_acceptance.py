"""Release gates, one test per numbered criterion.

The heavy criteria share session fixtures: `bed` trains five source models
and runs every transfer variant once (criteria 5-7), `recovery` trains
encoders at two signature strengths (criterion 4). Each gate asserts its own
wall-clock budget where one is stated, and the final test bounds the whole
file; timing starts at import so collection overhead is charged too.
"""

import time
from collections import Counter

import numpy as np
import pytest

import tgtransfer.fgat as fg
import tgtransfer.numerics as N
from tgtransfer import cli
from tgtransfer import eval_metrics as em
from tgtransfer import synthdata as sd
from tgtransfer import temporal_graph as tgraph
from tgtransfer import tgn
from tgtransfer import transfer as tr
from tgtransfer import transform as tf
from tgtransfer.temporal_graph import chronological_split
from tgtransfer.tgn import MemoryState

from helpers import assert_grads_match_fd

SUITE_START = time.monotonic()


def _rand_temporal_graph(rng, n_users, n_items, n_events, vocab_size=5, edge_dim=0):
    users = rng.integers(0, n_users, n_events)
    items = rng.integers(0, n_items, n_events)
    times = np.sort(rng.uniform(1.0, 500.0, n_events))
    feats = rng.normal(size=(n_events, edge_dim))
    return tgraph.TemporalGraph(
        users, items, times, feats,
        [f"u{k}" for k in range(n_users)],
        [f"i{k}" for k in range(n_items)],
        [f"tok{k}" for k in range(vocab_size)],
        [np.sort(rng.choice(vocab_size, 2, replace=False)) for _ in range(n_users)],
        [np.sort(rng.choice(vocab_size, 1, replace=False)) for _ in range(n_items)],
    )


def _rand_transformed(rng, n_users=3, n_items=2, vocab_size=3, n_events=12):
    pairs_u = rng.integers(0, n_users, n_events)
    pairs_i = rng.integers(0, n_items, n_events)
    key = pairs_u * n_items + pairs_i
    uniq, counts = np.unique(key, return_counts=True)
    static = tf.StaticGraph(uniq // n_items, uniq % n_items, counts, n_users, n_items)
    vocab = [f"tok{k}" for k in range(vocab_size)]
    user_feats = [
        np.sort(rng.choice(vocab_size, int(rng.integers(1, 3)), replace=False))
        for _ in range(n_users)
    ]
    item_feats = [
        np.sort(rng.choice(vocab_size, int(rng.integers(1, 3)), replace=False))
        for _ in range(n_items)
    ]
    return tf.TransformedGraph(static, user_feats, item_feats, vocab)


def _tiny_tgn(rng):
    cfg = tgn.TgnConfig(
        d_mem=int(rng.choice([4, 8])), d_time=int(rng.choice([2, 4])), d_feat=4,
        n_layers=1, n_heads=int(rng.choice([1, 2])),
        k_neighbors=int(rng.integers(2, 5)), batch_size=10, lr=0.01,
    )
    g = _rand_temporal_graph(
        rng, 4, 3, int(rng.integers(8, 16)), edge_dim=int(rng.choice([0, 2]))
    )
    model = tgn.TgnModel(cfg, g.feature_vocab, g.edge_feature_dim, rng)
    ctx = model.bind_graph(g)
    mem = N.parameter(rng.normal(size=(g.num_nodes, cfg.d_mem)))
    # query actual event endpoints so every row has a temporal neighborhood
    nodes = np.array([g.users[0], g.num_users + g.items[0], g.users[-1]])
    ts = np.full(3, float(g.times[-1]) + float(rng.uniform(1.0, 40.0)))
    return cfg, g, model, ctx, mem, nodes, ts


def _check_gru_cells(rng, n):
    for _ in range(n):
        d_in, d_out = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        batch = int(rng.integers(1, 4))
        pset = N.ParameterSet()
        cell = N.GruCell("gru", d_in, d_out)
        cell.init_params(pset, rng)
        x = N.parameter(rng.normal(size=(batch, d_in)))
        h = N.parameter(rng.normal(size=(batch, d_out)))
        w = rng.normal(size=(batch, d_out))

        def loss():
            return N.tensor_mean(cell(pset, x, h) * N.constant(w))

        assert_grads_match_fd(loss, [x, h] + pset.tensors(), rng, n_coords=2, h=1e-6)


def _check_g_theta_blocks(rng, n):
    for k in range(n):
        d = int(rng.integers(2, 6))
        model = fg.FgatModel(fg.FgatConfig(dim=d, n_layers=2), ["a", "b"], rng)
        count = int(rng.integers(1, 5))
        n_nodes = count + int(rng.integers(1, 5))
        n_edges = int(rng.integers(1, 9))
        table = fg._sorted_table(
            0, count,
            rng.integers(0, count, n_edges),
            rng.integers(0, n_nodes, n_edges),
            rng.uniform(0.1, 1.0, n_edges),
            d,
        )
        phase = 1 + k % 4
        prefix = f"layer1.phase{phase}"
        H = N.parameter(rng.normal(size=(n_nodes, d)))
        w = rng.normal(size=(n_nodes, d))

        def loss():
            out, _ = fg.phase_update(H, model._phase_params(1, phase, True), table, model.config.slope)
            return N.tensor_mean(out * N.constant(w))

        checked = [H] + [model.pset[f"{prefix}.w{j}"] for j in range(1, 7)]
        checked.append(model.pset[f"{prefix}.mlp.l0.w"])
        assert_grads_match_fd(loss, checked, rng, n_coords=2, h=1e-6)


def _check_fgat_layers(rng, n):
    for _ in range(n):
        d = int(rng.integers(3, 5))
        model = fg.FgatModel(
            fg.FgatConfig(dim=d, n_layers=2), [f"tok{k}" for k in range(3)], rng
        )
        tg2 = _rand_transformed(rng)
        w = rng.normal(size=(tg2.num_nodes, d))

        def loss():
            return N.tensor_mean(model.encode(tg2) * N.constant(w))

        names = [nm for nm in model.pset.names() if nm != "feat.table"]
        picks = rng.choice(len(names), 3, replace=False)
        checked = [model.pset["feat.table"]] + [model.pset[names[j]] for j in picks]
        assert_grads_match_fd(loss, checked, rng, n_coords=2, h=1e-6)


def _check_tgn_attention(rng, n):
    for _ in range(n):
        cfg, g, model, ctx, mem, nodes, ts = _tiny_tgn(rng)
        w = rng.normal(size=(len(nodes), cfg.d_mem))

        def loss():
            return N.tensor_mean(model.embed(ctx, mem, nodes, ts) * N.constant(w))

        checked = [mem] + [
            model.pset[nm]
            for nm in ("att1.q.w", "att1.k.w", "att1.v.w", "att1.o.w",
                       "combine1.l0.w", "time.freq", "feat.table")
        ]
        assert_grads_match_fd(loss, checked, rng, n_coords=2, h=1e-6)


def _check_pair_decoders(rng, n):
    for _ in range(n):
        cfg, g, model, ctx, mem, nodes, ts = _tiny_tgn(rng)
        users = np.array([g.users[0], g.users[-1]])
        items = g.num_users + np.array([g.items[0], g.items[-1]])
        qts = np.full(2, float(g.times[-1]) + 5.0)

        def loss():
            return N.tensor_mean(model.score_pairs(ctx, mem, users, items, qts))

        checked = [model.pset[nm] for nm in ("dec.l0.w", "dec.l0.b", "dec.l1.w", "dec.l1.b")]
        assert_grads_match_fd(loss, checked, rng, n_coords=2, h=1e-6)


def _check_link_decoders(rng, n):
    for _ in range(n):
        d, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        hu = N.parameter(rng.normal(size=(m, d)))
        hv = N.parameter(rng.normal(size=(m, d)))
        labels = (rng.random(m) < 0.5).astype(float)

        def loss():
            return N.bce_loss(N.sigmoid(N.tensor_sum(hu * hv, axis=1)), labels)

        assert_grads_match_fd(loss, [hu, hv], rng, n_coords=2, h=1e-6)


def test_criterion_1_gradient_fidelity():
    """Autodiff matches central differences within 1e-4 relative error on
    100+ random instances per differentiable block, in under a minute."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    _check_gru_cells(rng, 100)
    _check_g_theta_blocks(rng, 100)
    _check_fgat_layers(rng, 100)
    _check_tgn_attention(rng, 100)
    _check_pair_decoders(rng, 100)
    _check_link_decoders(rng, 100)
    assert time.monotonic() - t0 < 60.0


def _brute_ap(scores, labels):
    order = sorted(range(len(scores)), key=lambda k: (-scores[k], k))
    hits, total = 0, 0.0
    for pos, k in enumerate(order, start=1):
        if labels[k]:
            hits += 1
            total += hits / pos
    return total / hits


def _brute_auc(scores, labels):
    pos = scores[labels == 1.0][:, None]
    neg = scores[labels == 0.0][None, :]
    wins = float((pos > neg).sum()) + 0.5 * float((pos == neg).sum())
    return wins / (pos.size * neg.size)


def _brute_rank(scores, ids, truth):
    s = scores[int(np.nonzero(ids == truth)[0][0])]
    rank = 1
    for sc, i in zip(scores, ids):
        if sc > s or (sc == s and i < truth):
            rank += 1
    return rank


def test_criterion_2_metric_oracles():
    """AP/AUC/MRR/Recall@20 agree with full-sort / all-pairs brute force
    within 1e-9 on 200 random instances of up to 2000 samples each."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2002)
    for _ in range(200):
        n = int(rng.integers(2, 2001))
        scores = rng.normal(size=n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force heavy ties
        labels = (rng.random(n) < rng.uniform(0.05, 0.9)).astype(float)
        labels[int(rng.integers(0, n))] = 1.0
        if labels.min() == 1.0:
            labels[int(rng.integers(0, n))] = 0.0
        assert abs(em.average_precision(scores, labels) - _brute_ap(scores, labels)) < 1e-9
        assert abs(em.auc(scores, labels) - _brute_auc(scores, labels)) < 1e-9

        m = int(rng.integers(2, 2001))
        ids = rng.choice(4 * m, size=m, replace=False)
        cat_scores = np.round(rng.normal(size=m), 1)
        truth = int(ids[int(rng.integers(0, m))])
        assert em.truth_rank(cat_scores, ids, truth) == _brute_rank(cat_scores, ids, truth)

        ranks = rng.integers(1, 300, size=int(rng.integers(1, 50)))
        assert abs(em.mrr(ranks) - sum(1.0 / r for r in ranks) / len(ranks)) < 1e-9
        brute_recall = sum(1 for r in ranks if r <= 20) / len(ranks)
        assert abs(em.recall_at_k(ranks, 20) - brute_recall) < 1e-9
    assert time.monotonic() - t0 < 60.0


def test_criterion_3_transformation_correctness():
    """On 50 random graphs the encoder's interaction weights are fractions
    summing to 1 per active node, node and attachment sets match a
    brute-force construction, and the output carries no timestamps."""
    rng = np.random.default_rng(3003)
    for _ in range(50):
        n_users = int(rng.integers(2, 12))
        n_items = int(rng.integers(2, 10))
        n_events = int(rng.integers(5, 120))
        vocab_size = int(rng.integers(3, 8))
        users = rng.integers(0, n_users, n_events)
        items = rng.integers(0, n_items, n_events)
        times = np.sort(rng.uniform(1e6, 2e6, n_events))
        vocab = [f"tok{k}" for k in range(vocab_size)]
        user_feats = [
            np.sort(rng.choice(vocab_size, int(rng.integers(0, 4)), replace=False))
            for _ in range(n_users)
        ]
        item_feats = [
            np.sort(rng.choice(vocab_size, int(rng.integers(0, 4)), replace=False))
            for _ in range(n_items)
        ]

        def build(ts):
            g = tgraph.TemporalGraph(
                users, items, ts, np.zeros((n_events, 0)),
                [f"u{k}" for k in range(n_users)], [f"i{k}" for k in range(n_items)],
                vocab, user_feats, item_feats,
            )
            return tf.transform_graph(g)

        tg2 = build(times)
        s = tg2.static

        pair_count = Counter(zip(users.tolist(), items.tolist()))
        got_pairs = dict(
            zip(zip(s.pair_users.tolist(), s.pair_items.tolist()), s.pair_counts.tolist())
        )
        assert got_pairs == dict(pair_count)

        totals = Counter()
        for (u, i), c in pair_count.items():
            totals[u] += c
            totals[n_users + i] += c
        expect_edges = {}
        for (u, i), c in pair_count.items():
            expect_edges[(u, n_users + i)] = c / totals[u]
            expect_edges[(n_users + i, u)] = c / totals[n_users + i]
        # the interaction fractions, as phases 2 and 3 of the encoder read them
        plan = fg.phase_plan(tg2, 4)
        edge_tgt, edge_src, edge_a = (
            np.concatenate([getattr(t, name) for t in plan[1:3]])
            for name in ("edge_tgt", "edge_src", "edge_a")
        )
        got_edges = dict(zip(zip(edge_tgt.tolist(), edge_src.tolist()), edge_a.tolist()))
        assert set(got_edges) == set(expect_edges)
        assert all(abs(got_edges[k] - expect_edges[k]) < 1e-9 for k in expect_edges)

        sums = np.zeros(s.num_nodes)
        np.add.at(sums, edge_tgt, edge_a)
        active = np.array([totals[k] > 0 for k in range(s.num_nodes)])
        assert np.all(np.abs(sums[active] - 1.0) < 1e-9)
        assert np.all(sums[~active] == 0.0)

        assert tg2.num_nodes == n_users + n_items + vocab_size
        expect_attach = sorted(
            [(u, int(f)) for u, fs in enumerate(user_feats) for f in fs]
            + [(n_users + i, int(f)) for i, fs in enumerate(item_feats) for f in fs]
        )
        got_attach = sorted(zip(tg2.feat_edge_node.tolist(), tg2.feat_edge_feat.tolist()))
        assert got_attach == expect_attach

        # a graph node's feature weights (phase 1) and a feature node's graph
        # weights (phase 4) sum to 1 over each non-empty list
        for table in plan[::3]:
            attach_sums = np.zeros(tg2.num_nodes)
            np.add.at(attach_sums, table.edge_tgt, table.edge_a)
            has_edges = np.isin(np.arange(tg2.num_nodes), table.edge_tgt)
            assert np.all(np.abs(attach_sums[has_edges] - 1.0) < 1e-9)

        # redrawing every event time must leave the transform bitwise intact
        tg3 = build(np.sort(rng.uniform(5e6, 9e6, n_events)))
        for a, b in (
            (s.pair_users, tg3.static.pair_users),
            (s.pair_items, tg3.static.pair_items),
            (s.pair_counts, tg3.static.pair_counts),
            (tg2.feat_edge_node, tg3.feat_edge_node),
            (tg2.feat_edge_feat, tg3.feat_edge_feat),
        ):
            assert a.tobytes() == b.tobytes()
        for t2, t3 in zip(plan, fg.phase_plan(tg3, 4)):
            for a, b in ((t2.edge_tgt, t3.edge_tgt), (t2.edge_src, t3.edge_src), (t2.edge_a, t3.edge_a)):
                assert a.tobytes() == b.tobytes()
        stamp_values = set(times.tolist())
        for arr in (edge_a, s.pair_counts, tg2.feat_edge_node, tg2.feat_edge_feat):
            assert not stamp_values & set(np.asarray(arr, dtype=float).tolist())


RECOVERY_KW = dict(
    n_users=160, n_items=240, n_feature_tokens=64, n_communities=8,
    n_events=4000, features_per_node=2, sharpness=4.0, target_scale=0.25,
)


def _recover(seed, strength):
    """Fraction of target nodes mapped into their planted community, plus the
    matched-community probability of a random same-partition assignment."""
    kw = dict(RECOVERY_KW, signature_strength=strength)
    source, target, planted = sd.generate_pair(sd.SynthConfig(seed=400 + seed, **kw))
    pool = [tf.transform_graph(source)]
    for j in range(2):
        extra, _, _ = sd.generate_pair(sd.SynthConfig(seed=500 + 13 * j, **kw))
        pool.append(tf.transform_graph(extra))
    enc = fg.FgatModel(fg.FgatConfig(dim=32), source.feature_vocab, np.random.default_rng(seed + 50))
    fg.train_fgat(enc, pool, 300, np.random.default_rng(seed + 70))
    tg_src, tg_tgt = pool[0], tf.transform_graph(target)
    h_src = enc.encode_arrays(tg_src)[: tg_src.num_graph_nodes]
    h_tgt = enc.encode_arrays(tg_tgt)[: tg_tgt.num_graph_nodes]
    dummy = MemoryState(np.zeros((tg_src.num_graph_nodes, 4)), np.zeros(tg_src.num_graph_nodes))
    mapping, _ = tr.map_memory(h_src, h_tgt, tg_src.num_users, tg_tgt.num_users, dummy)
    src_comm = np.concatenate([planted.src_user_community, planted.src_item_community])
    tgt_comm = np.concatenate([planted.tgt_user_community, planted.tgt_item_community])
    hits = src_comm[mapping.source_node] == tgt_comm
    n_comm = RECOVERY_KW["n_communities"]
    pu = sum(
        (planted.src_user_community == c).mean() * (planted.tgt_user_community == c).sum()
        for c in range(n_comm)
    )
    pi = sum(
        (planted.src_item_community == c).mean() * (planted.tgt_item_community == c).sum()
        for c in range(n_comm)
    )
    return hits, (pu + pi) / len(tgt_comm)


@pytest.fixture(scope="session")
def recovery():
    t0 = time.monotonic()
    strong = [_recover(seed, 0.95) for seed in range(5)]
    null = [_recover(seed, 0.0) for seed in range(5)]
    return {"strong": strong, "null": null, "elapsed": time.monotonic() - t0}


def test_criterion_4_mapping_recovery(recovery):
    """With strong feature signatures the learned mapping lands >= 95% of
    target nodes in their planted community across 5 seeds; with no
    signature it stays within 3 sigma of chance. Budget 3 minutes."""
    strong = np.concatenate([hits for hits, _ in recovery["strong"]])
    assert strong.mean() >= 0.95, f"community recovery {strong.mean():.4f} < 0.95"
    null = np.concatenate([hits for hits, _ in recovery["null"]])
    chance = float(np.mean([c for _, c in recovery["null"]]))
    sigma = float(np.sqrt(chance * (1.0 - chance) / null.size))
    assert abs(null.mean() - chance) <= 3.0 * sigma, (
        f"null recovery {null.mean():.4f} vs chance {chance:.4f} (sigma {sigma:.4f})"
    )
    assert recovery["elapsed"] < 180.0


BED_TGN = tgn.TgnConfig(
    d_mem=16, d_time=8, d_feat=16, n_layers=1, n_heads=2,
    k_neighbors=10, batch_size=200, lr=0.003, context_dropout=0.5,
)
BED_KW = dict(
    n_users=80, n_items=120, n_feature_tokens=36, n_communities=6,
    n_events=3000, features_per_node=1, sharpness=4.0,
    signature_strength=0.95, user_signature_strength=0.80,
    edge_signal=1.0, target_scale=0.6, target_event_scale=0.11,
)


def _zeroed_memory_ap(target, cfg, src_ckpt, enc_ckpt):
    """Full transfer with the mapped memory replaced by zeros at handoff."""
    train_g, val_g, test_g = chronological_split(target, cfg.split)
    setup = tr.prepare_variant("mintt", train_g, cfg, src_ckpt=src_ckpt, fgat_ckpt=enc_ckpt)
    zero = MemoryState.zeros(setup.init_state.num_nodes, setup.model.config.d_mem)
    ablated = tr.VariantSetup(setup.variant, setup.model, zero, setup.epochs, setup.mapping)
    return tr.execute_run(ablated, train_g, val_g, test_g, cfg).test_report.ap


@pytest.fixture(scope="session")
def bed(tmp_path_factory):
    """Five seeded source->target transfers; every variant evaluated once.

    The encoder pool holds the source plus three full and two thin companion
    graphs; the thin ones keep embeddings comparable at target density."""
    t0 = time.monotonic()
    root = tmp_path_factory.mktemp("bed")
    extras = [sd.generate_pair(sd.SynthConfig(seed=300 + 17 * j, **BED_KW))[0] for j in range(3)]
    thin_kw = dict(BED_KW, n_events=300)
    thin = [sd.generate_pair(sd.SynthConfig(seed=900 + 31 * j, **thin_kw))[0] for j in range(2)]

    ordering, ablation, scarcity = [], [], []
    for seed in range(5):
        source, target, _ = sd.generate_pair(sd.SynthConfig(seed=100 + seed, **BED_KW))
        rng = np.random.default_rng(seed)
        model = tgn.TgnModel(BED_TGN, source.feature_vocab, source.edge_feature_dim, rng)
        ctx = model.bind_graph(source)
        state, _ = tgn.train(model, ctx, source, 30, rng, optimizer=N.Adam(lr=BED_TGN.lr))
        static = tf.build_static(source)
        src_ckpt = root / f"source{seed}.ckpt"
        tgn.snapshot(
            model, state, N.Adam(lr=BED_TGN.lr), src_ckpt, source_graph=source,
            train_pairs=(static.pair_users, static.pair_items, static.pair_counts),
        )
        pool = [tf.transform_graph(g) for g in [source] + extras + thin]
        enc = fg.FgatModel(fg.FgatConfig(dim=32), source.feature_vocab, np.random.default_rng(seed + 50))
        fg.train_fgat(enc, pool, 300, np.random.default_rng(seed + 70))
        enc_ckpt = root / f"encoder{seed}.ckpt"
        fg.save_fgat(enc, enc_ckpt)

        cfg5 = tr.TransferConfig(nt_epochs=150, ft_epochs=5, seed=seed, rank_metrics=False, tgn=BED_TGN)
        cfg0 = tr.TransferConfig(nt_epochs=150, ft_epochs=0, seed=seed, rank_metrics=False, tgn=BED_TGN)
        nt = tr.run_variant("nt", target, cfg5).test_report.ap
        wt = tr.run_variant("wt", target, cfg5, src_ckpt=src_ckpt).test_report.ap
        mt5 = tr.run_variant("mintt", target, cfg5, src_ckpt=src_ckpt, fgat_ckpt=enc_ckpt).test_report.ap
        mt0 = tr.run_variant("mintt", target, cfg0, src_ckpt=src_ckpt, fgat_ckpt=enc_ckpt).test_report.ap
        z0 = _zeroed_memory_ap(target, cfg0, src_ckpt, enc_ckpt)
        z5 = _zeroed_memory_ap(target, cfg5, src_ckpt, enc_ckpt)
        ordering.append((nt, wt, mt5))
        ablation.append((mt0, z0, mt5, z5))

        row = {}
        for frac in (0.5, 0.3, 0.1):
            splits = tr.sweep_splits(target, frac)
            row["nt", frac] = tr.run_variant("nt", target, cfg5, splits=splits).test_report.ap
            row["mintt", frac] = tr.run_variant(
                "mintt", target, cfg5, src_ckpt=src_ckpt, fgat_ckpt=enc_ckpt, splits=splits
            ).test_report.ap
        scarcity.append(row)
    return {
        "ordering": np.array(ordering),
        "ablation": np.array(ablation),
        "scarcity": scarcity,
        "elapsed": time.monotonic() - t0,
    }


def test_criterion_5_transfer_ordering(bed):
    """At 10% target training data the 5-seed mean test AP orders
    mintt >= wt >= nt with mintt at least 0.03 above nt. Budget 5 minutes."""
    nt, wt, mintt = bed["ordering"].mean(axis=0)
    assert mintt >= wt >= nt, f"ordering violated: nt={nt:.4f} wt={wt:.4f} mintt={mintt:.4f}"
    assert mintt - nt >= 0.03, f"mintt-nt margin {mintt - nt:.4f} < 0.03"
    assert bed["elapsed"] < 300.0


def test_criterion_6_memory_ablation(bed):
    """Zeroing the mapped memory while keeping transferred weights lowers
    the 5-seed mean test AP at both 0 and 5 fine-tuning epochs."""
    mt0, z0, mt5, z5 = bed["ablation"].mean(axis=0)
    assert z0 < mt0, f"ft=0: zeroed {z0:.4f} !< mapped {mt0:.4f}"
    assert z5 < mt5, f"ft=5: zeroed {z5:.4f} !< mapped {mt5:.4f}"


def test_criterion_7_scarcity_trend(bed):
    """Across training fractions 0.5/0.3/0.1 the no-transfer baseline loses
    more AP from 0.5 to 0.1 than the full transfer does."""
    means = {
        key: float(np.mean([row[key] for row in bed["scarcity"]]))
        for key in bed["scarcity"][0]
    }
    nt_drop = means["nt", 0.5] - means["nt", 0.1]
    mintt_drop = means["mintt", 0.5] - means["mintt", 0.1]
    assert nt_drop > mintt_drop, f"nt drop {nt_drop:.4f} !> mintt drop {mintt_drop:.4f}"


def test_criterion_8_determinism(tmp_path):
    """The same seeded commands re-run in a fresh directory reproduce every
    artifact byte for byte: corpora, both checkpoints, and the report."""

    def run(name):
        d = tmp_path / name
        d.mkdir()
        assert cli.main([
            "synth", "--out-dir", str(d), "--users", "12", "--items", "14",
            "--tokens", "12", "--communities", "3", "--events", "240", "--seed", "5",
        ]) == 0
        assert cli.main([
            "train-tgn", "--graph", str(d / "source.csv"), "--epochs", "2", "--seed", "3",
            "--out", str(d / "model.ckpt"), "--d-mem", "8", "--d-time", "4",
            "--d-feat", "8", "--k-neighbors", "4", "--batch-size", "60",
        ]) == 0
        assert cli.main([
            "transform", "--input", str(d / "source.csv"),
            "--output", str(d / "source.cache"), "--run-dir", str(d),
        ]) == 0
        assert cli.main([
            "train-fgat", "--pool", str(d), "--epochs", "5", "--seed", "2",
            "--out", str(d / "encoder.ckpt"), "--dim", "8",
        ]) == 0
        assert cli.main([
            "transfer", "--variant", "mintt", "--target", str(d / "target.csv"),
            "--src-ckpt", str(d / "model.ckpt"), "--fgat-ckpt", str(d / "encoder.ckpt"),
            "--ft-epochs", "1", "--seed", "4", "--out", str(d / "report.json"),
            "--no-rank-metrics",
        ]) == 0
        artifacts = (
            "source.csv", "target.csv", "model.ckpt", "source.cache",
            "encoder.ckpt", "report.json",
        )
        return {nm: (d / nm).read_bytes() for nm in artifacts}

    assert run("a") == run("b")


def test_criterion_9_suite_runtime():
    """The whole file, fixtures included, finishes inside 15 minutes."""
    assert time.monotonic() - SUITE_START < 900.0
