import json

import numpy as np
import pytest

from tgtransfer import fgat as fg
from tgtransfer import synthdata as sd
from tgtransfer import tgn
from tgtransfer import transfer as tr
from tgtransfer.eval_metrics import evaluate
from tgtransfer.numerics import Adam
from tgtransfer.temporal_graph import TemporalGraph
from tgtransfer.tgn import MemoryState
from tgtransfer.transform import build_static, transform_graph


# -- map_memory ------------------------------------------------------------------


def make_state(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return MemoryState(rng.normal(size=(n, d)), np.arange(n, dtype=np.float64))


def test_map_memory_exact_match_and_copy_semantics():
    rng = np.random.default_rng(3)
    h_src = rng.normal(size=(6, 5))  # 4 users + 2 items
    h_tgt = np.vstack([h_src[2] * 2.0, h_src[5] * 0.5])  # scaled rows keep cosine=1
    mem = make_state(6, 4)
    mapping, state = tr.map_memory(h_src, h_tgt, 4, 1, mem)
    assert mapping.source_node.tolist() == [2, 5]
    assert np.allclose(mapping.similarity, 1.0)
    assert np.array_equal(state.memory[0], mem.memory[2])
    assert np.array_equal(state.memory[1], mem.memory[5])
    assert np.array_equal(state.last_update, np.zeros(2))
    state.memory[0] += 99.0
    assert not np.array_equal(state.memory[0], mem.memory[2])


def test_map_memory_respects_partitions():
    rng = np.random.default_rng(4)
    h_src = rng.normal(size=(7, 3))  # 3 users, 4 items
    h_tgt = rng.normal(size=(5, 3))  # 2 users, 3 items
    mapping, _ = tr.map_memory(h_src, h_tgt, 3, 2, make_state(7, 2))
    assert np.all(mapping.source_node[:2] < 3)
    assert np.all(mapping.source_node[2:] >= 3)


def test_map_memory_tie_breaks_toward_smallest_source_id():
    h_src = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # users 0 and 1 identical
    h_tgt = np.array([[2.0, 0.0], [2.0, 0.0]])
    mapping, _ = tr.map_memory(h_src, h_tgt, 2, 2, make_state(3, 2))
    assert mapping.source_node.tolist() == [0, 0]


def test_map_memory_scale_invariance():
    rng = np.random.default_rng(5)
    h_src = rng.normal(size=(8, 6))
    h_tgt = rng.normal(size=(5, 6))
    mem = make_state(8, 3)
    a, _ = tr.map_memory(h_src, h_tgt, 4, 2, mem)
    b, _ = tr.map_memory(h_src * 3.7, h_tgt * 3.7, 4, 2, mem)
    assert np.array_equal(a.source_node, b.source_node)
    assert np.allclose(a.similarity, b.similarity)


def test_map_memory_rejects_empty_partition_and_mismatch():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(4, 3))
    with pytest.raises(ValueError):
        tr.map_memory(h, h, 0, 2, make_state(4, 2))
    with pytest.raises(ValueError):
        tr.map_memory(h, h, 4, 2, make_state(4, 2))
    with pytest.raises(ValueError):
        tr.map_memory(h, h, 2, 2, make_state(5, 2))
    with pytest.raises(ValueError):
        tr.map_memory(h, rng.normal(size=(4, 2)), 2, 2, make_state(4, 2))


def test_mapping_json_round_trip():
    mapping = tr.MemoryMapping(np.array([4, 0, 2]), np.array([0.9, 0.5, -0.1]))
    text = tr.mapping_to_json(mapping)
    assert json.loads(text) == [
        {"target_id": 0, "source_id": 4, "similarity": 0.9},
        {"target_id": 1, "source_id": 0, "similarity": 0.5},
        {"target_id": 2, "source_id": 2, "similarity": -0.1},
    ]


# -- weight transfer ----------------------------------------------------------------


def small_tgn(vocab, edge_dim=0, seed=0):
    cfg = tgn.TgnConfig(d_mem=8, d_time=4, d_feat=8, k_neighbors=4, batch_size=100)
    return tgn.TgnModel(cfg, vocab, edge_dim, np.random.default_rng(seed))


def test_transfer_weights_deep_copy():
    src = small_tgn(["a", "b"], seed=1)
    copy = tr.transfer_weights(src)
    for name in src.pset.names():
        assert np.array_equal(copy.pset[name].data, src.pset[name].data)
    before = src.pset["gru.wz"].data.copy()
    copy.pset["gru.wz"].data += 1.0
    assert np.array_equal(src.pset["gru.wz"].data, before)


# -- end-to-end variants ---------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small source model + encoder checkpoints and a target graph."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = sd.SynthConfig(
        n_users=20, n_items=24, n_feature_tokens=16, n_communities=4,
        n_events=700, signature_strength=0.95, sharpness=4.0, seed=11,
    )
    source, target, planted = sd.generate_pair(cfg)
    rng = np.random.default_rng(0)

    model = small_tgn(source.feature_vocab, source.edge_feature_dim, seed=2)
    ctx = model.bind_graph(source)
    opt = Adam(lr=model.config.lr)
    state, _ = tgn.train(model, ctx, source, epochs=2, rng=rng, optimizer=opt)
    src_ckpt = root / "source.ckpt"
    s = build_static(source)
    tgn.snapshot(model, state, opt, src_ckpt, source_graph=source,
                 train_pairs=(s.pair_users, s.pair_items, s.pair_counts))

    encoder = fg.FgatModel(fg.FgatConfig(dim=16), source.feature_vocab, np.random.default_rng(3))
    fg.train_fgat(encoder, [transform_graph(source)], epochs=10, rng=np.random.default_rng(4))
    fgat_ckpt = root / "encoder.ckpt"
    fg.save_fgat(encoder, fgat_ckpt)
    return source, target, planted, src_ckpt, fgat_ckpt


def test_prepare_variant_requires_checkpoints(pipeline):
    _, target, _, src_ckpt, _ = pipeline
    cfg = tr.TransferConfig()
    train_g = target.slice(0, 30)
    with pytest.raises(ValueError, match="unknown variant"):
        tr.prepare_variant("xx", train_g, cfg)
    with pytest.raises(ValueError, match="source checkpoint"):
        tr.prepare_variant("wt", train_g, cfg)
    with pytest.raises(ValueError, match="encoder checkpoint"):
        tr.prepare_variant("mintt", train_g, cfg, src_ckpt=src_ckpt)


def run_cfg(**kw):
    base = dict(
        split=(0.1, 0.45, 0.45), nt_epochs=3, ft_epochs=1, seed=5,
        rank_metrics=False,
        tgn=tgn.TgnConfig(d_mem=8, d_time=4, d_feat=8, k_neighbors=4, batch_size=100),
    )
    base.update(kw)
    return tr.TransferConfig(**base)


def test_nt_run_end_to_end(pipeline):
    _, target, _, _, _ = pipeline
    res = tr.run_variant("nt", target, run_cfg())
    assert res.test_report.variant == "nt"
    assert res.test_report.n_test_events == target.num_events - int(target.num_events * 0.55)
    assert 0.0 <= res.test_report.ap <= 1.0
    assert len(res.losses) == 3
    assert res.mapping is None


def test_mintt_zero_ft_is_scoreable_and_leaves_checkpoints_untouched(pipeline):
    _, target, _, src_ckpt, fgat_ckpt = pipeline
    before = (src_ckpt.read_bytes(), fgat_ckpt.read_bytes())
    res = tr.run_variant(
        "mintt", target, run_cfg(ft_epochs=0), src_ckpt=src_ckpt, fgat_ckpt=fgat_ckpt
    )
    assert res.losses == []
    assert 0.0 <= res.test_report.ap <= 1.0
    assert res.mapping is not None
    assert (src_ckpt.read_bytes(), fgat_ckpt.read_bytes()) == before


def test_wt_equals_mintt_with_memory_zeroed(pipeline):
    _, target, _, src_ckpt, fgat_ckpt = pipeline
    cfg = run_cfg(ft_epochs=0)
    train_g, val_g, test_g = tr.chronological_split(target, cfg.split)

    wt = tr.run_variant("wt", target, cfg, src_ckpt=src_ckpt)
    setup = tr.prepare_variant("mintt", train_g, cfg, src_ckpt=src_ckpt, fgat_ckpt=fgat_ckpt)
    setup.init_state.memory[:] = 0.0
    ablated = tr.execute_run(setup, train_g, val_g, test_g, cfg)

    assert ablated.test_report.ap == wt.test_report.ap
    assert ablated.test_report.auc == wt.test_report.auc
    assert ablated.val_report.ap == wt.val_report.ap


def test_ranked_run_scores_validation_unranked(pipeline, monkeypatch):
    """A ranked run ranks its test split only. Its validation pass gives the
    AP and AUC of a ranked pass over the same split, from the same state and
    generator, and leaves the generator where that pass does, so the test
    negatives are those of a run that ranks validation too."""
    _, target, _, src_ckpt, fgat_ckpt = pipeline
    calls = []

    def spy(model, ctx, split, state, rng, **kw):
        before = rng.bit_generator.state
        result = evaluate(model, ctx, split, state, rng, **kw)
        calls.append((ctx, split, state, before, rng.bit_generator.state, kw))
        return result

    monkeypatch.setattr(tr, "evaluate", spy)
    res = tr.run_variant("mintt", target, run_cfg(rank_metrics=True), src_ckpt=src_ckpt, fgat_ckpt=fgat_ckpt)
    assert res.val_report.mrr == res.val_report.recall_at_k == 0.0
    assert res.test_report.mrr > 0.0
    (ctx, val_g, state, before, after, kw), test_call = calls
    assert not kw["rank_metrics"] and test_call[5]["rank_metrics"]

    rng = np.random.default_rng()
    rng.bit_generator.state = before
    ranked, _ = evaluate(res.model, ctx, val_g, state, rng, variant="mintt", seed=5, rank_metrics=True)
    assert ranked.mrr > 0.0
    assert (ranked.ap, ranked.auc) == (res.val_report.ap, res.val_report.auc)
    assert rng.bit_generator.state == after == test_call[3]


def test_mintt_mapping_covers_all_target_nodes(pipeline):
    _, target, _, src_ckpt, fgat_ckpt = pipeline
    cfg = run_cfg(ft_epochs=0)
    train_g = tr.chronological_split(target, cfg.split)[0]
    setup = tr.prepare_variant("mintt", train_g, cfg, src_ckpt=src_ckpt, fgat_ckpt=fgat_ckpt)
    assert len(setup.mapping.source_node) == target.num_users + target.num_items
    assert np.all(setup.mapping.source_node[: target.num_users] < 20)
    assert np.all(setup.mapping.source_node[target.num_users :] >= 20)
    assert setup.init_state.num_nodes == target.num_users + target.num_items


def test_relabeled_copy_recovers_planted_twins(pipeline):
    source, _, _, _, fgat_ckpt = pipeline
    rng = np.random.default_rng(17)
    perm_u = rng.permutation(source.num_users)
    perm_i = rng.permutation(source.num_items)
    relabeled = TemporalGraph(
        perm_u[source.users],
        perm_i[source.items],
        source.times,
        source.edge_features,
        [f"ru{k}" for k in range(source.num_users)],
        [f"ri{k}" for k in range(source.num_items)],
        source.feature_vocab,
        [source.user_features[u] for u in np.argsort(perm_u)],
        [source.item_features[i] for i in np.argsort(perm_i)],
    )
    encoder = fg.load_fgat(fgat_ckpt)
    h_src = encoder.encode_arrays(transform_graph(source))
    h_tgt = encoder.encode_arrays(transform_graph(relabeled))
    n_graph = source.num_users + source.num_items
    mem = make_state(n_graph, 8)
    mapping, _ = tr.map_memory(h_src[:n_graph], h_tgt[:n_graph], source.num_users,
                               source.num_users, mem)

    twin = np.concatenate([
        np.argsort(perm_u),  # relabeled user k is original user argsort(perm_u)[k]
        np.argsort(perm_i) + source.num_users,
    ])
    assert np.mean(mapping.source_node == twin) >= 0.95


def test_sweep_splits_fixed_windows():
    g, _, _ = sd.generate_pair(sd.SynthConfig(
        n_users=12, n_items=12, n_feature_tokens=12, n_communities=3,
        n_events=400, seed=2,
    ))
    for frac in (0.5, 0.3, 0.1):
        train_g, val_g, test_g = tr.sweep_splits(g, frac)
        assert train_g.num_events == int(400 * frac)
        assert np.array_equal(val_g.times, g.times[200:280])
        assert np.array_equal(test_g.times, g.times[280:])
    with pytest.raises(ValueError):
        tr.sweep_splits(g, 0.6)
    with pytest.raises(ValueError):
        tr.sweep_splits(g, 0.0)


def test_transfer_config_validation():
    with pytest.raises(ValueError):
        tr.TransferConfig(nt_epochs=-1)
    with pytest.raises(ValueError):
        tr.TransferConfig(ft_lr=0.0)
    with pytest.raises(ValueError):
        tr.TransferConfig(ft_lr=-0.01)


@pytest.mark.parametrize("ft_lr", [float("nan"), float("inf")])
def test_transfer_config_rejects_non_finite_ft_lr(ft_lr):
    with pytest.raises(ValueError, match="ft_lr must be finite and > 0"):
        tr.TransferConfig(ft_lr=ft_lr)


def test_ft_lr_changes_fine_tuning_but_not_nt(pipeline):
    _, target, _, src_ckpt, _ = pipeline
    slow = tr.run_variant("wt", target, run_cfg(), src_ckpt=src_ckpt)
    fast = tr.run_variant("wt", target, run_cfg(ft_lr=0.05), src_ckpt=src_ckpt)
    assert fast.test_report.ap != slow.test_report.ap

    plain = tr.run_variant("nt", target, run_cfg())
    ignored = tr.run_variant("nt", target, run_cfg(ft_lr=0.05))
    assert ignored.test_report.ap == plain.test_report.ap
