import numpy as np
import pytest

from tgtransfer import synthdata as sd
from tgtransfer import temporal_graph as tg

from helpers import open_counts_loop, scarcity_subsample


SMALL = sd.SynthConfig(
    n_users=20,
    n_items=24,
    n_feature_tokens=16,
    n_communities=4,
    n_events=600,
    features_per_node=3,
    seed=7,
)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        sd.SynthConfig(n_users=0)
    with pytest.raises(ValueError):
        sd.SynthConfig(n_events=-5)
    with pytest.raises(ValueError):
        sd.SynthConfig(signature_strength=1.5)
    with pytest.raises(ValueError):
        sd.SynthConfig(sharpness=-1.0)
    with pytest.raises(ValueError):
        sd.SynthConfig(target_scale=0.0)
    with pytest.raises(ValueError):
        sd.SynthConfig(target_scale=1.2)


def test_config_rejects_more_communities_than_nodes():
    with pytest.raises(ValueError):
        sd.SynthConfig(n_users=3, n_communities=4)
    with pytest.raises(ValueError):
        sd.SynthConfig(n_items=2, n_communities=3)


def test_config_rejects_oversized_feature_draw():
    # blocks of 16 // 8 = 2 tokens cannot yield 3 distinct signature features
    with pytest.raises(ValueError):
        sd.SynthConfig(n_users=16, n_items=16, n_feature_tokens=16, n_communities=8, features_per_node=3)


def test_generate_pair_shapes_and_shared_vocab():
    src, tgt, mapping = sd.generate_pair(SMALL)
    assert src.num_users == 20 and src.num_items == 24 and src.num_events == 600
    assert tgt.num_users == 10 and tgt.num_items == 12 and tgt.num_events == 300
    assert tgt.feature_vocab == src.feature_vocab
    assert len(mapping.user_analog) == tgt.num_users
    assert len(mapping.item_analog) == tgt.num_items
    # disjoint node id universes
    assert not set(src.user_ids) & set(tgt.user_ids)
    assert not set(src.item_ids) & set(tgt.item_ids)


def test_generate_pair_deterministic_per_seed():
    a_src, a_tgt, a_map = sd.generate_pair(SMALL)
    b_src, b_tgt, b_map = sd.generate_pair(SMALL)
    assert np.array_equal(a_src.users, b_src.users)
    assert np.array_equal(a_src.items, b_src.items)
    assert np.array_equal(a_src.times, b_src.times)
    assert np.array_equal(a_tgt.users, b_tgt.users)
    assert all(np.array_equal(x, y) for x, y in zip(a_src.user_features, b_src.user_features))
    assert np.array_equal(a_map.user_analog, b_map.user_analog)

    c_src, _, _ = sd.generate_pair(sd.SynthConfig(**{**SMALL.__dict__, "seed": 8}))
    assert not np.array_equal(a_src.items, c_src.items)


def test_infinite_sharpness_stays_within_community():
    cfg = sd.SynthConfig(**{**SMALL.__dict__, "sharpness": float("inf")})
    src, tgt, mapping = sd.generate_pair(cfg)
    assert np.array_equal(
        mapping.src_user_community[src.users], mapping.src_item_community[src.items]
    )
    assert np.array_equal(
        mapping.tgt_user_community[tgt.users], mapping.tgt_item_community[tgt.items]
    )


def test_zero_sharpness_spreads_across_communities():
    cfg = sd.SynthConfig(**{**SMALL.__dict__, "sharpness": 0.0, "n_events": 4000})
    src, _, mapping = sd.generate_pair(cfg)
    within = np.mean(mapping.src_user_community[src.users] == mapping.src_item_community[src.items])
    # uniform community choice puts 1/4 of events within community
    assert abs(within - 0.25) < 0.05


def test_full_signature_strength_confines_features_to_blocks():
    cfg = sd.SynthConfig(**{**SMALL.__dict__, "signature_strength": 1.0})
    src, tgt, mapping = sd.generate_pair(cfg)
    blocks = sd._signature_blocks(cfg.n_feature_tokens, cfg.n_communities)
    for feats, comm in zip(src.user_features, mapping.src_user_community):
        assert set(feats) <= set(blocks[comm])
    for feats, comm in zip(tgt.item_features, mapping.tgt_item_community):
        assert set(feats) <= set(blocks[comm])


def test_planted_mapping_respects_partitions_and_communities():
    src, tgt, mapping = sd.generate_pair(SMALL)
    assert mapping.user_analog.min() >= 0 and mapping.user_analog.max() < src.num_users
    assert mapping.item_analog.min() >= 0 and mapping.item_analog.max() < src.num_items
    assert np.array_equal(
        mapping.src_user_community[mapping.user_analog], mapping.tgt_user_community
    )
    assert np.array_equal(
        mapping.src_item_community[mapping.item_analog], mapping.tgt_item_community
    )


def test_target_scale_too_small_for_communities():
    with pytest.raises(ValueError):
        sd.generate_pair(sd.SynthConfig(**{**SMALL.__dict__, "target_scale": 0.1}))


def test_scarcity_subsample_prefix_and_identity():
    src, _, _ = sd.generate_pair(SMALL)
    sub = scarcity_subsample(src, 0.1)
    assert sub.num_events == 60
    assert np.array_equal(sub.times, src.times[:60])
    assert np.array_equal(sub.users, src.users[:60])
    assert sub.user_ids == src.user_ids and sub.item_ids == src.item_ids
    assert sub.feature_vocab == src.feature_vocab

    same = scarcity_subsample(src, 1.0)
    assert same.num_events == src.num_events


def test_scarcity_subsample_composes_like_prefix_products():
    src, _, _ = sd.generate_pair(SMALL)
    twice = scarcity_subsample(scarcity_subsample(src, 0.5), 0.2)
    once = scarcity_subsample(src, 0.1)
    assert twice.num_events == once.num_events
    assert np.array_equal(twice.times, once.times)
    assert np.array_equal(twice.items, once.items)


def test_scarcity_subsample_rejects_bad_fractions():
    src, _, _ = sd.generate_pair(SMALL)
    with pytest.raises(ValueError):
        scarcity_subsample(src, 0.0)
    with pytest.raises(ValueError):
        scarcity_subsample(src, 1.5)
    with pytest.raises(ValueError):
        scarcity_subsample(src, 1e-5)


def test_csv_round_trip_preserves_events_and_features(tmp_path):
    src, _, _ = sd.generate_pair(SMALL)
    path = tmp_path / "events.csv"
    sd.write_events_csv(src, path)
    back = tg.load_events(path)

    assert back.num_events == src.num_events
    assert np.array_equal(back.times, src.times)
    # dense ids may permute; compare through the string ids
    orig_seq = [(src.user_ids[u], src.item_ids[i]) for u, i in zip(src.users, src.items)]
    back_seq = [(back.user_ids[u], back.item_ids[i]) for u, i in zip(back.users, back.items)]
    assert back_seq == orig_seq

    orig_feats = {
        uid: {src.feature_vocab[f] for f in feats}
        for uid, feats in zip(src.user_ids, src.user_features)
    }
    back_feats = {
        uid: {back.feature_vocab[f] for f in feats}
        for uid, feats in zip(back.user_ids, back.user_features)
    }
    # nodes without events cannot appear in the file
    seen = {back.user_ids[u] for u in back.users}
    assert back_feats == {uid: orig_feats[uid] for uid in seen}


def test_community_signal_beats_popularity_baseline():
    cfg = sd.SynthConfig(**{**SMALL.__dict__, "n_events": 2000, "sharpness": 4.0})
    src, _, mapping = sd.generate_pair(cfg)
    cut = int(src.num_events * 0.8)
    train, held = src.slice(0, cut), src.slice(cut, src.num_events)

    popularity = np.bincount(train.items, minlength=src.num_items).astype(float)
    comm_score = (
        mapping.src_item_community[None, :] == mapping.src_user_community[:, None]
    ).astype(float)

    def mean_rank(score_rows):
        # average rank of the true item, ties shared
        ranks = []
        for row, truth in zip(score_rows, held.items):
            s = row.copy()
            ranks.append(1 + np.sum(s > s[truth]) + 0.5 * (np.sum(s == s[truth]) - 1))
        return float(np.mean(ranks))

    pop_rank = mean_rank(np.tile(popularity, (held.num_events, 1)))
    oracle_rank = mean_rank(comm_score[held.users] * (1 + popularity[None, :]))
    assert oracle_rank < pop_rank


def test_config_rejects_bad_new_dials():
    with pytest.raises(ValueError):
        sd.SynthConfig(user_signature_strength=1.5)
    with pytest.raises(ValueError):
        sd.SynthConfig(user_signature_strength=-0.1)
    with pytest.raises(ValueError):
        sd.SynthConfig(edge_signal=1.5)
    with pytest.raises(ValueError):
        sd.SynthConfig(item_churn=1.0)
    with pytest.raises(ValueError):
        sd.SynthConfig(target_event_scale=0.0)
    with pytest.raises(ValueError):
        sd.SynthConfig(target_event_scale=1.2)


@pytest.mark.parametrize("churn", [0.0, 0.5, 0.9])
def test_open_counts_match_per_event_loop(churn):
    cfg = sd.SynthConfig(**{**SMALL.__dict__, "item_churn": churn})
    rng = np.random.default_rng(3)
    horizon = 500.0
    # random times, both ends of the horizon, and every debut time of
    # communities of up to 6 items, where an item opens at its own debut
    debuts = [horizon * np.arange(1, m + 1) / (m + 1) for m in range(1, 6)]
    times = np.concatenate([rng.uniform(0.0, horizon, size=500), [0.0, horizon], *debuts])
    comm = rng.integers(0, cfg.n_communities, size=len(times))
    got = sd._open_counts(cfg, 23, comm, times, horizon)
    assert got.dtype == np.int64
    assert np.array_equal(got, open_counts_loop(cfg, 23, comm, times, horizon))
    if churn > 0.0:
        assert got.min() < got.max()


def test_edge_signal_zero_yields_no_edge_features():
    src, tgt, _ = sd.generate_pair(SMALL)
    assert src.edge_feature_dim == 0
    assert tgt.edge_feature_dim == 0


def test_edge_signal_one_tags_events_with_item_community():
    cfg = sd.SynthConfig(**{**SMALL.__dict__, "edge_signal": 1.0})
    src, tgt, mapping = sd.generate_pair(cfg)
    for g, item_comm in ((src, mapping.src_item_community), (tgt, mapping.tgt_item_community)):
        assert g.edge_feature_dim == cfg.n_communities
        assert np.array_equal(g.edge_features.sum(axis=1), np.ones(g.num_events))
        assert np.array_equal(g.edge_features.argmax(axis=1), item_comm[g.items])


def test_edge_signal_half_flips_a_quarter_of_tags():
    cfg = sd.SynthConfig(**{**SMALL.__dict__, "edge_signal": 0.5, "n_events": 4000})
    src, _, mapping = sd.generate_pair(cfg)
    wrong = np.mean(src.edge_features.argmax(axis=1) != mapping.src_item_community[src.items])
    # half the tags redraw uniformly over 4 communities -> 3/8 land wrong
    assert abs(wrong - 0.375) < 0.05


def test_user_signature_strength_decouples_user_and_item_features():
    cfg = sd.SynthConfig(
        **{**SMALL.__dict__, "signature_strength": 1.0, "user_signature_strength": 0.0}
    )
    src, _, mapping = sd.generate_pair(cfg)
    blocks = sd._signature_blocks(cfg.n_feature_tokens, cfg.n_communities)
    for feats, comm in zip(src.item_features, mapping.src_item_community):
        assert set(feats) <= set(blocks[comm])
    strays = sum(
        bool(set(feats) - set(blocks[comm]))
        for feats, comm in zip(src.user_features, mapping.src_user_community)
    )
    assert strays > 0


def test_target_event_scale_overrides_event_count_only():
    cfg = sd.SynthConfig(**{**SMALL.__dict__, "target_event_scale": 0.05})
    _, tgt, _ = sd.generate_pair(cfg)
    assert tgt.num_users == 10 and tgt.num_items == 12
    assert tgt.num_events == 30


def test_tgn_trains_on_generated_graph_without_edge_features():
    from tgtransfer import tgn

    cfg = sd.SynthConfig(**{**SMALL.__dict__, "n_events": 120})
    src, _, _ = sd.generate_pair(cfg)
    rng = np.random.default_rng(0)
    model = tgn.TgnModel(
        tgn.TgnConfig(d_mem=8, d_time=4, d_feat=8, k_neighbors=4, batch_size=40),
        src.feature_vocab,
        src.edge_feature_dim,
        rng,
    )
    ctx = model.bind_graph(src)
    state, losses = tgn.train(model, ctx, src, epochs=1, rng=rng)
    assert np.isfinite(losses[0])
    assert np.isfinite(state.memory).all()
