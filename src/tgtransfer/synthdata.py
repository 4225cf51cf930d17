"""Synthetic bipartite interaction graphs with planted community structure.

A generated pair consists of a source graph and a smaller, independently
sampled target graph drawn from the same community model: users and items
belong to communities, users interact mostly within their community, and
node features are drawn from per-community signature token blocks out of a
vocabulary shared by both graphs. Node id sets are disjoint across the pair;
the only bridge between the graphs is feature-token semantics, which is
exactly what embedding-based memory mapping has to exploit. The planted
community roles double as a recovery oracle for that mapping.

Three dials control difficulty: `sharpness` concentrates a user's item
choices on its own community, `signature_strength` is the probability that
each feature draw comes from the node's community block rather than the
whole vocabulary, and `item_churn` staggers item debuts across the stream so
that cold items keep entering the catalog the way new venues or pages do.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics.checkpoint import check_fields
from .temporal_graph import TemporalGraph


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 60
    n_items: int = 80
    n_feature_tokens: int = 24
    n_communities: int = 4
    n_events: int = 2400
    features_per_node: int = 3
    sharpness: float = 3.5
    signature_strength: float = 0.9
    user_signature_strength: float | None = None
    item_churn: float = 0.0
    edge_signal: float = 0.0
    target_scale: float = 0.5
    target_event_scale: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "count", "n_users", "n_items", "n_feature_tokens", "n_communities", "n_events",
                     "features_per_node")
        check_fields(self, "unit", "signature_strength", "user_signature_strength", "edge_signal")
        check_fields(self, "share", "item_churn")
        check_fields(self, "nonnegative", "sharpness")
        check_fields(self, "scale", "target_scale", "target_event_scale")
        if self.n_communities > min(self.n_users, self.n_items):
            raise ValueError("more communities than users or items")
        if self.features_per_node > self.n_feature_tokens // self.n_communities:
            raise ValueError("community signature blocks too small for features_per_node")


class PlantedMapping(NamedTuple):
    """Per-target-node intended source analog plus the community labels.

    Analog ids are dense per-partition indices (users map to users, items to
    items). Within a community members are exchangeable, so recovery is
    judged by community agreement, not exact node identity.
    """

    user_analog: np.ndarray
    item_analog: np.ndarray
    src_user_community: np.ndarray
    src_item_community: np.ndarray
    tgt_user_community: np.ndarray
    tgt_item_community: np.ndarray


def _signature_blocks(n_tokens: int, n_communities: int) -> list[np.ndarray]:
    return np.array_split(np.arange(n_tokens), n_communities)


def _own_community_prob(sharpness: float, n_communities: int) -> float:
    """P(own community) when own weight is e^sharpness and others 1 each."""
    if n_communities == 1:
        return 1.0
    return float(1.0 / (1.0 + (n_communities - 1) * np.exp(-sharpness)))


def _draw_features(rng, block: np.ndarray, cfg: SynthConfig, strength: float) -> np.ndarray:
    p = np.full(cfg.n_feature_tokens, (1.0 - strength) / cfg.n_feature_tokens)
    p[block] += strength / len(block)
    picks = rng.choice(cfg.n_feature_tokens, size=cfg.features_per_node, replace=False, p=p)
    return np.sort(picks).astype(np.int64)


def _sample_graph(
    rng: np.random.Generator,
    cfg: SynthConfig,
    n_users: int,
    n_items: int,
    n_events: int,
    vocab: list[str],
    id_prefix: str,
) -> tuple[TemporalGraph, np.ndarray, np.ndarray]:
    c = cfg.n_communities
    # round-robin assignment keeps every community populated on both sides
    user_comm = np.arange(n_users, dtype=np.int64) % c
    item_comm = np.arange(n_items, dtype=np.int64) % c
    blocks = _signature_blocks(cfg.n_feature_tokens, c)
    u_strength = (
        cfg.user_signature_strength
        if cfg.user_signature_strength is not None
        else cfg.signature_strength
    )
    user_features = [_draw_features(rng, blocks[k], cfg, u_strength) for k in user_comm]
    item_features = [_draw_features(rng, blocks[k], cfg, cfg.signature_strength) for k in item_comm]

    users = rng.integers(0, n_users, size=n_events)
    own = rng.random(n_events) < _own_community_prob(cfg.sharpness, c)
    comm = user_comm[users].copy()
    if c > 1:
        shift = rng.integers(1, c, size=n_events)
        comm[~own] = (comm[~own] + shift[~own]) % c

    times = np.sort(rng.uniform(0.0, float(n_events), size=n_events))
    n_open = _open_counts(cfg, n_items, comm, times, float(n_events))
    slot = np.floor(rng.random(n_events) * n_open).astype(np.int64)
    items = comm + slot * c

    # interaction content: a one-hot community tag on each event, flipped to a
    # random community with probability 1 - edge_signal; dim 0 when disabled
    if cfg.edge_signal > 0.0:
        tag = comm.copy()
        flip = rng.random(n_events) >= cfg.edge_signal
        tag[flip] = rng.integers(0, c, size=int(flip.sum()))
        edge_features = np.zeros((n_events, c))
        edge_features[np.arange(n_events), tag] = 1.0
    else:
        edge_features = np.zeros((n_events, 0))
    graph = TemporalGraph(
        users,
        items,
        times,
        edge_features,
        [f"{id_prefix}u{k}" for k in range(n_users)],
        [f"{id_prefix}i{k}" for k in range(n_items)],
        vocab,
        user_features,
        item_features,
    )
    return graph, user_comm, item_comm


def _open_counts(cfg: SynthConfig, n_items: int, comm: np.ndarray, times: np.ndarray, horizon: float) -> np.ndarray:
    """How many items of each event's community `comm` are open at its time.

    Per community, an item_churn share of the items debuts on an evenly
    spaced grid over (0, horizon) instead of at t=0; debut rank follows
    round-robin rank, so items of community k sit at k, k+c, k+2c, ... in
    debut order.
    """
    c = cfg.n_communities
    n_open = np.zeros(len(times), dtype=np.int64)
    for k in range(c):
        n_k = (n_items - k + c - 1) // c
        m_k = int(np.floor(cfg.item_churn * n_k))
        debut = horizon * np.arange(1, m_k + 1) / (m_k + 1)
        at_k = comm == k
        n_open[at_k] = np.searchsorted(np.concatenate([np.zeros(n_k - m_k), debut]), times[at_k], side="right")
    return n_open


def _analog_ids(n_target: int, n_source: int, n_communities: int) -> np.ndarray:
    """j-th member of community k in the target -> j-th member in the source."""
    ids = np.arange(n_target, dtype=np.int64)
    comm = ids % n_communities
    rank = ids // n_communities
    src_size = (n_source - comm + n_communities - 1) // n_communities
    return comm + (rank % src_size) * n_communities


def generate_pair(cfg: SynthConfig) -> tuple[TemporalGraph, TemporalGraph, PlantedMapping]:
    """Source graph, independently sampled smaller target graph, and oracle."""
    t_users = int(round(cfg.n_users * cfg.target_scale))
    t_items = int(round(cfg.n_items * cfg.target_scale))
    event_scale = (
        cfg.target_event_scale if cfg.target_event_scale is not None else cfg.target_scale
    )
    t_events = int(round(cfg.n_events * event_scale))
    if min(t_users, t_items) < cfg.n_communities:
        raise ValueError("target_scale leaves fewer target nodes than communities")
    if t_events < 1:
        raise ValueError("target event scaling leaves no target events")

    rng = np.random.default_rng(cfg.seed)
    vocab = [f"tok{k:03d}" for k in range(cfg.n_feature_tokens)]
    source, src_uc, src_ic = _sample_graph(
        rng, cfg, cfg.n_users, cfg.n_items, cfg.n_events, vocab, "s"
    )
    target, tgt_uc, tgt_ic = _sample_graph(rng, cfg, t_users, t_items, t_events, vocab, "t")
    mapping = PlantedMapping(
        user_analog=_analog_ids(t_users, cfg.n_users, cfg.n_communities),
        item_analog=_analog_ids(t_items, cfg.n_items, cfg.n_communities),
        src_user_community=src_uc,
        src_item_community=src_ic,
        tgt_user_community=tgt_uc,
        tgt_item_community=tgt_ic,
    )
    return source, target, mapping


def write_events_csv(g: TemporalGraph, path) -> None:
    """Emit the interaction CSV consumed by `load_events`.

    Every row repeats the full feature-token sets of its endpoints, so the
    per-node union taken at load time reproduces the tables exactly.
    """
    header = ["user_id", "item_id", "timestamp", "user_feature_ids", "item_feature_ids"]
    if g.edge_feature_dim:
        header.append("edge_features")
    user_toks = ["|".join(g.feature_vocab[f] for f in feats) for feats in g.user_features]
    item_toks = ["|".join(g.feature_vocab[f] for f in feats) for feats in g.item_features]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(g.num_events):
            u = int(g.users[k])
            i = int(g.items[k])
            row = [g.user_ids[u], g.item_ids[i], repr(float(g.times[k])), user_toks[u], item_toks[i]]
            if g.edge_feature_dim:
                row.append("|".join(repr(float(x)) for x in g.edge_features[k]))
            writer.writerow(row)
