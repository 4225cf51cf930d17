"""Attribute-decoupled static transformation of a temporal interaction graph.

The transformation forgets timestamps and edge features. What remains is the
multiset of (user, item) interaction pairs over the original bipartite nodes,
plus one virtual node per categorical feature token, attached to every graph
node carrying that token. Feature-node identity is the vocab token string, so
two graphs sharing a vocabulary share feature nodes. This module holds the
pairs, the attachments and their on-disk format; `fgat.phase_plan` turns
them into the weighted edge lists (interaction fractions, 1/|F_u|, 1/deg).

Node id layout inside a transformed graph with U users, I items, F features:
users [0, U), items [U, U+I), feature nodes [U+I, U+I+F).
"""

from __future__ import annotations

import numpy as np

from .numerics.checkpoint import read_blob, require, write_blob
from .temporal_graph import Csr, TemporalGraph


class StaticGraph:
    """The multiset of (user, item) interaction pairs: distinct pairs in
    (user, item) order with their positive event counts. Users are global
    nodes [0, U) and items [U, U+I); `fgat.phase_plan` weights each pair's
    two directed edges by its interaction fractions."""

    def __init__(self, pair_users, pair_items, pair_counts, num_users, num_items):
        self.pair_users = np.asarray(pair_users, dtype=np.int64)
        self.pair_items = np.asarray(pair_items, dtype=np.int64)
        self.pair_counts = np.asarray(pair_counts, dtype=np.int64)
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        if not (len(self.pair_users) == len(self.pair_items) == len(self.pair_counts)):
            raise ValueError("pair arrays disagree in length")
        if len(self.pair_counts) and self.pair_counts.min() < 1:
            raise ValueError("pair counts must be positive")
        # canonical pair order pins the phase tables' layout across rebuilds
        order = np.lexsort((self.pair_items, self.pair_users))
        self.pair_users = self.pair_users[order]
        self.pair_items = self.pair_items[order]
        self.pair_counts = self.pair_counts[order]

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items

    @property
    def num_pairs(self) -> int:
        return len(self.pair_users)


def build_static(g: TemporalGraph) -> StaticGraph:
    if g.num_events == 0:
        raise ValueError("cannot transform an empty graph")
    key = g.users * g.num_items + g.items
    uniq, counts = np.unique(key, return_counts=True)
    return StaticGraph(uniq // g.num_items, uniq % g.num_items, counts, g.num_users, g.num_items)


class TransformedGraph:
    """Interaction pairs plus virtual feature nodes and their attachment
    edges, node-major."""

    def __init__(self, static: StaticGraph, user_features, item_features, feature_vocab):
        self.static = static
        self.feature_vocab = list(feature_vocab)
        self.user_features = Csr.of(user_features)
        self.item_features = Csr.of(item_features)
        if len(self.user_features) != static.num_users:
            raise ValueError("user feature table size mismatch")
        if len(self.item_features) != static.num_items:
            raise ValueError("item feature table size mismatch")
        nodes = Csr.concat([self.user_features, self.item_features])
        if len(nodes.values) and (nodes.values.min() < 0 or nodes.values.max() >= self.num_features):
            raise ValueError("feature id outside vocabulary")
        # attachment edges (node, feature), sorted by node then feature
        node_ids = nodes.segment_ids()
        self.node_features = Csr(nodes.offsets, nodes.values[np.lexsort((nodes.values, node_ids))])
        self.feat_edge_node = node_ids
        self.feat_edge_feat = self.node_features.values

    @property
    def num_users(self) -> int:
        return self.static.num_users

    @property
    def num_items(self) -> int:
        return self.static.num_items

    @property
    def num_features(self) -> int:
        return len(self.feature_vocab)

    @property
    def num_graph_nodes(self) -> int:
        return self.static.num_nodes

    @property
    def num_nodes(self) -> int:
        return self.num_graph_nodes + self.num_features


def build_transformed(static: StaticGraph, user_features, item_features, feature_vocab) -> TransformedGraph:
    return TransformedGraph(static, user_features, item_features, feature_vocab)


def transform_graph(g: TemporalGraph) -> TransformedGraph:
    """Full pipeline: temporal graph -> static -> transformed."""
    return build_transformed(build_static(g), g.user_features, g.item_features, g.feature_vocab)


# -- blob format ------------------------------------------------------------------
# A transformed graph on disk is its interaction pairs and, per side, the flat
# feature ids and row lengths of its feature table, plus `num_users`,
# `num_items` and `feature_vocab` in the meta. A `.cache` file holds one at
# array names without a prefix; a TGN checkpoint holds its source graph's at
# names prefixed "graph.".

_SIDES = ("user", "item")


def graph_blob(tg: TransformedGraph, prefix: str = "") -> tuple[dict, dict]:
    """(meta, arrays) of `tg` in the blob format, array names under `prefix`."""
    meta = {"num_users": tg.num_users, "num_items": tg.num_items, "feature_vocab": tg.feature_vocab}
    s = tg.static
    arrays = {"pair_users": s.pair_users, "pair_items": s.pair_items, "pair_counts": s.pair_counts}
    for side, table in zip(_SIDES, (tg.user_features, tg.item_features)):
        arrays[f"{side}_feat_values"] = table.values
        arrays[f"{side}_feat_lengths"] = table.lengths
    return meta, {prefix + name: arr for name, arr in arrays.items()}


def graph_from_blob(meta: dict, arrays: dict, prefix: str = "") -> TransformedGraph:
    """The transformed graph `graph_blob` wrote; CheckpointError when a field
    is missing."""
    num_users, num_items, vocab = require(meta, "num_users", "num_items", "feature_vocab")
    pairs = require(arrays, *(prefix + name for name in ("pair_users", "pair_items", "pair_counts")))
    tables = [
        Csr.from_lengths(*require(arrays, f"{prefix}{side}_feat_lengths", f"{prefix}{side}_feat_values"))
        for side in _SIDES
    ]
    return build_transformed(StaticGraph(*pairs, num_users, num_items), *tables, vocab)


def save_transformed(tg: TransformedGraph, path) -> None:
    meta, arrays = graph_blob(tg)
    write_blob(path, {"kind": "transformed-graph-cache", **meta}, arrays)


def load_transformed(path) -> TransformedGraph:
    meta, arrays = read_blob(path)
    if meta.get("kind") != "transformed-graph-cache":
        raise ValueError(f"{path} is not a transformed graph cache")
    return graph_from_blob(meta, arrays)
