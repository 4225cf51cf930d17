"""Attribute-decoupled static transformation of a temporal interaction graph.

The transformation forgets timestamps and edge features. What remains is a
directed interaction-frequency graph over the original bipartite nodes, plus
one virtual node per categorical feature token, attached to every graph node
carrying that token. Feature-node identity is the vocab token string, so two
graphs sharing a vocabulary share feature nodes.

Node id layout inside a transformed graph with U users, I items, F features:
users [0, U), items [U, U+I), feature nodes [U+I, U+I+F).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .numerics.checkpoint import read_blob, require, write_blob
from .temporal_graph import Csr, TemporalGraph


class StaticGraph:
    """Directed frequency-weighted interaction graph over global node ids.

    Built from the multiset of (user, item) interaction pairs; each pair with
    count c yields u->item and item->u edges, and every node's outgoing
    weights are its interaction fractions (they sum to 1 for any node with at
    least one interaction).
    """

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
        # canonical pair order pins adjacency layout across rebuilds
        order = np.lexsort((self.pair_items, self.pair_users))
        self.pair_users = self.pair_users[order]
        self.pair_items = self.pair_items[order]
        self.pair_counts = self.pair_counts[order]
        self._build_adjacency()

    def _build_adjacency(self) -> None:
        # directed edge list: one u->v entry per ordered pair with >=1 event
        item_g = self.pair_items + self.num_users
        src = np.concatenate([self.pair_users, item_g])
        dst = np.concatenate([item_g, self.pair_users])
        cnt = np.concatenate([self.pair_counts, self.pair_counts]).astype(np.float64)
        # integer counts, so the totals are exact in any summation order
        totals = np.bincount(src, weights=cnt, minlength=self.num_nodes)
        weight = cnt / totals[src]

        order = np.lexsort((dst, src))
        self.edge_src = src[order]
        self.edge_weight = weight[order]
        self._out = Csr.from_lengths(np.bincount(src, minlength=self.num_nodes), dst[order])
        self.edge_dst = self._out.values

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items

    @property
    def num_pairs(self) -> int:
        return len(self.pair_users)

    def out_neighbors(self, node: int):
        """(neighbor global ids, interaction fractions) for `node`."""
        lo, hi = self._out.bounds(node)
        return self.edge_dst[lo:hi], self.edge_weight[lo:hi]


def build_static(g: TemporalGraph) -> StaticGraph:
    if g.num_events == 0:
        raise ValueError("cannot transform an empty graph")
    key = g.users * g.num_items + g.items
    uniq, counts = np.unique(key, return_counts=True)
    return StaticGraph(uniq // g.num_items, uniq % g.num_items, counts, g.num_users, g.num_items)


class Neighborhood(NamedTuple):
    graph_ids: np.ndarray
    graph_weights: np.ndarray
    feature_ids: np.ndarray
    feature_weights: np.ndarray


class TransformedGraph:
    """Static graph plus virtual feature nodes and their attachment edges."""

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
        # attachment edges (node, feature), sorted by node then feature, and
        # per-node and per-feature views of them
        node_ids = nodes.segment_ids()
        self.node_features = Csr(nodes.offsets, nodes.values[np.lexsort((nodes.values, node_ids))])
        self.feat_edge_node = node_ids
        self.feat_edge_feat = self.node_features.values
        by_feat = np.lexsort((node_ids, nodes.values))
        self.feature_nodes = Csr.from_lengths(
            np.bincount(nodes.values, minlength=self.num_features), node_ids[by_feat]
        )

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

    def feature_global(self, feat_id):
        """Feature id -> transformed-graph node id."""
        return self.num_graph_nodes + feat_id


def build_transformed(static: StaticGraph, user_features, item_features, feature_vocab) -> TransformedGraph:
    return TransformedGraph(static, user_features, item_features, feature_vocab)


def neighborhoods(tg: TransformedGraph, node: int) -> Neighborhood:
    """Graph and feature neighbor lists of a transformed-graph node.

    Graph nodes see their static out-neighbors weighted by interaction
    fraction and their feature nodes weighted uniformly 1/|F_u|; a feature
    node sees its attached graph nodes weighted uniformly. Weights always sum
    to 1 over each non-empty list.
    """
    if not 0 <= node < tg.num_nodes:
        raise KeyError(f"unknown node {node}")
    if node < tg.num_graph_nodes:
        g_ids, g_w = tg.static.out_neighbors(node)
        feats = tg.node_features[node]
        f_ids = tg.feature_global(feats)
        f_w = np.full(len(feats), 1.0 / len(feats)) if len(feats) else np.zeros(0)
        return Neighborhood(g_ids, g_w, f_ids, f_w)
    attached = tg.feature_nodes[node - tg.num_graph_nodes]
    w = np.full(len(attached), 1.0 / len(attached)) if len(attached) else np.zeros(0)
    return Neighborhood(attached, w, np.zeros(0, dtype=np.int64), np.zeros(0))


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
