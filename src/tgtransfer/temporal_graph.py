"""Temporal interaction graphs: ingestion, splits, neighbor queries, batching.

A graph is a time-ordered sequence of user-item interactions over a bipartite
node set, plus static categorical feature-id sets per node. Everything here is
immutable after construction; splits and slices share the parent's vocabulary
and node tables so indices mean the same thing across pieces.

Node indexing convention used package-wide: users occupy global ids
[0, num_users) and items [num_users, num_users + num_items).

Every ragged per-node table is one `Csr`: a flat `values` array cut into rows
by an `offsets` array, row r being values[offsets[r]:offsets[r + 1]]. That
holds the feature ids of users and of items, the embedding rows a model binds
to them, and the temporal adjacency, whose flat neighbor, time and ordinal
arrays are sorted by (node, time) under one offsets array. A batch neighbor
lookup answers in that layout too: flat arrays and one row length per query.
"""

from __future__ import annotations

import csv
from typing import Iterator, NamedTuple

import numpy as np


class Csr:
    """Read-only sequence of int64 rows in compressed sparse row layout.

    Indexing a row out of range raises KeyError: rows are per-node tables,
    and a bad node id must not wrap around to the last row.
    """

    def __init__(self, offsets, values):
        # views, so freezing them leaves the caller's arrays writable
        self.offsets = np.asarray(offsets, dtype=np.int64).view()
        self.values = np.asarray(values, dtype=np.int64).view()
        if self.offsets.ndim != 1 or self.values.ndim != 1 or len(self.offsets) == 0:
            raise ValueError("CSR offsets and values must be non-empty 1-D arrays")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.values) or np.any(np.diff(self.offsets) < 0):
            raise ValueError("CSR offsets must rise from 0 to the number of values")
        self.offsets.flags.writeable = False
        self.values.flags.writeable = False

    @classmethod
    def of(cls, rows) -> "Csr":
        """`rows` itself if it is a Csr, else a table built from a list of rows."""
        if isinstance(rows, Csr):
            return rows
        rows = [np.asarray(r, dtype=np.int64) for r in rows]
        values = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        return cls.from_lengths([len(r) for r in rows], values)

    @classmethod
    def from_lengths(cls, lengths, values) -> "Csr":
        return cls(np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]), values)

    @classmethod
    def concat(cls, tables) -> "Csr":
        """The rows of every table in turn."""
        return cls.from_lengths(
            np.concatenate([t.lengths for t in tables]), np.concatenate([t.values for t in tables])
        )

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def bounds(self, row: int) -> tuple[int, int]:
        """(start, end) of `row` in `values`."""
        if not 0 <= row < len(self):
            raise KeyError(f"unknown node {row}")
        return int(self.offsets[row]), int(self.offsets[row + 1])

    def __getitem__(self, row: int) -> np.ndarray:
        lo, hi = self.bounds(row)
        return self.values[lo:hi]

    def __iter__(self) -> Iterator[np.ndarray]:
        offsets = self.offsets.tolist()
        return (self.values[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))

    def segment_ids(self) -> np.ndarray:
        """Row index of every value."""
        return np.repeat(np.arange(len(self)), self.lengths)

    def take(self, rows) -> "Csr":
        """The table of the given rows, in the given order, repeats allowed."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= len(self)):
            raise KeyError("unknown node in row selection")
        lengths = self.lengths[rows]
        offsets = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
        pos = np.arange(offsets[-1]) + np.repeat(self.offsets[rows] - offsets[:-1], lengths)
        return Csr(offsets, self.values[pos])


class EventBatch(NamedTuple):
    users: np.ndarray
    items: np.ndarray
    times: np.ndarray
    edge_features: np.ndarray
    ordinals: np.ndarray


class TemporalGraph:
    """Sorted event arrays plus node/feature vocabularies.

    `users`/`items` hold dense per-partition indices; `times` is sorted
    non-decreasing with ties kept in ingestion order.
    """

    def __init__(
        self,
        users: np.ndarray,
        items: np.ndarray,
        times: np.ndarray,
        edge_features: np.ndarray,
        user_ids: list[str],
        item_ids: list[str],
        feature_vocab: list[str],
        user_features,
        item_features,
    ):
        self.users = np.asarray(users, dtype=np.int64)
        self.items = np.asarray(items, dtype=np.int64)
        self.times = np.asarray(times, dtype=np.float64)
        self.edge_features = np.asarray(edge_features, dtype=np.float64)
        if self.edge_features.ndim == 1:
            self.edge_features = self.edge_features.reshape(len(self.times), -1)
        self.user_ids = list(user_ids)
        self.item_ids = list(item_ids)
        self.feature_vocab = list(feature_vocab)
        self.user_features = Csr.of(user_features)
        self.item_features = Csr.of(item_features)
        self._validate()

    def _validate(self) -> None:
        n = len(self.times)
        if not (len(self.users) == len(self.items) == n == len(self.edge_features)):
            raise ValueError("event arrays disagree in length")
        if n and np.any(np.diff(self.times) < 0):
            raise ValueError("events must be sorted non-decreasing by time")
        if n and self.times.min() < 0:
            raise ValueError("timestamps must be non-negative")
        if len(self.user_features) != len(self.user_ids):
            raise ValueError("user feature table size mismatch")
        if len(self.item_features) != len(self.item_ids):
            raise ValueError("item feature table size mismatch")
        feats = self.node_features.values
        if feats.size and (feats.min() < 0 or feats.max() >= len(self.feature_vocab)):
            raise ValueError("node feature id outside vocabulary")

    # -- sizes and indexing ----------------------------------------------------

    @property
    def num_events(self) -> int:
        return len(self.times)

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items

    @property
    def edge_feature_dim(self) -> int:
        return self.edge_features.shape[1]

    @property
    def node_features(self) -> Csr:
        """Feature ids per global node id: user rows, then item rows."""
        return Csr.concat([self.user_features, self.item_features])

    def slice(self, start: int, end: int) -> "TemporalGraph":
        """Event window [start, end); shares vocab and node tables."""
        return TemporalGraph(
            self.users[start:end],
            self.items[start:end],
            self.times[start:end],
            self.edge_features[start:end],
            self.user_ids,
            self.item_ids,
            self.feature_vocab,
            self.user_features,
            self.item_features,
        )


# -- ingestion -----------------------------------------------------------------

_REQUIRED_COLUMNS = ("user_id", "item_id", "timestamp", "user_feature_ids", "item_feature_ids")


class IngestError(ValueError):
    pass


def _split_tokens(cell: str) -> list[str]:
    cell = cell.strip()
    return [tok for tok in cell.split("|") if tok] if cell else []


def load_events(path) -> TemporalGraph:
    """Parse the interaction CSV; see module docstring for index conventions.

    Dense node ids follow first appearance in file order and feature ids
    follow first appearance, so reloading the same file reproduces identical
    indexing. A node's feature set is the union over all its rows.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestError(f"{path}: empty file")
        missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise IngestError(f"{path}: missing columns {missing}")
        has_edge_feats = "edge_features" in reader.fieldnames

        user_index: dict[str, int] = {}
        item_index: dict[str, int] = {}
        feat_index: dict[str, int] = {}
        user_feats: list[set] = []
        item_feats: list[set] = []
        users, items, times, efeats = [], [], [], []
        edge_dim = None

        for row in reader:
            try:
                absent = [c for c in _REQUIRED_COLUMNS if row[c] is None]  # a row cut short
                if absent:
                    raise ValueError(f"missing columns {absent}")
                raw_u = row["user_id"].strip()
                raw_i = row["item_id"].strip()
                if not raw_u or not raw_i:
                    raise ValueError("empty user_id or item_id")
                t = float(row["timestamp"])
                if not np.isfinite(t) or t < 0:
                    raise ValueError(f"bad timestamp {row['timestamp']!r}")
                u_tokens = _split_tokens(row["user_feature_ids"])
                i_tokens = _split_tokens(row["item_feature_ids"])
                ef = []
                if has_edge_feats:
                    ef = [float(v) for v in _split_tokens(row["edge_features"] or "")]
                    if not np.isfinite(ef).all():
                        raise ValueError(f"non-finite edge feature in {row['edge_features']!r}")
            except (TypeError, ValueError, KeyError) as err:
                raise IngestError(f"{path}:{reader.line_num}: malformed row: {err}") from err

            if raw_u not in user_index:
                user_index[raw_u] = len(user_index)
                user_feats.append(set())
            if raw_i not in item_index:
                item_index[raw_i] = len(item_index)
                item_feats.append(set())
            u = user_index[raw_u]
            i = item_index[raw_i]
            for tok in u_tokens:
                if tok not in feat_index:
                    feat_index[tok] = len(feat_index)
                user_feats[u].add(feat_index[tok])
            for tok in i_tokens:
                if tok not in feat_index:
                    feat_index[tok] = len(feat_index)
                item_feats[i].add(feat_index[tok])

            if edge_dim is None:
                edge_dim = len(ef)
            elif len(ef) != edge_dim:
                raise IngestError(f"{path}:{reader.line_num}: edge feature arity changed")
            users.append(u)
            items.append(i)
            times.append(t)
            efeats.append(ef)

    if not times:
        raise IngestError(f"{path}: no event rows")

    order = np.argsort(np.asarray(times), kind="stable")
    users_a = np.asarray(users, dtype=np.int64)[order]
    items_a = np.asarray(items, dtype=np.int64)[order]
    times_a = np.asarray(times, dtype=np.float64)[order]
    efeats_a = np.asarray(efeats, dtype=np.float64).reshape(len(times), edge_dim or 0)[order]

    vocab = [tok for tok, _ in sorted(feat_index.items(), key=lambda kv: kv[1])]
    user_ids = [rid for rid, _ in sorted(user_index.items(), key=lambda kv: kv[1])]
    item_ids = [rid for rid, _ in sorted(item_index.items(), key=lambda kv: kv[1])]
    return TemporalGraph(
        users_a,
        items_a,
        times_a,
        efeats_a,
        user_ids,
        item_ids,
        vocab,
        [np.array(sorted(s), dtype=np.int64) for s in user_feats],
        [np.array(sorted(s), dtype=np.int64) for s in item_feats],
    )


# -- splits and batching ---------------------------------------------------------


def chronological_split(g: TemporalGraph, fractions) -> tuple[TemporalGraph, TemporalGraph, TemporalGraph]:
    """Cut the sorted stream at floor(N*f1) and floor(N*(f1+f2))."""
    f1, f2, f3 = (float(f) for f in fractions)
    if min(f1, f2, f3) <= 0 or abs(f1 + f2 + f3 - 1.0) > 1e-9:
        raise ValueError(f"fractions must be positive and sum to 1, got {fractions}")
    n = g.num_events
    if n < 3:
        raise ValueError("need at least 3 events to split")
    a = int(np.floor(n * f1))
    b = int(np.floor(n * (f1 + f2)))
    return g.slice(0, a), g.slice(a, b), g.slice(b, n)


def batch_iter(g: TemporalGraph, batch_size: int) -> Iterator[EventBatch]:
    """Contiguous chronological slices; the final batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    for start in range(0, g.num_events, batch_size):
        end = min(start + batch_size, g.num_events)
        yield EventBatch(
            g.users[start:end],
            g.items[start:end],
            g.times[start:end],
            g.edge_features[start:end],
            np.arange(start, end, dtype=np.int64),
        )


def sample_negatives(pos_items: np.ndarray, num_items: int, rng: np.random.Generator) -> np.ndarray:
    """One uniform item per positive, resampled while colliding with it."""
    pos_items = np.asarray(pos_items, dtype=np.int64)
    if num_items < 2:
        raise ValueError("negative sampling needs at least 2 items")
    neg = rng.integers(0, num_items, size=len(pos_items))
    while True:
        clash = neg == pos_items
        if not clash.any():
            break
        neg[clash] = rng.integers(0, num_items, size=int(clash.sum()))
    return neg


# -- temporal neighborhoods -------------------------------------------------------


class NeighborIndex:
    """Per-node time-ordered adjacency over a full event stream.

    Queries return interactions strictly before the query time, newest first,
    as global node ids. Built once, never mutated; querying at a training-time
    t can therefore never see an event at t or later.

    Every event appears once under each endpoint. The flat neighbor, time and
    ordinal arrays are sorted by (node, event ordinal), hence by (node, time),
    and `adjacency` cuts them into per-node rows.
    """

    def __init__(self, g: TemporalGraph):
        self._g = g
        items_g = g.items + g.num_users
        ordinals = np.arange(g.num_events, dtype=np.int64)
        node = np.concatenate([g.users, items_g])
        # stable: each node keeps its events in stream order
        order = np.argsort(node, kind="stable")
        self.adjacency = Csr.from_lengths(
            np.bincount(node, minlength=g.num_nodes), np.concatenate([items_g, g.users])[order]
        )
        self._times = np.concatenate([g.times, g.times])[order]
        self._ords = np.concatenate([ordinals, ordinals])[order]
        # integer (node, time rank) keys ascend along the flat arrays; a query
        # key counts the distinct event times strictly before the query time
        self._stamps, rank = np.unique(self._times, return_inverse=True)
        self._stride = len(self._stamps) + 1
        self._keys = self.adjacency.segment_ids() * self._stride + rank

    @property
    def num_nodes(self) -> int:
        return len(self.adjacency)

    def history_lengths(self, nodes: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Interactions of each (node, t) query strictly before t; its
        `batch_neighbors` row holds the k newest of them."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise KeyError("neighbor query for unknown node")
        query = nodes * self._stride + np.searchsorted(self._stamps, ts, side="left")
        return np.searchsorted(self._keys, query, side="left") - self.adjacency.offsets[nodes]

    def batch_neighbors(self, nodes: np.ndarray, ts: np.ndarray, k: int | np.ndarray):
        """The k newest interactions before each (node, time) query, as CSR rows.

        `k` is one integer for every query or an integer array with one
        entry per query. Returns (ids, times, ordinals, count): flat arrays
        holding the rows in query order, newest first within each row, and
        each row's length, `count` = min(history_lengths, k).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        length = self.history_lengths(nodes, ts)
        count = np.minimum(length, k)
        cut = self.adjacency.offsets[nodes] + length
        starts = np.cumsum(count) - count
        # slot j of query r sits at starts[r] + j and reads position cut[r] - 1 - j
        src = np.repeat(cut - 1 + starts, count) - np.arange(count.sum())
        return self.adjacency.values[src], self._times[src], self._ords[src], count

    def edge_features_for(self, ordinals: np.ndarray) -> np.ndarray:
        """Edge feature rows of the given event ordinals, one row each."""
        return self._g.edge_features[ordinals]
