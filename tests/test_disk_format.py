"""Pinned on-disk bytes of the transformed-graph cache and the TGN checkpoint.

The digests below were recorded from files written by the package before
node feature tables moved to the CSR layout. Writing the same tiny graph
must still give the same bytes, so caches and checkpoints written by older
versions still load, and reading a file back and writing it again must
reproduce it exactly.
"""

import hashlib

import numpy as np
import pytest

from tgtransfer import temporal_graph as tg
from tgtransfer import fgat, tgn, transform
from tgtransfer.numerics import Adam, CheckpointError, read_blob, write_blob

PINNED = {
    "transformed.cache": "7186495581c25b0566424c95a3913980c091327039d8b1e92ca2649f34e7823b",
    "tgn.ckpt": "3574427889196696cd993572c4fc463f0dc98b60e9bbf3474e5c2630cb10eb5e",
}


def tiny_graph():
    # one unsorted feature row and empty rows on both sides
    return tg.TemporalGraph(
        np.array([0, 1, 0, 2, 1]),
        np.array([1, 0, 2, 2, 1]),
        np.array([0.5, 1.0, 1.0, 2.5, 3.0]),
        np.array([[0.25], [1.5], [-2.0], [0.0], [3.25]]),
        ["u0", "u1", "u2"],
        ["i0", "i1", "i2"],
        ["a", "b", "c", "d"],
        [np.array([2, 0]), np.array([], dtype=np.int64), np.array([3])],
        [np.array([1]), np.array([1, 2, 3]), np.array([], dtype=np.int64)],
    )


def write_all(tmp_path):
    g = tiny_graph()
    paths = {name: tmp_path / name for name in PINNED}
    transform.save_transformed(transform.transform_graph(g), paths["transformed.cache"])
    cfg = tgn.TgnConfig(d_mem=4, d_time=2, d_feat=4, n_heads=1, k_neighbors=2, batch_size=2)
    rng = np.random.default_rng(11)
    model = tgn.TgnModel(cfg, g.feature_vocab, g.edge_feature_dim, rng)
    state = tgn.MemoryState(rng.normal(size=(g.num_nodes, 4)), rng.uniform(0, 3, g.num_nodes))
    static = transform.build_static(g)
    tgn.snapshot(model, state, Adam(lr=0.01), paths["tgn.ckpt"], source_graph=g,
                 train_pairs=(static.pair_users, static.pair_items, static.pair_counts))
    return paths


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_written_bytes_are_pinned(tmp_path, name):
    assert sha256(write_all(tmp_path)[name]) == PINNED[name]


def test_read_then_write_reproduces_files(tmp_path):
    paths = write_all(tmp_path)
    g = tiny_graph()
    tgx = transform.load_transformed(paths["transformed.cache"])
    transform.save_transformed(tgx, tmp_path / "again.tcache")
    assert sha256(tmp_path / "again.tcache") == sha256(paths["transformed.cache"])

    ckpt = tgn.restore(paths["tgn.ckpt"])
    assert [list(r) for r in ckpt.source.user_features] == [[2, 0], [], [3]]
    assert [list(r) for r in ckpt.source.item_features] == [[1], [1, 2, 3], []]
    s = ckpt.source.static
    pairs = (s.pair_users, s.pair_items, s.pair_counts)
    tgn.snapshot(ckpt.model, ckpt.state, ckpt.optimizer, tmp_path / "again.ckpt",
                 source_graph=g, train_pairs=pairs)
    assert sha256(tmp_path / "again.ckpt") == sha256(paths["tgn.ckpt"])


@pytest.mark.parametrize("load, kind", [
    (transform.load_transformed, "transformed-graph-cache"),
    (tgn.restore, "tgn-checkpoint"),
    (fgat.load_fgat, "fgat-checkpoint"),
])
def test_loaders_reject_a_missing_meta_key(tmp_path, load, kind):
    path = tmp_path / "bare.bin"
    write_blob(path, {"kind": kind}, {})
    with pytest.raises(CheckpointError, match="lacks"):
        load(path)


def test_restore_accepts_adam_only(tmp_path):
    meta, arrays = read_blob(write_all(tmp_path)["tgn.ckpt"])
    meta["optimizer"]["kind"] = "sgd"
    write_blob(tmp_path / "sgd.ckpt", meta, arrays)
    with pytest.raises(CheckpointError, match="optimizer"):
        tgn.restore(tmp_path / "sgd.ckpt")
