"""Pinned on-disk bytes of the transformed-graph cache, the TGN checkpoint
and the FGAT encoder checkpoint.

The cache digest was recorded from a file written by the package before
node feature tables moved to the CSR layout, the TGN checkpoint digest after
the checkpoint stopped holding Adam's step count and moments, which no
transfer reads (the earlier pinned file without them), and the encoder
checkpoint digest before the four FGAT phase tables came from one builder.
The encoder is untrained, so it holds uniform draws only and its bytes do
not depend on the BLAS.
Writing the same tiny graph and models must still give the same bytes, so
files written by older versions still load and no weight is renamed or
dropped unnoticed, and reading a file back and writing it again must
reproduce it exactly.
"""

import hashlib

import numpy as np
import pytest

from tgtransfer import temporal_graph as tg
from tgtransfer import fgat, tgn, transform
from tgtransfer.numerics import Adam, CheckpointError, read_blob, write_blob
from tgtransfer.numerics import tensor as T

PINNED = {
    "transformed.cache": "7186495581c25b0566424c95a3913980c091327039d8b1e92ca2649f34e7823b",
    "tgn.ckpt": "96fc667beeb98f5ede7952e4e4a80a0d4772a7457db6ed52017c737b87b45d03",
    "fgat.ckpt": "a61be0cc94a528e6ddc657125ab3d3a96f5c609ded0b3528e56ed6f74fbec31d",
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


TINY_TGN = tgn.TgnConfig(d_mem=4, d_time=2, d_feat=4, n_heads=1, k_neighbors=2, batch_size=2)


def snapshot(model, state, path, g):
    """`tgn.snapshot` with `g` as the source graph, over all of its pairs."""
    static = transform.build_static(g)
    tgn.snapshot(model, state, None, path, source_graph=g,
                 train_pairs=(static.pair_users, static.pair_items, static.pair_counts))


def write_all(tmp_path):
    g = tiny_graph()
    paths = {name: tmp_path / name for name in PINNED}
    transform.save_transformed(transform.transform_graph(g), paths["transformed.cache"])
    rng = np.random.default_rng(11)
    model = tgn.TgnModel(TINY_TGN, g.feature_vocab, g.edge_feature_dim, rng)
    state = tgn.MemoryState(rng.normal(size=(g.num_nodes, 4)), rng.uniform(0, 3, g.num_nodes))
    snapshot(model, state, paths["tgn.ckpt"], g)
    encoder = fgat.FgatModel(fgat.FgatConfig(dim=4), g.feature_vocab, np.random.default_rng(11))
    fgat.save_fgat(encoder, paths["fgat.ckpt"])
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
    tgn.snapshot(ckpt.model, ckpt.state, None, tmp_path / "again.ckpt",
                 source_graph=g, train_pairs=pairs)
    assert sha256(tmp_path / "again.ckpt") == sha256(paths["tgn.ckpt"])

    fgat.save_fgat(fgat.load_fgat(paths["fgat.ckpt"]), tmp_path / "again-fgat.ckpt")
    assert sha256(tmp_path / "again-fgat.ckpt") == sha256(paths["fgat.ckpt"])


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


def test_a_checkpoint_holding_the_key_bias_restores_without_it(tmp_path):
    """Older checkpoints hold Adam's step count and moments, under "optim."
    arrays and an "optimizer" meta key, and some also hold the attention key
    bias `att1.k.b`. `restore` drops them: such a checkpoint scores and
    trains on, with a fresh Adam, to the same bytes as one written without
    them, and snapshots again to the same bytes, without them."""
    g = tiny_graph()
    model = tgn.TgnModel(TINY_TGN, g.feature_vocab, g.edge_feature_dim, np.random.default_rng(11))
    state, _ = tgn.train(model, model.bind_graph(g), g, 1, np.random.default_rng(12))
    snapshot(model, state, tmp_path / "new.ckpt", g)
    meta, arrays = read_blob(tmp_path / "new.ckpt")
    params = {**model.pset.state_arrays(), "att1.k.b": np.random.default_rng(13).normal(size=4)}
    adam = {"optim.__step__": np.array([3.0]),
            **{f"optim.m.{name}": 0.1 * value for name, value in params.items()},
            **{f"optim.v.{name}": value**2 for name, value in params.items()}}
    write_blob(tmp_path / "old.ckpt", {**meta, "optimizer": {"kind": "adam", "lr": 0.01}},
               {**arrays, **params, **adam})
    users, items, ts = np.arange(3), g.num_users + np.array([2, 0, 1]), np.full(3, 3.5)
    runs = []
    for name in ("new.ckpt", "old.ckpt"):
        ckpt = tgn.restore(tmp_path / name)
        assert "att1.k.b" not in ckpt.model.pset.names()
        snapshot(ckpt.model, ckpt.state, tmp_path / "again.ckpt", g)
        again_meta, again = read_blob(tmp_path / "again.ckpt")
        assert "optimizer" not in again_meta
        assert [key for key in again if key.startswith("optim.") or "att1.k.b" in key] == []
        ctx = ckpt.model.bind_graph(g)
        with T.no_grad():
            probs = ckpt.model.score_pairs(ctx, T.constant(ckpt.state.memory), users, items, ts)
        trained, _ = tgn.train(ckpt.model, ctx, g, 1, np.random.default_rng(14), optimizer=Adam(lr=0.01))
        runs.append([(tmp_path / "again.ckpt").read_bytes(), probs.data.tobytes(), trained.memory.tobytes(),
                     *(t.data.tobytes() for t in ckpt.model.pset.tensors())])
    assert runs[0] == runs[1]
