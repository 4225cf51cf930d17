import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tgtransfer import cli
from tgtransfer import fgat as fg
from tgtransfer import synthdata as sd
from tgtransfer import tgn
from tgtransfer import transfer as tr
from tgtransfer.fgat import FgatModel
from tgtransfer.numerics import read_blob, write_blob
from tgtransfer.temporal_graph import load_events
from tgtransfer.tgn import restore
from tgtransfer.transform import load_transformed


TOY = """user_id,item_id,timestamp,user_feature_ids,item_feature_ids
u0,i0,1.0,a,c
u0,i1,2.0,a,
u1,i1,3.0,a|b,
"""


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY)
    return path


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = cli.main([
        "synth", "--out-dir", str(out), "--users", "12", "--items", "14",
        "--tokens", "12", "--communities", "3", "--events", "240",
        "--features-per-node", "2", "--seed", "5",
    ])
    assert rc == 0
    return out


# -- transform -------------------------------------------------------------------


def test_transform_toy_counts(toy_csv, tmp_path, capsys):
    out = tmp_path / "toy.cache"
    rc = cli.main(["transform", "--input", str(toy_csv), "--output", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "transformed nodes: 7" in printed  # 2 users + 2 items + 3 features
    tg = load_transformed(out)
    assert tg.num_nodes == 7 and tg.static.num_pairs == 3
    assert (tmp_path / "transform-config.json").exists()


def test_transform_missing_input(tmp_path, capsys):
    rc = cli.main(["transform", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "x")])
    assert rc == 2
    assert "nope.csv" in capsys.readouterr().err


def test_transform_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("user_id,item_id\nu0,i0\n")
    rc = cli.main(["transform", "--input", str(bad), "--output", str(tmp_path / "x")])
    assert rc == 1
    assert "missing columns" in capsys.readouterr().err


def test_transform_degree_filter(toy_csv, tmp_path, capsys):
    out = tmp_path / "filtered.cache"
    rc = cli.main([
        "transform", "--input", str(toy_csv), "--output", str(out), "--min-item-deg", "2",
    ])
    assert rc == 0
    tg = load_transformed(out)
    assert tg.num_items == 1  # only i1 has two interactions
    assert tg.num_users == 2


def test_transform_filter_dropping_everything(toy_csv, tmp_path, capsys):
    rc = cli.main([
        "transform", "--input", str(toy_csv), "--output", str(tmp_path / "x"),
        "--min-user-deg", "5",
    ])
    assert rc == 1
    assert "drops every event" in capsys.readouterr().err


# -- training commands ------------------------------------------------------------


TGN_FAST = ["--d-mem", "8", "--d-time", "4", "--d-feat", "8", "--k-neighbors", "4",
            "--batch-size", "60"]


def test_train_tgn_writes_checkpoint_and_loss_curve(synth_dir, tmp_path, capsys):
    out = tmp_path / "model.ckpt"
    rc = cli.main([
        "train-tgn", "--graph", str(synth_dir / "source.csv"), "--epochs", "2",
        "--seed", "3", "--out", str(out), *TGN_FAST,
    ])
    assert rc == 0
    ckpt = restore(out)
    assert ckpt.source.num_users == 12
    lines = (tmp_path / "model.ckpt.loss.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,loss" and len(lines) == 3


def test_train_tgn_zero_epochs_smoke(synth_dir, tmp_path):
    out = tmp_path / "init.ckpt"
    rc = cli.main([
        "train-tgn", "--graph", str(synth_dir / "source.csv"), "--epochs", "0",
        "--seed", "3", "--out", str(out), *TGN_FAST,
    ])
    assert rc == 0
    ckpt = restore(out)
    assert np.array_equal(ckpt.state.memory, np.zeros_like(ckpt.state.memory))


def test_train_tgn_deterministic_checkpoints(synth_dir, tmp_path):
    args = ["train-tgn", "--graph", str(synth_dir / "source.csv"), "--epochs", "1",
            "--seed", "9", *TGN_FAST]
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_tgn_rejects_non_finite_edge_features(tmp_path, capsys):
    csv = tmp_path / "nan.csv"
    csv.write_text(
        "user_id,item_id,timestamp,user_feature_ids,item_feature_ids,edge_features\n"
        "u0,i0,1.0,a,c,0.5\nu1,i0,2.0,b,c,nan\nu0,i1,3.0,a,d,1.0\n"
    )
    rc = cli.main(["train-tgn", "--graph", str(csv), "--epochs", "1", "--out", str(tmp_path / "m.ckpt"),
                   *TGN_FAST])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "nan.csv:3" in err[0]
    assert not (tmp_path / "m.ckpt").exists()


@pytest.fixture(scope="module")
def trained(synth_dir, tmp_path_factory):
    """Source checkpoint, encoder checkpoint, and target CSV via the CLI."""
    root = tmp_path_factory.mktemp("trained")
    src_ckpt = root / "source.ckpt"
    rc = cli.main([
        "train-tgn", "--graph", str(synth_dir / "source.csv"), "--epochs", "2",
        "--seed", "1", "--out", str(src_ckpt), *TGN_FAST,
    ])
    assert rc == 0
    pool = root / "pool"
    pool.mkdir()
    rc = cli.main([
        "transform", "--input", str(synth_dir / "source.csv"),
        "--output", str(pool / "source.cache"),
    ])
    assert rc == 0
    enc_ckpt = root / "encoder.ckpt"
    rc = cli.main([
        "train-fgat", "--pool", str(pool), "--epochs", "5", "--seed", "2",
        "--out", str(enc_ckpt), "--dim", "8",
    ])
    assert rc == 0
    return src_ckpt, enc_ckpt, synth_dir / "target.csv"


def test_train_fgat_loss_rows_and_empty_pool(trained, tmp_path, capsys):
    src_ckpt, enc_ckpt, _ = trained
    lines = Path(str(enc_ckpt) + ".loss.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,loss" and len(lines) == 6

    empty = tmp_path / "empty"
    empty.mkdir()
    rc = cli.main(["train-fgat", "--pool", str(empty), "--epochs", "1", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "no .cache" in capsys.readouterr().err


def test_train_fgat_forbid_rejects_pool_member(trained, tmp_path, capsys):
    _, _, _ = trained
    pool = Path(str(trained[1])).parent / "pool"
    rc = cli.main([
        "train-fgat", "--pool", str(pool), "--epochs", "1", "--out", str(tmp_path / "x"),
        "--forbid", str(pool / "source.cache"),
    ])
    assert rc == 1
    assert "forbidden" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value, says", [
    ("train-fgat", "--dim", "0", "dim must be a positive integer, got 0"),
    ("train-fgat", "--layers", "0", "n_layers must be a positive integer, got 0"),
    ("train-fgat", "--lr", "nan", "lr must be finite and >= 0, got nan"),
    ("train-fgat", "--lr", "-1", "lr must be finite and >= 0, got -1.0"),
    ("train-tgn", "--d-mem", "0", "d_mem must be a positive integer, got 0"),
    ("train-tgn", "--d-feat", "0", "d_feat must be a positive integer, got 0"),
    ("train-tgn", "--heads", "0", "n_heads must be a positive integer, got 0"),
    ("train-tgn", "--k-neighbors", "0", "k_neighbors must be a positive integer, got 0"),
    ("train-tgn", "--layers", "-1", "n_layers must be an integer >= 0, got -1"),
    ("train-tgn", "--lr", "nan", "lr must be finite and >= 0, got nan"),
    ("train-tgn", "--lr", "-1", "lr must be finite and >= 0, got -1.0"),
    ("train-tgn", "--context-dropout", "-0.5", "context_dropout must be in [0, 1), got -0.5"),
])
def test_bad_model_config_is_one_error_line(trained, tmp_path, capsys, command, flag, value, says):
    """A config field out of range stops the command before training, as one
    `error:` line that names the field."""
    pool = Path(str(trained[1])).parent / "pool"
    source = ["--pool", str(pool)] if command == "train-fgat" else ["--graph", str(trained[2])]
    out = tmp_path / "model.ckpt"
    rc = cli.main([command, *source, "--epochs", "1", "--out", str(out), flag, value])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {says}"]
    assert not out.exists()


@pytest.mark.parametrize("command, value", [("train-tgn", "-2"), ("train-fgat", "-1")])
def test_negative_epochs_is_one_error_line(trained, tmp_path, capsys, command, value):
    """A negative epoch count ends the command before training, as one
    `error:` line, with nothing on stdout and no checkpoint; 0 stays allowed."""
    pool = Path(str(trained[1])).parent / "pool"
    source = ["--pool", str(pool)] if command == "train-fgat" else ["--graph", str(trained[2]), *TGN_FAST]
    out = tmp_path / "model.ckpt"
    rc = cli.main([command, *source, "--epochs", value, "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: epochs must be an integer >= 0, got {value}"]
    assert captured.out == ""
    assert not out.exists()


def test_non_finite_ft_lr_is_one_error_line(trained, tmp_path, capsys):
    src_ckpt, _, target = trained
    out = tmp_path / "wt.json"
    rc = cli.main(["transfer", "--variant", "wt", "--target", str(target), "--src-ckpt", str(src_ckpt),
                   "--ft-epochs", "1", "--out", str(out), "--ft-lr", "nan"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: ft_lr must be finite and > 0, got nan"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value, says", [
    ("--ft-lr", "nan", "ft_lr must be finite and > 0, got nan"),
    ("--ft-epochs", "-1", "ft_epochs must be an integer >= 0, got -1"),
    ("--d-mem", "0", "d_mem must be a positive integer, got 0"),
])
def test_rejected_transfer_config_writes_nothing_to_stdout(trained, tmp_path, capsys, flag, value, says):
    """A rejected transfer config ends the command before any output: one
    `error:` line on stderr and an empty stdout, without the CSV header."""
    src_ckpt, _, target = trained
    out = tmp_path / "wt.json"
    rc = cli.main(["transfer", "--variant", "wt", "--target", str(target), "--src-ckpt", str(src_ckpt),
                   "--out", str(out), flag, value])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {says}"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-fgat", "train-tgn"])
def test_diverging_training_is_an_error_line(trained, tmp_path, capsys, command):
    """A learning rate that drives the parameters to overflow ends the
    command with an `error:` line naming the op, not a traceback."""
    pool = Path(str(trained[1])).parent / "pool"
    source = ["--pool", str(pool)] if command == "train-fgat" else ["--graph", str(trained[2]), *TGN_FAST]
    out = tmp_path / "model.ckpt"
    with np.errstate(all="ignore"):
        rc = cli.main([command, *source, "--epochs", "5", "--out", str(out), "--lr", "1e300"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite values produced by op '")
    assert not out.exists()


# -- transfer ---------------------------------------------------------------------


def test_transfer_nt_report_and_warning(trained, tmp_path, capsys):
    src_ckpt, _, target = trained
    out = tmp_path / "report.json"
    rc = cli.main([
        "transfer", "--variant", "nt", "--target", str(target), "--src-ckpt", str(src_ckpt),
        "--nt-epochs", "2", "--seed", "4", "--out", str(out), *TGN_FAST,
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "ignored for variant nt" in captured.err
    report = json.loads(out.read_text())
    assert report["variant"] == "nt"
    assert len(report["losses"]) == 2  # one per --nt-epochs epoch
    for split in ("val", "test"):
        for metric in ("ap", "auc", "mrr", "recall_at_k"):
            assert 0.0 <= report[split][metric] <= 1.0
    assert report["val"]["mrr"] == report["val"]["recall_at_k"] == 0.0  # only test is ranked
    assert report["test"]["mrr"] > 0.0


def test_transfer_report_carries_fine_tuning_losses(trained, tmp_path):
    src_ckpt, _, target = trained
    base = ["transfer", "--variant", "wt", "--target", str(target), "--src-ckpt", str(src_ckpt),
            "--no-rank-metrics"]
    for ft_epochs in (0, 2):
        out = tmp_path / f"ft{ft_epochs}.json"
        assert cli.main(base + ["--ft-epochs", str(ft_epochs), "--out", str(out)]) == 0
        losses = json.loads(out.read_text())["losses"]
        assert len(losses) == ft_epochs and all(isinstance(v, float) for v in losses)


def test_transfer_wt_requires_checkpoint(trained, tmp_path, capsys):
    _, _, target = trained
    rc = cli.main([
        "transfer", "--variant", "wt", "--target", str(target),
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "source checkpoint" in capsys.readouterr().err


def test_transfer_mintt_writes_mapping(trained, tmp_path):
    src_ckpt, enc_ckpt, target = trained
    out = tmp_path / "report.json"
    mapping_out = tmp_path / "mapping.json"
    rc = cli.main([
        "transfer", "--variant", "mintt", "--target", str(target),
        "--src-ckpt", str(src_ckpt), "--fgat-ckpt", str(enc_ckpt),
        "--ft-epochs", "1", "--seed", "4", "--out", str(out),
        "--mapping-out", str(mapping_out), "--no-rank-metrics",
    ])
    assert rc == 0
    entries = json.loads(mapping_out.read_text())
    tgt = load_events(target)
    assert len(entries) == tgt.num_users + tgt.num_items
    assert all(set(e) == {"target_id", "source_id", "similarity"} for e in entries)


def test_transfer_multi_seed_summary(trained, tmp_path, capsys):
    _, _, target = trained
    out = tmp_path / "report.json"
    rc = cli.main([
        "transfer", "--variant", "nt", "--target", str(target), "--nt-epochs", "1",
        "--seeds", "1..3", "--out", str(out), "--no-rank-metrics", *TGN_FAST,
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "variant,pair,seed,ap,auc,mrr,recall@20"
    assert len([ln for ln in lines if ln.startswith("nt,")]) == 5  # 3 seeds + mean + std
    report = json.loads(out.read_text())
    assert report["seeds"] == [1, 2, 3]
    assert len(report["runs"]) == 3
    assert [len(run["losses"]) for run in report["runs"]] == [1, 1, 1]  # --nt-epochs 1
    assert set(report["mean"]) == {"ap", "auc", "mrr", "recall_at_k"}
    metrics = ("ap", "auc", "mrr", "recall_at_k")
    rows = [[f"{run['seed']}", run["test"]] for run in report["runs"]]
    rows += [["mean", report["mean"]], ["std", report["std"]]]
    assert lines[1:] == [f"nt,target,{key}," + ",".join(f"{vals[m]:.6f}" for m in metrics)
                         for key, vals in rows]


def test_transfer_seeds_share_one_mintt_preparation(trained, tmp_path, monkeypatch):
    src_ckpt, enc_ckpt, target = trained
    calls = {"restore": 0, "encode": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    base = ["transfer", "--variant", "mintt", "--target", str(target), "--src-ckpt", str(src_ckpt),
            "--fgat-ckpt", str(enc_ckpt), "--ft-epochs", "1", "--no-rank-metrics"]
    with monkeypatch.context() as m:
        m.setattr(tr, "restore", counted("restore", tr.restore))
        m.setattr(FgatModel, "encode_arrays", counted("encode", FgatModel.encode_arrays))
        assert cli.main(base + ["--seeds", "1..3", "--out", str(tmp_path / "three.json"),
                                "--mapping-out", str(tmp_path / "three-map.json")]) == 0
    assert calls == {"restore": 1, "encode": 2}
    # a shared preparation gives each seed the bytes of a run of its own
    assert cli.main(base + ["--seed", "2", "--out", str(tmp_path / "one.json"),
                            "--mapping-out", str(tmp_path / "one-map.json")]) == 0
    three = json.loads((tmp_path / "three.json").read_text())
    one = json.loads((tmp_path / "one.json").read_text())
    assert three["runs"][1] == {"seed": 2, "losses": one["losses"], "val": one["val"], "test": one["test"]}
    assert (tmp_path / "three-map.json").read_bytes() == (tmp_path / "one-map.json").read_bytes()


def _meta_blob(meta: bytes) -> bytes:
    return b'{"arrays":[],"meta":{' + meta + b'},"schema":1}'


TGN_META = b'"edge_dim":0,"feature_vocab":[],"graph":null,"kind":"tgn-checkpoint","optimizer":{"kind":"adam","lr":0.001}'
FGAT_META = b'"feature_vocab":[],"kind":"fgat-checkpoint"'


@pytest.mark.parametrize("loader, header, says", [
    ("restore", b'{"meta":{"kind":"tgn-checkpoint"},"schema":1}', "lacks arrays"),
    ("restore", b'[{"meta":{},"schema":1}]', "error: "),
    ("restore", b'{"arrays":[{"dtype":"<f8","name":"a"}],"meta":{"kind":"tgn-checkpoint"},"schema":1}', "lacks shape"),
    ("restore", b'{"arrays":[],"meta":{"kind":"tgn-checkpoint"},"schema":1}', "lacks config"),
    ("restore", _meta_blob(b'"config":{"bogus":1,"d_mem":8},' + TGN_META), "unknown checkpoint config keys: bogus"),
    ("restore", _meta_blob(b'"config":[8],' + TGN_META), "config is not an object"),
    ("load_fgat", _meta_blob(b'"config":{"bogus":1,"dim":8},' + FGAT_META), "unknown checkpoint config keys: bogus"),
    ("load_fgat", _meta_blob(b'"config":"dim=8",' + FGAT_META), "config is not an object"),
    ("restore", _meta_blob(b'"config":{"k_neighbors":0},' + TGN_META), "config: k_neighbors must be a positive"),
    ("load_fgat", _meta_blob(b'"config":{"dim":"8"},' + FGAT_META), "config: dim must be a positive integer, got '8'"),
], ids=["no-arrays", "list", "entry-without-shape", "meta-without-config",
        "tgn-unknown-config-key", "tgn-config-not-object", "fgat-unknown-config-key", "fgat-config-not-object",
        "tgn-invalid-config", "fgat-invalid-config"])
def test_transfer_reports_malformed_checkpoint(trained, tmp_path, capsys, loader, header, says):
    src_ckpt, _, target = trained
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(header + b"\n")
    if loader == "restore":
        flags = ["--variant", "wt", "--src-ckpt", str(ckpt)]
    else:
        flags = ["--variant", "mintt", "--src-ckpt", str(src_ckpt), "--fgat-ckpt", str(ckpt)]
    rc = cli.main(["transfer", *flags, "--target", str(target), "--out", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err


@pytest.mark.parametrize("content, code", [
    (None, 2),
    (b'{"meta":{"kind":"tgn-checkpoint"},"schema":1}\n', 1),
], ids=["missing", "malformed"])
def test_unreadable_checkpoint_writes_nothing_to_stdout(trained, tmp_path, capsys, content, code):
    """A source checkpoint that cannot be read ends `transfer` before any
    output: one `error:` line on stderr and an empty stdout, without the CSV
    header."""
    _, _, target = trained
    ckpt = tmp_path / "nope.ckpt"
    if content is not None:
        ckpt.write_bytes(content)
    rc = cli.main(["transfer", "--variant", "wt", "--target", str(target), "--src-ckpt", str(ckpt),
                   "--out", str(tmp_path / "r.json")])
    assert rc == code
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == ""


def test_encoder_checkpoint_with_bad_slope_is_one_error_line(trained, tmp_path, capsys):
    src_ckpt, enc_ckpt, target = trained
    meta, arrays = read_blob(enc_ckpt)
    meta["config"]["slope"] = 1.5
    bad = tmp_path / "encoder.ckpt"
    write_blob(bad, meta, arrays)
    rc = cli.main(["transfer", "--variant", "mintt", "--target", str(target), "--src-ckpt", str(src_ckpt),
                   "--fgat-ckpt", str(bad), "--out", str(tmp_path / "r.json")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: bad checkpoint config: slope must be in [0, 1], got 1.5"]
    assert captured.out == ""


def test_encoder_checkpoint_with_a_last_phase_4_is_one_error_line(trained, tmp_path, capsys):
    """An encoder checkpoint that holds weights for the last layer's phase 4,
    which the schedule does not run, ends `transfer` before any output: one
    `error:` line naming those arrays and an empty stdout."""
    src_ckpt, enc_ckpt, target = trained
    meta, arrays = read_blob(enc_ckpt)
    last = f"layer{meta['config']['n_layers']}"
    arrays.update({k.replace(".phase3.", ".phase4."): v for k, v in arrays.items() if k.startswith(f"{last}.phase3.")})
    bad = tmp_path / "encoder.ckpt"
    write_blob(bad, meta, arrays)
    rc = cli.main(["transfer", "--variant", "mintt", "--target", str(target), "--src-ckpt", str(src_ckpt),
                   "--fgat-ckpt", str(bad), "--out", str(tmp_path / "r.json")])
    assert rc == 1
    captured = capsys.readouterr()
    (err,) = captured.err.splitlines()
    assert err.startswith("error: ") and f"extra=['{last}.phase4.mlp.l0.b', " in err
    assert captured.out == "" and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", [
    ["transfer", "--variant", "nt", "--seeds", ","],
    ["transfer", "--variant", "nt", "--seeds", " , "],
    ["sweep", "--variants", ","],
    ["sweep", "--variants", "nt", "--fractions", ","],
], ids=["transfer-seeds", "transfer-blank-seeds", "sweep-variants", "sweep-fractions"])
def test_empty_seed_variant_or_fraction_list_is_an_error(synth_dir, tmp_path, capsys, command):
    out = tmp_path / "out"
    rc = cli.main([*command, "--target", str(synth_dir / "target.csv"), "--out", str(out)])
    assert rc == 1
    assert "error: no " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["transform", "train-tgn", "train-fgat", "transfer", "sweep", "plot"])
def test_outputs_land_in_missing_nested_directories(synth_dir, trained, tmp_path, command):
    # the walkthrough starts in an empty directory: no command may need its
    # output directories made beforehand
    src_ckpt, enc_ckpt, target = trained
    new = tmp_path / "fresh" / "runs"
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text(cli.SWEEP_HEADER + "\nnt,0.5,1,0.6,0.6,0.1,0.2\n")
    flags, outputs = {
        "transform": (["--input", str(synth_dir / "source.csv")], ["--output", new / "g.cache"]),
        "train-tgn": (["--graph", str(synth_dir / "source.csv"), "--epochs", "0", *TGN_FAST],
                      ["--out", new / "m.ckpt"]),
        "train-fgat": (["--pool", str(enc_ckpt.parent / "pool"), "--epochs", "1", "--dim", "8"],
                       ["--out", new / "e.ckpt"]),
        "transfer": (["--variant", "mintt", "--target", str(target), "--src-ckpt", str(src_ckpt),
                      "--fgat-ckpt", str(enc_ckpt), "--ft-epochs", "1", "--no-rank-metrics"],
                     ["--out", new / "r.json", "--mapping-out", tmp_path / "maps" / "new" / "m.json"]),
        "sweep": (["--target", str(target), "--variants", "nt", "--fractions", "0.5", "--nt-epochs", "1",
                   "--no-rank-metrics", *TGN_FAST], ["--out", new / "s.csv"]),
        "plot": (["--sweep", str(sweep_csv)], ["--out", new / "c.csv"]),
    }[command]
    assert cli.main([command, *flags, *map(str, outputs)]) == 0
    assert all(path.is_file() for path in outputs[1::2])


def test_transfer_rerun_is_bitwise_identical(trained, tmp_path):
    src_ckpt, _, target = trained
    args = [
        "transfer", "--variant", "wt", "--target", str(target), "--src-ckpt", str(src_ckpt),
        "--ft-epochs", "1", "--seed", "7", "--no-rank-metrics",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -- sweep and plot -------------------------------------------------------------------


def test_sweep_and_plot(trained, tmp_path, capsys):
    _, _, target = trained
    out = tmp_path / "sweep.csv"
    rc = cli.main([
        "sweep", "--target", str(target), "--variants", "nt", "--fractions", "0.5,0.1",
        "--nt-epochs", "1", "--seeds", "1,2", "--out", str(out),
        "--no-rank-metrics", *TGN_FAST,
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == cli.SWEEP_HEADER
    seed_rows = [ln for ln in lines[1:] if ln.split(",")[2] not in ("mean", "std")]
    assert len(seed_rows) == 4  # 1 variant x 2 fractions x 2 seeds
    assert len([ln for ln in lines[1:] if ",mean," in ln]) == 2

    curves = tmp_path / "curves.csv"
    rc = cli.main(["plot", "--sweep", str(out), "--out", str(curves)])
    assert rc == 0
    clines = curves.read_text().strip().splitlines()
    assert clines[0] == "variant,fraction,mean_ap,std_ap"
    assert len(clines) == 3  # 1 variant x 2 fractions


def test_sweep_rejects_bad_fraction(trained, tmp_path, capsys):
    _, _, target = trained
    rc = cli.main([
        "sweep", "--target", str(target), "--variants", "nt", "--fractions", "0.8",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert rc == 1
    assert "fraction" in capsys.readouterr().err


def test_plot_rejects_non_sweep_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    rc = cli.main(["plot", "--sweep", str(bad), "--out", str(tmp_path / "c.csv")])
    assert rc == 1


# -- config files and synth ----------------------------------------------------------


def test_config_file_defaults_and_flag_override(synth_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "epochs": 2, "d_mem": 8, "d_time": 4, "d_feat": 8, "k_neighbors": 4,
        "batch_size": 60,
    }))
    base = ["train-tgn", "--graph", str(synth_dir / "source.csv"), "--config", str(cfg)]

    out1 = tmp_path / "c1.ckpt"
    assert cli.main(base + ["--out", str(out1)]) == 0
    assert len(Path(str(out1) + ".loss.csv").read_text().strip().splitlines()) == 3

    out2 = tmp_path / "c2.ckpt"
    assert cli.main(base + ["--out", str(out2), "--epochs", "1"]) == 0
    assert len(Path(str(out2) + ".loss.csv").read_text().strip().splitlines()) == 2


def test_config_file_rejects_unknown_keys(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not_a_flag": 1}))
    rc = cli.main([
        "train-tgn", "--graph", str(synth_dir / "source.csv"), "--config", str(cfg),
        "--out", str(tmp_path / "x.ckpt"),
    ])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"abc"'])
def test_config_file_must_hold_an_object(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = cli.main(["synth", "--out-dir", str(tmp_path / "data"), "--config", str(cfg)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: config file {cfg} must hold a JSON object"]
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [("seed", "abc"), ("sharpness", "sharp")])
def test_config_value_argparse_cannot_convert_is_one_error_line(tmp_path, capsys, key, value):
    """A `--config` string that its flag's type cannot read exits 1 with one
    `error:` line naming the key and an empty stdout, not argparse's usage
    text and exit 2."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    rc = cli.main(["synth", "--out-dir", str(tmp_path / "data"), "--config", str(cfg)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: config key {key}: {value!r} is not a valid "
                                         + ("int" if key == "seed" else "float")]
    assert captured.out == "" and not (tmp_path / "data").exists()


@pytest.mark.parametrize("key, value", [("seed", 1.5), ("seed", None), ("seed", True), ("sharpness", False),
                                        ("no_rank_metrics", 1)])
def test_config_value_of_the_wrong_json_type_is_one_error_line(tmp_path, capsys, key, value):
    """A `--config` value that is not a string must already have its flag's
    type, and null is allowed only where the flag's default is None: a float
    or null seed once reached the generator (a traceback, or an unseeded run
    whose snapshot records `"seed": null`)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    command = (["transfer", "--variant", "nt", "--target", str(tmp_path / "t.csv"), "--out", str(tmp_path / "r.json")]
               if key == "no_rank_metrics" else ["synth", "--out-dir", str(tmp_path / "data")])
    rc = cli.main(command + ["--config", str(cfg)])
    assert rc == 1
    captured = capsys.readouterr()
    kind = {"seed": "int", "sharpness": "float", "no_rank_metrics": "bool"}[key]
    assert captured.err.splitlines() == [f"error: config key {key}: {json.dumps(value)} is not a valid {kind}"]
    assert captured.out == "" and not (tmp_path / "data").exists()


def test_config_null_is_allowed_where_the_default_is_none():
    actions = {a.dest: a for a in cli.build_parser()[1].choices["transfer"]._actions}
    assert cli._config_value(actions["ft_lr"], "ft_lr", None) is None
    assert cli._config_value(actions["ft_lr"], "ft_lr", 1) == 1.0  # a JSON integer for a float flag
    assert cli._config_value(actions["ft_epochs"], "ft_epochs", "3") == 3
    assert cli._config_value(actions["no_rank_metrics"], "no_rank_metrics", True) is True


def test_synth_outputs_are_ingestible(synth_dir):
    src = load_events(synth_dir / "source.csv")
    tgt = load_events(synth_dir / "target.csv")
    assert src.num_users == 12 and src.num_items == 14
    assert src.num_events == 240 and tgt.num_events == 120
    mapping = json.loads((synth_dir / "mapping.json").read_text())
    assert set(mapping) == {"users", "items"}
    assert all(v in set(src.user_ids) for v in mapping["users"].values())
    assert (synth_dir / "synth-config.json").exists()


def test_synth_dial_flags_shape_the_corpus(tmp_path):
    out = tmp_path / "dials"
    rc = cli.main([
        "synth", "--out-dir", str(out), "--users", "12", "--items", "14",
        "--tokens", "12", "--communities", "3", "--events", "240", "--seed", "5",
        "--edge-signal", "1.0", "--user-signature-strength", "0.2",
        "--item-churn", "0.1", "--target-event-scale", "0.05",
    ])
    assert rc == 0
    src = load_events(out / "source.csv")
    tgt = load_events(out / "target.csv")
    assert src.edge_feature_dim == 3 and tgt.edge_feature_dim == 3
    assert src.num_events == 240 and tgt.num_events == 12


def test_train_tgn_context_dropout_flag_changes_training(synth_dir, tmp_path):
    base = ["train-tgn", "--graph", str(synth_dir / "source.csv"), "--epochs", "1",
            "--seed", "9", *TGN_FAST]
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--out", str(b), "--context-dropout", "0.5"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_transfer_ft_lr_flag_changes_fine_tuning(trained, tmp_path):
    src_ckpt, _, target = trained
    base = ["transfer", "--variant", "wt", "--target", str(target),
            "--src-ckpt", str(src_ckpt), "--ft-epochs", "1", "--seed", "7",
            "--no-rank-metrics"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--out", str(b), "--ft-lr", "0.05"]) == 0
    assert json.loads(a.read_text())["test"]["ap"] != json.loads(b.read_text())["test"]["ap"]


def test_run_dir_flag_controls_snapshot_location(toy_csv, tmp_path):
    run_dir = tmp_path / "runs"
    rc = cli.main([
        "transform", "--input", str(toy_csv), "--output", str(tmp_path / "t.cache"),
        "--run-dir", str(run_dir),
    ])
    assert rc == 0
    assert (run_dir / "transform-config.json").exists()


def test_config_snapshot_records_numeric_environment(toy_csv, tmp_path, monkeypatch):
    """Same-seed bytes hold only at a fixed BLAS thread count, so the
    snapshot records it with the numpy and BLAS versions."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    rc = cli.main(["transform", "--input", str(toy_csv), "--output", str(tmp_path / "t.cache")])
    assert rc == 0
    env = json.loads((tmp_path / "transform-config.json").read_text())["numeric_environment"]
    assert env["numpy"] == np.__version__
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] is None
    assert set(env["blas"]) == {"name", "version"}


@pytest.mark.parametrize("command, cls, table", [
    ("train-tgn", tgn.TgnConfig, cli.TGN_FLAGS),
    ("train-fgat", fg.FgatConfig, cli.FGAT_FLAGS),
    ("synth", sd.SynthConfig, cli.SYNTH_FLAGS),
    ("transfer", tr.TransferConfig, cli.TRANSFER_FLAGS),
    ("transfer", tgn.TgnConfig, cli.TGN_FLAGS),
    ("sweep", tr.TransferConfig, cli.TRANSFER_FLAGS),
    ("sweep", tgn.TgnConfig, cli.TGN_FLAGS),
])
def test_config_flags_default_to_their_fields(command, cls, table):
    """Each table entry names a field of its config, and an absent flag
    parses to that field's value in the config's defaults."""
    names = {f.name for f in fields(cls)}
    sub = cli.build_parser()[1].choices[command]
    for flag, name, *_ in table:
        assert name in names
        assert sub.get_default(flag[2:].replace("-", "_")) == getattr(cls(), name)


@pytest.mark.parametrize("cls, table, unflagged", [
    (tgn.TgnConfig, cli.TGN_FLAGS, set()),
    (sd.SynthConfig, cli.SYNTH_FLAGS, set()),
    (tr.TransferConfig, cli.TRANSFER_FLAGS, {"split", "rank_metrics", "tgn"}),
])
def test_config_fields_have_one_flag_each(cls, table, unflagged):
    named = [name for _, name, *_ in table]
    assert sorted(named) == sorted({f.name for f in fields(cls)} - unflagged)
