"""Command-line pipeline: transform, train, transfer, sweep, synthesize.

Every subcommand is reproducible from its inputs: outputs land at fixed
paths, a resolved-config snapshot is written next to them, and all
randomness flows from the --seed flag. A flag that sets a config field
(`TgnConfig`, `FgatConfig`, `TransferConfig`, `SynthConfig`) takes that
field's type and default. A JSON file passed via --config supplies
per-command defaults that explicit flags override.

Exit codes: 0 success, 1 validation failure or a non-finite value in training,
2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import compress
from pathlib import Path

import numpy as np

from . import fgat as fg
from . import synthdata as sd
from . import tgn
from . import transfer as tr
from .eval_metrics import summarize
from .numerics import Adam, CheckpointError, NonFiniteError
from .temporal_graph import IngestError, TemporalGraph, chronological_split, load_events
from .transform import build_static, load_transformed, save_transformed, transform_graph

CSV_HEADER = "variant,pair,seed,ap,auc,mrr,recall@20"
SWEEP_HEADER = "variant,fraction,seed,ap,auc,mrr,recall@20"
METRICS = ("ap", "auc", "mrr", "recall_at_k")


# -- shared helpers ------------------------------------------------------------------


def _numeric_environment() -> dict:
    """numpy's version, its BLAS and the BLAS thread settings: same-seed
    outputs repeat byte for byte only under the same ones."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 reports no dicts
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _write_config_snapshot(args, default_dir) -> None:
    run_dir = Path(args.run_dir) if args.run_dir else Path(default_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    skip = {"func", "command", "config", "run_dir"}
    resolved = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    resolved["numeric_environment"] = _numeric_environment()
    path = run_dir / f"{args.command}-config.json"
    path.write_text(json.dumps(resolved, sort_keys=True, indent=2, default=str) + "\n")


def _parse_list(spec: str, what: str, parse) -> list:
    """The comma-separated entries of `spec` through `parse`, blanks
    skipped; at least one is required."""
    vals = [parse(tok.strip()) for tok in spec.split(",") if tok.strip()]
    if not vals:
        raise ValueError(f"no {what} given in {spec!r}")
    return vals


def _parse_seeds(args) -> list[int]:
    """--seeds as a comma list '1,2,3' or an inclusive range '1..5', else
    [--seed]."""
    if not args.seeds:
        return [args.seed]
    spec = args.seeds.strip()
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty seed range {spec!r}")
        return list(range(lo, hi + 1))
    return _parse_list(spec, "seeds", int)


def _split_triple(spec: str) -> tuple:
    parts = [float(tok) for tok in spec.split(",")]
    if len(parts) != 3:
        raise ValueError(f"--split needs three comma-separated fractions, got {spec!r}")
    return tuple(parts)


# Each (flag, config field[, help]) in help order. A flag's type and default
# are those of the field's value in the config's defaults, float where that
# value is None; the flag's dest is argparse's, from the flag's name.
TGN_FLAGS = (
    ("--d-mem", "d_mem"),
    ("--d-time", "d_time"),
    ("--d-feat", "d_feat"),
    ("--layers", "n_layers"),
    ("--heads", "n_heads"),
    ("--k-neighbors", "k_neighbors"),
    ("--batch-size", "batch_size"),
    ("--lr", "lr"),
    ("--context-dropout", "context_dropout", "training-time chance to hide a node's neighbor context"),
)
FGAT_FLAGS = (("--dim", "dim"), ("--layers", "n_layers"), ("--lr", "lr"))
TRANSFER_FLAGS = (
    ("--ft-epochs", "ft_epochs"),
    ("--nt-epochs", "nt_epochs"),
    ("--ft-lr", "ft_lr", "fine-tuning learning rate for wt/mintt (defaults to --lr)"),
    ("--seed", "seed"),
)
SYNTH_FLAGS = (
    ("--users", "n_users"),
    ("--items", "n_items"),
    ("--tokens", "n_feature_tokens"),
    ("--communities", "n_communities"),
    ("--events", "n_events"),
    ("--features-per-node", "features_per_node"),
    ("--sharpness", "sharpness"),
    ("--signature-strength", "signature_strength"),
    ("--user-signature-strength", "user_signature_strength", "override signature strength for user features only"),
    ("--item-churn", "item_churn"),
    ("--edge-signal", "edge_signal", "fraction of events carrying a truthful community tag"),
    ("--target-scale", "target_scale"),
    ("--target-event-scale", "target_event_scale",
     "override target event count fraction (defaults to --target-scale)"),
    ("--seed", "seed"),
)


def _add_config_flags(sub, cls, table) -> None:
    defaults = cls()
    for flag, name, *help_text in table:
        value = getattr(defaults, name)
        sub.add_argument(flag, type=float if value is None else type(value), default=value,
                         help=help_text[0] if help_text else None)


def _config(args, cls, table, **extra):
    """`cls` from the parsed flags of `table`, with `extra` fields."""
    return cls(**{name: getattr(args, flag[2:].replace("-", "_")) for flag, name, *_ in table}, **extra)


def _add_run_flags(sub, own: dict, transfer: bool = False) -> None:
    """The flags `transfer` and `sweep` share, in help order, with the
    command's `own` flags (flag -> add_argument keywords) after the
    checkpoints; only `transfer` documents --seeds and takes --mapping-out."""
    sub.add_argument("--src-ckpt")
    sub.add_argument("--fgat-ckpt")
    for flag, kw in own.items():
        sub.add_argument(flag, **kw)
    _add_config_flags(sub, tr.TransferConfig, TRANSFER_FLAGS)
    sub.add_argument("--seeds", help="'1..5' or '1,3,9'; overrides --seed" if transfer else None)
    sub.add_argument("--out", required=True)
    if transfer:
        sub.add_argument("--mapping-out", help="write the memory mapping JSON here")
    sub.add_argument("--no-rank-metrics", action="store_true",
                     help="skip the test catalog ranking: MRR and Recall@20 read 0.0")
    _add_config_flags(sub, tgn.TgnConfig, TGN_FLAGS)


def _write_loss_csv(path, losses) -> None:
    lines = ["epoch,loss"] + [f"{e},{v!r}" for e, v in enumerate(losses, start=1)]
    Path(path).write_text("\n".join(lines) + "\n")


def _filter_degree(g: TemporalGraph, min_user: int, min_item: int) -> TemporalGraph:
    """One-shot removal of low-activity nodes and their events."""
    if min_user <= 1 and min_item <= 1:
        return g
    keep_u = np.bincount(g.users, minlength=g.num_users) >= min_user
    keep_i = np.bincount(g.items, minlength=g.num_items) >= min_item
    keep_ev = keep_u[g.users] & keep_i[g.items]
    if not keep_ev.any():
        raise ValueError("degree filter drops every event")
    new_u = np.cumsum(keep_u) - 1
    new_i = np.cumsum(keep_i) - 1
    return TemporalGraph(
        new_u[g.users[keep_ev]],
        new_i[g.items[keep_ev]],
        g.times[keep_ev],
        g.edge_features[keep_ev],
        list(compress(g.user_ids, keep_u)),
        list(compress(g.item_ids, keep_i)),
        g.feature_vocab,
        g.user_features.take(np.flatnonzero(keep_u)),
        g.item_features.take(np.flatnonzero(keep_i)),
    )


# -- subcommands -----------------------------------------------------------------------


def cmd_transform(args) -> int:
    g = load_events(args.input)
    g = _filter_degree(g, args.min_user_deg, args.min_item_deg)
    tg = transform_graph(g)
    save_transformed(tg, args.output)
    _write_config_snapshot(args, Path(args.output).parent)
    print(
        f"transformed nodes: {tg.num_nodes} "
        f"({tg.num_users} users + {tg.num_items} items + {tg.num_features} features)"
    )
    print(f"interaction pairs: {tg.static.num_pairs}")
    print(f"feature edges: {len(tg.feat_edge_node)}")
    return 0


def cmd_train_tgn(args) -> int:
    g = load_events(args.graph)
    rng = np.random.default_rng(args.seed)
    model = tgn.TgnModel(_config(args, tgn.TgnConfig, TGN_FLAGS), g.feature_vocab, g.edge_feature_dim, rng)
    ctx = model.bind_graph(g)
    opt = Adam(lr=model.config.lr)
    # zero epochs leave the zero memory
    state, losses = tgn.train(model, ctx, g, args.epochs, rng, optimizer=opt)
    static = build_static(g)
    tgn.snapshot(
        model, state, opt, args.out,
        source_graph=g,
        train_pairs=(static.pair_users, static.pair_items, static.pair_counts),
    )
    _write_loss_csv(str(args.out) + ".loss.csv", losses)
    _write_config_snapshot(args, Path(args.out).parent)
    print(f"trained {args.epochs} epochs on {g.num_events} events -> {args.out}")
    for epoch, loss in enumerate(losses, start=1):
        print(f"epoch {epoch}: loss {loss:.6f}")
    return 0


def cmd_train_fgat(args) -> int:
    pool_dir = Path(args.pool)
    if not pool_dir.is_dir():
        raise FileNotFoundError(f"pool directory not found: {pool_dir}")
    paths = sorted(pool_dir.glob("*.cache"))
    if not paths:
        raise ValueError(f"no .cache transformed graphs in {pool_dir}")
    pool = [load_transformed(p) for p in paths]
    forbidden = [load_transformed(p) for p in (args.forbid or [])]

    vocab = sorted(set().union(*(tg.feature_vocab for tg in pool)))
    rng = np.random.default_rng(args.seed)
    model = fg.FgatModel(_config(args, fg.FgatConfig, FGAT_FLAGS), vocab, rng)
    losses = fg.train_fgat(model, pool, args.epochs, rng, forbidden=forbidden)
    fg.save_fgat(model, args.out)
    _write_loss_csv(str(args.out) + ".loss.csv", losses)
    _write_config_snapshot(args, Path(args.out).parent)
    print(f"trained {args.epochs} epochs on a pool of {len(pool)} graphs -> {args.out}")
    return 0


def _pair_label(args) -> str:
    tgt = Path(args.target).stem
    if args.variant != "nt" and args.src_ckpt:
        return f"{Path(args.src_ckpt).stem}->{tgt}"
    return tgt


def _metric_row(key: str, seed, metrics: dict) -> str:
    """One metrics CSV row: `key`, then the seed (or "mean"/"std"), then
    each of METRICS to six places."""
    return f"{key},{seed}," + ",".join(f"{metrics[m]:.6f}" for m in METRICS)


def _summary(key: str, reports) -> tuple[dict, dict, list[str]]:
    """Per-metric mean and std over `reports`, and their two CSV rows."""
    mean, std = {}, {}
    for m in METRICS:
        mean[m], std[m] = summarize([getattr(r, m) for r in reports])
    return mean, std, [_metric_row(key, "mean", mean), _metric_row(key, "std", std)]


def _seed_runs(args, seeds, variant: str, g: TemporalGraph, splits, key: str):
    """`run_seeds` of `variant` on the (train, val, test) `splits` of `g`,
    from the flags `transfer` and `sweep` share: an iterator of (result, CSV
    row) as each run ends. The config is checked before this returns."""
    cfg = _config(args, tr.TransferConfig, TRANSFER_FLAGS, rank_metrics=not args.no_rank_metrics,
                  tgn=_config(args, tgn.TgnConfig, TGN_FLAGS))
    src_ckpt = args.src_ckpt if variant != "nt" else None
    fgat_ckpt = args.fgat_ckpt if variant == "mintt" else None
    runs = tr.run_seeds(variant, g, cfg, seeds, src_ckpt=src_ckpt, fgat_ckpt=fgat_ckpt, splits=splits)
    return ((result, _metric_row(key, seed, result.test_report.to_dict())) for seed, result in zip(seeds, runs))


def cmd_transfer(args) -> int:
    if args.variant == "nt" and args.src_ckpt:
        print("warning: --src-ckpt is ignored for variant nt", file=sys.stderr)
    g = load_events(args.target)
    seeds = _parse_seeds(args)
    # only transfer takes --split; sweep scores the fixed windows of sweep_splits
    splits = chronological_split(g, _split_triple(args.split))
    pair = _pair_label(args)
    seed_runs = _seed_runs(args, seeds, args.variant, g, splits, f"{args.variant},{pair}")
    runs = []
    for result, row in seed_runs:
        if not runs:  # with the first row: a run that fails before it prints nothing
            print(CSV_HEADER)
        runs.append(result)
        print(row)
        if args.mapping_out and result.mapping is not None:
            Path(args.mapping_out).write_text(tr.mapping_to_json(result.mapping) + "\n")

    report: dict = {"variant": args.variant, "pair": pair}
    if len(runs) == 1:
        report.update(
            seed=seeds[0],
            losses=runs[0].losses,
            val=runs[0].val_report.to_dict(),
            test=runs[0].test_report.to_dict(),
        )
    else:
        mean, std, rows = _summary(f"{args.variant},{pair}", [r.test_report for r in runs])
        report.update(
            seeds=seeds,
            runs=[{"seed": s, "losses": r.losses, "val": r.val_report.to_dict(), "test": r.test_report.to_dict()}
                  for s, r in zip(seeds, runs)],
            mean=mean,
            std=std,
        )
        print("\n".join(rows))

    Path(args.out).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    _write_config_snapshot(args, Path(args.out).parent)
    return 0


def cmd_sweep(args) -> int:
    fractions = _parse_list(args.fractions, "fractions", float)
    variants = _parse_list(args.variants, "variants", str.lower)
    for v in variants:
        if v not in tr.VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    g = load_events(args.target)
    seeds = _parse_seeds(args)

    rows = [SWEEP_HEADER]
    for variant in variants:
        for fraction in fractions:
            key = f"{variant},{fraction}"
            runs = list(_seed_runs(args, seeds, variant, g, tr.sweep_splits(g, fraction), key))
            rows += [row for _, row in runs]
            rows += _summary(key, [result.test_report for result, _ in runs])[2]

    text = "\n".join(rows) + "\n"
    Path(args.out).write_text(text)
    print(text, end="")
    _write_config_snapshot(args, Path(args.out).parent)
    return 0


def cmd_plot(args) -> int:
    """Condense a sweep CSV into per-variant AP-vs-fraction curves."""
    lines = Path(args.sweep).read_text().strip().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError(f"{args.sweep} is not a sweep CSV")
    points: dict = {}
    for line in lines[1:]:
        variant, fraction, seed, ap, *_ = line.split(",")
        if seed in ("mean", "std"):
            continue
        points.setdefault((variant, float(fraction)), []).append(float(ap))
    out_lines = ["variant,fraction,mean_ap,std_ap"]
    for (variant, fraction) in sorted(points):
        mean, std = summarize(points[(variant, fraction)])
        out_lines.append(f"{variant},{fraction},{mean:.6f},{std:.6f}")
    Path(args.out).write_text("\n".join(out_lines) + "\n")
    print(f"wrote {len(out_lines) - 1} curve points -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    source, target, planted = sd.generate_pair(_config(args, sd.SynthConfig, SYNTH_FLAGS))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sd.write_events_csv(source, out_dir / "source.csv")
    sd.write_events_csv(target, out_dir / "target.csv")
    mapping = {
        "users": {target.user_ids[t]: source.user_ids[s]
                  for t, s in enumerate(planted.user_analog)},
        "items": {target.item_ids[t]: source.item_ids[s]
                  for t, s in enumerate(planted.item_analog)},
    }
    (out_dir / "mapping.json").write_text(json.dumps(mapping, sort_keys=True, indent=2) + "\n")
    _write_config_snapshot(args, out_dir)
    print(
        f"wrote source ({source.num_events} events) and target "
        f"({target.num_events} events) to {out_dir}"
    )
    return 0


# -- parser ---------------------------------------------------------------------------


def _config_value(action, key: str, value):
    """The value a `--config` entry gives its flag. A string goes through
    the flag's type, as on the command line (where argparse would exit 2 on
    one it cannot convert). Any other JSON value must already have the
    flag's type: an integer, not a boolean, for an int flag; a number for a
    float flag; a boolean for a switch; a list of strings for a repeated
    flag. null is allowed only where the flag's default is None."""
    if action.type is not None:
        kind = action.type
    elif action.nargs == 0:  # a switch
        kind = bool
    else:
        kind = list if isinstance(action, argparse._AppendAction) else str
    if value is None and action.default is None:
        return None
    if isinstance(value, str) and kind not in (bool, list):
        try:
            return kind(value)
        except ValueError:
            pass
    elif kind is float and type(value) in (int, float):
        return float(value)
    elif type(value) is kind and (kind is not list or all(type(v) is str for v in value)):
        return value
    shown = repr(value) if isinstance(value, str) else json.dumps(value)
    raise ValueError(f"config key {key}: {shown} is not a valid {kind.__name__}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tgtransfer",
        description="Memory and weight transfer for temporal interaction graph models.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, **kw):
        p = subparsers.add_parser(name, **kw)
        p.set_defaults(func=func, command=name)
        p.add_argument("--config", help="JSON file of per-command defaults")
        p.add_argument("--run-dir", help="directory for the config snapshot")
        return p

    p = sub("transform", cmd_transform, help="events CSV -> attribute-graph cache")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--min-user-deg", type=int, default=1)
    p.add_argument("--min-item-deg", type=int, default=1)

    p = sub("train-tgn", cmd_train_tgn, help="train a source model on an events CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_config_flags(p, tgn.TgnConfig, TGN_FLAGS)

    p = sub("train-fgat", cmd_train_fgat, help="train the attribute-graph encoder on a pool")
    p.add_argument("--pool", required=True, help="directory of .cache transformed graphs")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--forbid", action="append", help="transformed graph that must not be in the pool")
    _add_config_flags(p, fg.FgatConfig, FGAT_FLAGS)

    p = sub("transfer", cmd_transfer, help="run one variant on a target events CSV")
    p.add_argument("--variant", required=True, choices=tr.VARIANTS)
    _add_run_flags(p, {"--target": {"required": True}, "--split": {"default": "0.1,0.45,0.45"}}, transfer=True)

    p = sub("sweep", cmd_sweep, help="scarcity grid with fixed 20%%/30%% val/test windows")
    p.add_argument("--target", required=True)
    _add_run_flags(p, {"--fractions": {"default": "0.5,0.3,0.1"}, "--variants": {"default": "nt,wt,mintt"}})

    p = sub("plot", cmd_plot, help="sweep CSV -> AP-vs-fraction curve CSV")
    p.add_argument("--sweep", required=True)
    p.add_argument("--out", required=True)

    p = sub("synth", cmd_synth, help="generate a synthetic source/target pair")
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p, sd.SynthConfig, SYNTH_FLAGS)

    return parser, subparsers


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            overrides = json.loads(Path(args.config).read_text())
            if not isinstance(overrides, dict):
                raise ValueError(f"config file {args.config} must hold a JSON object")
            sub = subparsers.choices[args.command]
            actions = {a.dest: a for a in sub._actions}
            unknown = sorted(set(overrides) - set(actions))
            if unknown:
                raise ValueError(f"unknown config keys: {unknown}")
            sub.set_defaults(**{key: _config_value(actions[key], key, value) for key, value in overrides.items()})
            args = parser.parse_args(argv)
        # every output's directory exists before the work that fills it starts
        for out in filter(None, (getattr(args, dest, None) for dest in ("out", "output", "mapping_out"))):
            Path(out).parent.mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except SystemExit as err:
        return int(err.code or 0)
    except (IngestError, CheckpointError, ValueError, RuntimeError, NonFiniteError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
