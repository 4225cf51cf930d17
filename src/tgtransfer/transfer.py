"""Cross-graph model transfer: memory mapping, weight copying, variant runs.

Three ways to stand up a model on a data-scarce target graph:

- ``nt``    train from scratch on the target events (no transfer),
- ``wt``    copy the source model's weights, start from zero memory,
- ``mintt`` copy the weights and additionally initialize each target node's
            memory with the memory of its most similar source node, where
            similarity is cosine distance between attribute-graph encoder
            embeddings of the two transformed graphs.

All variants share one protocol: train (or fine-tune) on the chronological
training slice, then stream the validation and test slices through the model
in order, scoring events before their memory updates are applied.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .eval_metrics import MetricsReport, evaluate
from .fgat import load_fgat
from .numerics import Adam
from .numerics.checkpoint import check_fields
from .temporal_graph import TemporalGraph, batch_iter, chronological_split
from .tgn import MemoryState, TgnConfig, TgnModel, restore, train, update_memory
from .transform import transform_graph

VARIANTS = ("nt", "wt", "mintt")


class MemoryMapping(NamedTuple):
    """For each target global node id, the chosen source global node id and
    the cosine similarity that selected it."""

    source_node: np.ndarray
    similarity: np.ndarray


def mapping_to_json(mapping: MemoryMapping) -> str:
    entries = [
        {"target_id": int(t), "source_id": int(s), "similarity": float(v)}
        for t, (s, v) in enumerate(zip(mapping.source_node, mapping.similarity))
    ]
    return json.dumps(entries)


def _normalize_rows(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    return h / np.where(norms > 0, norms, 1.0)


def map_memory(
    h_src: np.ndarray,
    h_tgt: np.ndarray,
    src_num_users: int,
    tgt_num_users: int,
    memory_src: MemoryState,
) -> tuple[MemoryMapping, MemoryState]:
    """Assign every target node the memory of its nearest source node.

    Both embedding matrices must come from the same encoder parameters and
    cover graph nodes only, users first. Users match against source users and
    items against source items; ties break toward the smallest source id
    (argmax returns the first maximum). The returned state carries copied
    memory rows and last-update times reset to zero, so transferred memories
    act as priors rather than as events on the source clock.
    """
    h_src = np.asarray(h_src, dtype=np.float64)
    h_tgt = np.asarray(h_tgt, dtype=np.float64)
    if h_src.ndim != 2 or h_tgt.ndim != 2 or h_src.shape[1] != h_tgt.shape[1]:
        raise ValueError("embedding matrices must be 2-D with equal width")
    if not 0 < src_num_users < len(h_src):
        raise ValueError("source graph must have at least one user and one item")
    if not 0 <= tgt_num_users <= len(h_tgt):
        raise ValueError(f"bad target user count {tgt_num_users}")
    if memory_src.num_nodes != len(h_src):
        raise ValueError("source memory and source embeddings disagree on node count")

    ns = _normalize_rows(h_src)
    nt = _normalize_rows(h_tgt)
    chosen = np.empty(len(h_tgt), dtype=np.int64)
    sim = np.empty(len(h_tgt), dtype=np.float64)
    for rows, lo, hi in (
        (np.arange(tgt_num_users), 0, src_num_users),
        (np.arange(tgt_num_users, len(h_tgt)), src_num_users, len(h_src)),
    ):
        sims = nt[rows] @ ns[lo:hi].T
        best = np.argmax(sims, axis=1)
        chosen[rows] = best + lo
        sim[rows] = sims[np.arange(len(rows)), best]

    mapping = MemoryMapping(chosen, sim)
    state = MemoryState(memory_src.memory[chosen].copy(), np.zeros(len(h_tgt)))
    return mapping, state


def transfer_weights(src: TgnModel) -> TgnModel:
    """Deep-copy the source parameters into a fresh model.

    The copy shares nothing with the source, so fine-tuning it cannot alter
    the source model or its checkpoint. Optimizer state never transfers.
    """
    model = TgnModel(src.config, src.feature_vocab, src.edge_dim, np.random.default_rng(0))
    model.pset.load_arrays(src.pset.state_arrays())
    return model


@dataclass(frozen=True)
class TransferConfig:
    """One variant run's settings; `rank_metrics` ranks the test catalog."""

    split: tuple = (0.1, 0.45, 0.45)
    nt_epochs: int = 30
    ft_epochs: int = 5
    ft_lr: float | None = None
    seed: int = 0
    rank_metrics: bool = True
    tgn: TgnConfig = field(default_factory=TgnConfig)

    def __post_init__(self):
        check_fields(self, "size", "nt_epochs", "ft_epochs")
        check_fields(self, "positive", "ft_lr")


class VariantSetup(NamedTuple):
    variant: str
    model: TgnModel
    init_state: MemoryState
    epochs: int
    mapping: MemoryMapping | None


class RunResult(NamedTuple):
    """A run's outcome; `val_report` is unranked: its MRR and Recall@k read 0.0."""

    model: TgnModel
    state: MemoryState
    val_report: MetricsReport
    test_report: MetricsReport
    losses: list
    mapping: MemoryMapping | None


def prepare_variant(
    variant: str,
    train_graph: TemporalGraph,
    cfg: TransferConfig,
    src_ckpt=None,
    fgat_ckpt=None,
) -> VariantSetup:
    """Build the model and initial memory for one variant.

    `train_graph` is the scarce training slice; for ``mintt`` its transformed
    form is what the encoder sees of the target, since later events are not
    yet observable at transfer time.
    """
    variant = variant.lower()
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")

    if variant == "nt":
        model = TgnModel(cfg.tgn, train_graph.feature_vocab, train_graph.edge_feature_dim,
                         np.random.default_rng(cfg.seed))
        return VariantSetup(variant, model, MemoryState.zeros(train_graph.num_nodes, cfg.tgn.d_mem),
                            cfg.nt_epochs, None)

    if src_ckpt is None:
        raise ValueError(f"variant {variant!r} requires a source checkpoint")
    ckpt = restore(src_ckpt)
    model = ckpt.model  # a fresh model: `run_seeds` copies it for each run
    if variant == "wt":
        init = MemoryState.zeros(train_graph.num_nodes, model.config.d_mem)
        return VariantSetup(variant, model, init, cfg.ft_epochs, None)

    if fgat_ckpt is None:
        raise ValueError("variant 'mintt' requires an attribute-encoder checkpoint")
    encoder = load_fgat(fgat_ckpt)
    tg_src = ckpt.source
    if tg_src is None:
        raise ValueError("source checkpoint lacks the graph bundle needed for memory mapping")
    tg_tgt = transform_graph(train_graph)
    h_src = encoder.encode_arrays(tg_src)[: tg_src.num_graph_nodes]
    h_tgt = encoder.encode_arrays(tg_tgt)[: tg_tgt.num_graph_nodes]
    mapping, init = map_memory(h_src, h_tgt, tg_src.num_users, tg_tgt.num_users, ckpt.state)
    return VariantSetup(variant, model, init, cfg.ft_epochs, mapping)


def _concat_events(parts: list[TemporalGraph]) -> TemporalGraph:
    """Glue chronological slices back into one observed stream."""
    base = parts[0]
    return TemporalGraph(
        np.concatenate([p.users for p in parts]),
        np.concatenate([p.items for p in parts]),
        np.concatenate([p.times for p in parts]),
        np.concatenate([p.edge_features for p in parts], axis=0),
        base.user_ids,
        base.item_ids,
        base.feature_vocab,
        base.user_features,
        base.item_features,
    )


def execute_run(
    setup: VariantSetup,
    train_g: TemporalGraph,
    val_g: TemporalGraph,
    test_g: TemporalGraph,
    cfg: TransferConfig,
) -> RunResult:
    """Train per the setup, then stream validation and test with metrics.

    Validation and test are scored as independent continuations of the
    post-training state: each restarts memory from the end of training and
    indexes temporal neighborhoods over train events plus its own stream
    only. Test therefore measures the model as deployed after fine-tuning,
    and events between the slices (scarcity gaps) stay invisible. Only test
    ranks the catalog, if `cfg.rank_metrics`; validation scores its true and
    negative pairs alone, with a ranked pass's negatives, AP and AUC.
    """
    ctx_train = setup.model.bind_graph(train_g)
    rng = np.random.default_rng(cfg.seed)

    losses: list = []
    if setup.epochs > 0:
        opt = Adam(lr=cfg.ft_lr) if cfg.ft_lr is not None and setup.variant != "nt" else None
        state, losses = train(
            setup.model, ctx_train, train_g, setup.epochs, rng,
            init_state=setup.init_state, optimizer=opt,
        )
    else:
        # pure transfer: no gradient steps, but memory still absorbs the
        # training events so evaluation starts from the same clock position
        state = setup.init_state.copy()
        for batch in batch_iter(train_g, setup.model.config.batch_size):
            state = update_memory(setup.model, state, batch, ctx_train)

    reports = []
    for split, ranked in ((val_g, False), (test_g, cfg.rank_metrics)):
        ctx = setup.model.bind_graph(_concat_events([train_g, split]))
        report, _ = evaluate(
            setup.model, ctx, split, state, rng,
            variant=setup.variant, seed=cfg.seed, rank_metrics=ranked,
        )
        reports.append(report)
    return RunResult(setup.model, state, reports[0], reports[1], losses, setup.mapping)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_variant(
    variant: str,
    g_tgt: TemporalGraph,
    cfg: TransferConfig,
    src_ckpt=None,
    fgat_ckpt=None,
    splits: tuple | None = None,
) -> RunResult:
    """End-to-end variant run on a target graph: `run_seeds` at `cfg.seed`."""
    return next(run_seeds(variant, g_tgt, cfg, [cfg.seed], src_ckpt, fgat_ckpt, splits))


def run_seeds(variant: str, g_tgt: TemporalGraph, cfg: TransferConfig, seeds, src_ckpt=None,
              fgat_ckpt=None, splits: tuple | None = None):
    """End-to-end variant runs on a target graph, `cfg` at each of `seeds`;
    yields each result as its run ends.

    Uses `cfg.split` chronological fractions unless explicit `splits`
    (train, val, test) slices are given. A transferred variant's weights,
    initial memory and mapping depend only on the checkpoints and the
    training slice, so they are prepared once, and every run fine-tunes its
    own copy of the weights. Checkpoint files are verified unchanged after
    every run; they are inputs, never outputs.
    """
    sums = [(p, _sha256(p)) for p in (src_ckpt, fgat_ckpt) if p is not None]
    if splits is None:
        splits = chronological_split(g_tgt, cfg.split)
    train_g, val_g, test_g = splits
    prepared = None
    for seed in seeds:
        run_cfg = replace(cfg, seed=seed)
        if prepared is None or prepared.variant == "nt":  # nt's weights come from the seed
            prepared = prepare_variant(variant, train_g, run_cfg, src_ckpt=src_ckpt, fgat_ckpt=fgat_ckpt)
        setup = prepared._replace(model=transfer_weights(prepared.model))  # each run trains its own copy
        result = execute_run(setup, train_g, val_g, test_g, run_cfg)
        for path, digest in sums:
            if _sha256(path) != digest:
                raise RuntimeError(f"checkpoint {path} was modified during the run")
        yield result


def sweep_splits(g: TemporalGraph, fraction: float) -> tuple[TemporalGraph, TemporalGraph, TemporalGraph]:
    """Scarcity splits with fixed evaluation windows.

    Validation is always events [50%, 70%) and test [70%, 100%), so metrics
    stay comparable across training fractions; training takes the earliest
    `fraction` of all events and therefore never overlaps validation.
    """
    if not 0.0 < fraction <= 0.5:
        raise ValueError(f"training fraction must be in (0, 0.5], got {fraction}")
    n = g.num_events
    cut_train = int(np.floor(n * fraction))
    cut_val = int(np.floor(n * 0.5))
    cut_test = int(np.floor(n * 0.7))
    if cut_train == 0:
        raise ValueError(f"fraction {fraction} keeps zero training events")
    return g.slice(0, cut_train), g.slice(cut_val, cut_test), g.slice(cut_test, n)
