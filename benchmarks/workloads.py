"""The benchmark's workloads: one set-up and one repeatable unit of work each.

Every workload derives its inputs from the workload seed alone and hands the
library only generated data. A repetition returns the work it did, the time
spent in its central call, the failed output checks, and a digest of every
output that must repeat byte for byte across same-seed repetitions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tgtransfer import fgat, synthdata, temporal_graph, tgn, transfer, transform
from tgtransfer.numerics import Adam

import spans


@dataclass
class Rep:
    work: float  # work items done in the central call
    work_s: float  # seconds spent in the central call
    digest: str  # hash of the outputs that must repeat byte for byte
    problems: list[str] = field(default_factory=list)  # failed output checks
    detail: dict = field(default_factory=dict)  # workload-specific figures


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _params(pset) -> list[np.ndarray]:
    arrays = pset.state_arrays()
    return [arrays[name] for name in sorted(arrays)]


def _finite(name: str, values, problems: list[str]) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=np.float64))):
        problems.append(f"{name} not finite")


# README `synth` sizes: 80 users, 120 items, 36 tokens, 6 communities, 3000
# events; the target keeps 60% of each (48 users, 72 items, 1800 events).
README_SYNTH = dict(n_users=80, n_items=120, n_feature_tokens=36, n_communities=6,
                    n_events=3000, target_scale=0.6)
TINY_SYNTH = dict(n_users=12, n_items=16, n_feature_tokens=12, n_communities=3,
                  n_events=240, target_scale=0.6)

# criterion 4's recovery graphs at strong feature signatures
RECOVERY_SYNTH = dict(n_users=160, n_items=240, n_feature_tokens=64, n_communities=8,
                      n_events=4000, features_per_node=2, sharpness=4.0, target_scale=0.25,
                      signature_strength=0.95)
TINY_RECOVERY_SYNTH = dict(RECOVERY_SYNTH, n_users=32, n_items=48, n_feature_tokens=16,
                           n_communities=4, n_events=600)


class TgnTrain:
    """`tgn.train` on the README source with the default TgnConfig.

    Training is backward-bound; it runs no fgat or eval_metrics code."""

    name = "tgn_train"
    epochs = 1

    def __init__(self, tiny: bool):
        self.synth = TINY_SYNTH if tiny else README_SYNTH

    def setup(self, seed: int, workdir) -> None:
        self.seed = seed
        self.source, _, _ = synthdata.generate_pair(synthdata.SynthConfig(seed=seed, **self.synth))

    def rep(self) -> Rep:
        source, seed = self.source, self.seed
        model = tgn.TgnModel(tgn.TgnConfig(), source.feature_vocab, source.edge_feature_dim,
                             np.random.default_rng(seed))
        ctx = model.bind_graph(source)
        t0 = perf_counter()
        state, losses = tgn.train(model, ctx, source, epochs=self.epochs,
                                  rng=np.random.default_rng(seed + 1), optimizer=Adam(lr=0.003))
        work_s = perf_counter() - t0
        problems: list[str] = []
        _finite("losses", losses, problems)
        _finite("memory", state.memory, problems)
        return Rep(
            work=source.num_events * self.epochs,
            work_s=work_s,
            digest=_digest(state.memory, state.last_update, *_params(model.pset), losses),
            problems=problems,
            detail={"train_events_per_s": source.num_events * self.epochs / work_s,
                    "final_loss": losses[-1]},
        )


class FgatRecover:
    """Criterion 4's recovery unit: train the encoder on a 3-graph pool,
    encode source and target, map target nodes onto source nodes.

    It exercises the FGAT and segment ops and skips tgn and temporal_graph."""

    name = "fgat_recover"
    epochs = 50

    def __init__(self, tiny: bool):
        self.synth = TINY_RECOVERY_SYNTH if tiny else RECOVERY_SYNTH

    def setup(self, seed: int, workdir) -> None:
        self.seed = seed
        source, target, self.planted = synthdata.generate_pair(
            synthdata.SynthConfig(seed=seed, **self.synth))
        extras = [synthdata.generate_pair(synthdata.SynthConfig(seed=seed + 1000 + 13 * j, **self.synth))[0]
                  for j in range(2)]
        self.vocab = source.feature_vocab
        self.pool = [transform.transform_graph(g) for g in [source] + extras]
        self.tg_tgt = transform.transform_graph(target)

    def rep(self) -> Rep:
        seed, planted = self.seed, self.planted
        enc = fgat.FgatModel(fgat.FgatConfig(dim=32), self.vocab, np.random.default_rng(seed + 50))
        t0 = perf_counter()
        losses = fgat.train_fgat(enc, self.pool, self.epochs, np.random.default_rng(seed + 70))
        work_s = perf_counter() - t0
        tg_src, tg_tgt = self.pool[0], self.tg_tgt
        h_src = enc.encode_arrays(tg_src)[: tg_src.num_graph_nodes]
        h_tgt = enc.encode_arrays(tg_tgt)[: tg_tgt.num_graph_nodes]
        dummy = tgn.MemoryState(np.zeros((tg_src.num_graph_nodes, 4)), np.zeros(tg_src.num_graph_nodes))
        mapping, _ = transfer.map_memory(h_src, h_tgt, tg_src.num_users, tg_tgt.num_users, dummy)

        src_comm = np.concatenate([planted.src_user_community, planted.src_item_community])
        tgt_comm = np.concatenate([planted.tgt_user_community, planted.tgt_item_community])
        recovery = float(np.mean(src_comm[mapping.source_node] == tgt_comm))
        # chance: a uniform same-partition source node shares the community
        chance = sum(
            float(np.mean(src == c)) * float(np.sum(tgt == c))
            for src, tgt in ((planted.src_user_community, planted.tgt_user_community),
                             (planted.src_item_community, planted.tgt_item_community))
            for c in np.unique(tgt)
        ) / len(tgt_comm)
        sigma = float(np.sqrt(chance * (1.0 - chance) / len(tgt_comm)))
        problems: list[str] = []
        _finite("losses", losses, problems)
        if recovery < chance + 5.0 * sigma:
            problems.append(f"recovery {recovery:.3f} not above chance {chance:.3f} + 5 sigma")
        return Rep(
            work=self.epochs,
            work_s=work_s,
            digest=_digest(*_params(enc.pset), losses, h_src, h_tgt,
                           mapping.source_node, mapping.similarity),
            problems=problems,
            detail={"fgat_epochs_per_s": self.epochs / work_s,
                    "recovery": recovery, "chance": chance},
        )


class TransferRanked:
    """The README transfer stage: `run_variant` for nt, wt and mintt with
    catalog ranking, on the README target read back from CSV.

    It runs `tgn.embed` forward-only under no_grad with a catalog fan-out of
    one query row per item for every evaluated event. Training uses the
    README split's first 10% of the target, but validation and test are the
    next two 10% windows rather than 45% each, and nt/wt/mintt train for 2/1/1
    epochs rather than 30/5/5: the fan-out per event is unchanged, the
    training loop is what `tgn_train` measures, and a repetition takes
    seconds, so a run holds several."""

    name = "transfer_ranked"
    source_epochs = 1
    window = 0.1  # share of the target's events in each of train, val and test

    def __init__(self, tiny: bool):
        self.synth = TINY_SYNTH if tiny else README_SYNTH
        self.fgat_epochs = 3 if tiny else 10

    def setup(self, seed: int, workdir) -> None:
        """Write the target CSV, a source checkpoint and an encoder checkpoint.

        The source model and encoder get a few epochs only: a variant's cost
        depends on the sizes of both graphs, not on the weights' values."""
        self.seed = seed
        source, target, _ = synthdata.generate_pair(synthdata.SynthConfig(seed=seed, **self.synth))
        self.target_csv = workdir / "target.csv"
        self.src_ckpt = workdir / "source.ckpt"
        self.fgat_ckpt = workdir / "encoder.ckpt"
        synthdata.write_events_csv(target, self.target_csv)

        model = tgn.TgnModel(tgn.TgnConfig(), source.feature_vocab, source.edge_feature_dim,
                             np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        state, _ = tgn.train(model, model.bind_graph(source), source, self.source_epochs, rng,
                             optimizer=Adam(lr=0.003))
        static = transform.build_static(source)
        tgn.snapshot(model, state, Adam(lr=0.003), self.src_ckpt, source_graph=source,
                     train_pairs=(static.pair_users, static.pair_items, static.pair_counts))
        enc = fgat.FgatModel(fgat.FgatConfig(), source.feature_vocab, np.random.default_rng(seed + 50))
        fgat.train_fgat(enc, [transform.transform_graph(source)], self.fgat_epochs,
                        np.random.default_rng(seed + 70))
        fgat.save_fgat(enc, self.fgat_ckpt)

    def rep(self) -> Rep:
        cfg = transfer.TransferConfig(seed=self.seed, rank_metrics=True, nt_epochs=2, ft_epochs=1)
        problems: list[str] = []
        detail: dict = {}
        parts: list = []
        evaluated = {"seconds": 0.0, "events": 0}
        evaluate = transfer.evaluate

        def timed_evaluate(model, ctx, split, *args, **kwargs):
            t0 = perf_counter()
            try:
                return evaluate(model, ctx, split, *args, **kwargs)
            finally:
                evaluated["seconds"] += perf_counter() - t0
                evaluated["events"] += split.num_events

        with spans.patch(transfer, "evaluate", timed_evaluate):
            g = temporal_graph.load_events(self.target_csv)
            cut = int(g.num_events * self.window)
            splits = (g.slice(0, cut), g.slice(cut, 2 * cut), g.slice(2 * cut, 3 * cut))
            for variant in transfer.VARIANTS:
                t0 = perf_counter()
                result = transfer.run_variant(variant, g, cfg, src_ckpt=self.src_ckpt,
                                              fgat_ckpt=self.fgat_ckpt, splits=splits)
                detail[f"variant_s.{variant}"] = perf_counter() - t0
                _finite(f"{variant} losses", result.losses, problems)
                for split, report in (("val", result.val_report), ("test", result.test_report)):
                    for metric in ("ap", "auc", "mrr", "recall_at_k"):
                        value = getattr(report, metric)
                        if not 0.0 <= value <= 1.0:
                            problems.append(f"{variant} {split} {metric} = {value} outside [0, 1]")
                        if split == "test":
                            detail[f"test_{metric}.{variant}"] = value
                parts += [result.val_report.to_dict(), result.test_report.to_dict(), result.losses,
                          result.state.memory, *_params(result.model.pset)]
                if result.mapping is not None:
                    parts += [result.mapping.source_node, result.mapping.similarity]
        detail["eval_events_per_s"] = evaluated["events"] / evaluated["seconds"]
        return Rep(work=evaluated["events"], work_s=evaluated["seconds"],
                   digest=_digest(*parts), problems=problems, detail=detail)


WORKLOADS = {w.name: w for w in (TgnTrain, FgatRecover, TransferRanked)}
