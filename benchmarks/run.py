"""Outside-in benchmark of the tgtransfer pipeline.

    python3 benchmarks/run.py --workload tgn_train --seed 1 --seconds 35 --trace 0

Runs one workload (see workloads.py and README.md beside this file) as a
closed-loop batch job in one process with one BLAS thread. For `--seconds`
it repeats a cycle: set the workload up, time a reference pass that scales
the cycle's times to a fixed host speed, then run the unit of work once. It
starts no cycle that would typically end past them (but runs two at least),
and checks every repetition's outputs. The last line of standard output is
the result: `{"correct", "attempted", "failed", "metrics"}`, with the
end-to-end metrics when `--trace 0` and the per-layer metrics when
`--trace 1`. Two JSON lines before it give the machine facts and the
workload-specific figures.

The traced run alternates untraced and traced cycles, three at least of
each, so the tracing overhead is measured in the same process; its spans are
written to `.bench_out/` at the root of the checkout when the run ends.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS thread, so a run is one busy core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np

try:
    import tgtransfer
except ImportError as exc:
    sys.exit(f"cannot import tgtransfer from {SRC}: {exc}")
if Path(tgtransfer.__file__).resolve().parent != SRC / "tgtransfer":
    sys.exit(f"tgtransfer was imported from {tgtransfer.__file__}, not from {SRC}")

import spans
from workloads import WORKLOADS

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Nominal seconds of one reference pass: every reported time is scaled to the
# host speed at which the pass takes exactly this long (README.md, "Host
# speed").
REF_S = 0.1


def reference_pass() -> float:
    """Seconds taken by a fixed numpy kernel of many small array ops, the kind
    the pipeline's own code is made of. No tgtransfer code runs in it, so its
    time follows the host's speed, not the program's."""
    rng = np.random.default_rng(0)
    a, w = rng.standard_normal((200, 64)), rng.standard_normal((64, 64))
    t0 = perf_counter()
    for _ in range(1000):
        h = np.tanh(a @ w)
        h[np.argsort((h * h).sum(axis=1))[:50]].mean()
    return perf_counter() - t0


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def _median_detail(reps) -> dict:
    keys = sorted({k for rep in reps for k in rep.detail})
    return {k: statistics.median(rep.detail[k] for rep in reps if k in rep.detail) for k in keys}


def run(args) -> int:
    workload = WORKLOADS[args.workload](args.tiny)
    tracer = spans.Tracer() if args.trace else None
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # closed loop: each cycle sets the workload up afresh, times a
        # reference pass and runs one repetition; the next cycle starts when
        # the previous one ends, unless a typical cycle would run past
        # --seconds. Set-ups are spread over the whole run, so `setup_s`
        # samples the host as `wall_s` does, and each cycle's times are scaled
        # by its own reference pass. Two cycles at least, so the same-seed
        # byte check always runs; a traced run alternates untraced and traced
        # cycles, three at least of each kind.
        min_cycles = 6 if tracer is not None else 2
        good, cycles, refs, rates = [], [], [], []
        setups, walls = [], {False: [], True: []}
        raw = {"setup_s": [], "wall_s": []}
        attempted = failed = 0
        first_digest = None
        start = perf_counter()
        while attempted < min_cycles or (
            perf_counter() - start + statistics.median(cycles) <= args.seconds
        ):
            traced = tracer is not None and attempted % 2 == 1
            scope = tracer.span if traced else lambda name: nullcontext()
            attempted += 1
            t0 = perf_counter()
            try:
                with tracer.installed() if traced else nullcontext():
                    with scope(spans.SETUP):
                        workload.setup(args.seed, workdir)
                    t1 = perf_counter()
                    ref = reference_pass()
                    t2 = perf_counter()
                    with scope(spans.REP):
                        rep = workload.rep()
                    t3 = perf_counter()
            except Exception:
                traceback.print_exc()
                failed += 1
                break
            cycles.append(t3 - t0)
            first_digest = first_digest or rep.digest
            if rep.digest != first_digest:
                rep.problems.append("outputs differ from the first same-seed repetition")
            if rep.problems:
                failed += 1
                print(f"repetition {attempted} failed: {'; '.join(rep.problems)}", file=sys.stderr)
                continue
            good.append(rep)
            scale = REF_S / ref
            refs.append(ref)
            setups.append((t1 - t0) * scale)
            walls[traced].append((t3 - t2) * scale)
            rates.append(rep.work / rep.work_s / scale)
            if not traced:
                raw["setup_s"].append(t1 - t0)
                raw["wall_s"].append(t3 - t2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if not walls[False] or (tracer is not None and not walls[True]):
        print("no repetition of each kind succeeded; no result", file=sys.stderr)
        return 1

    detail = _median_detail(good)
    detail.update(
        failed_share=failed / attempted,
        repetitions=len(good),
        wall_s_samples=sorted(walls[False]),
        ref_s=statistics.median(refs),
        raw_wall_s=statistics.median(raw["wall_s"]),
        raw_setup_s=statistics.median(raw["setup_s"]),
    )
    if tracer is not None:
        detail["traced_wall_s_samples"] = sorted(walls[True])
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        values = spans.per_layer(tracer.totals(), len(walls[True]), overhead)
        units = dict(spans.PER_LAYER)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls[False]),
            "work_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail["setup_s_samples"] = sorted(setups)
        units = dict(END_TO_END)

    print(json.dumps({"facts": machine_facts(args)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long; two cycles at least run (six when traced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
