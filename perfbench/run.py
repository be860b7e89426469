#!/usr/bin/env python3
"""notepheno benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload demo-protocol --seed 1 --seconds 58 --trace 0

Run from the root of a notepheno checkout; the program is imported from its
``src/`` directory and driven through ``notepheno.cli.main`` in this process.
The run repeats the workload's timed CLI sequence until ``--seconds`` are
used, setting the workload up again at even intervals. ``wall_s`` is the mean
wall time of the timed sequence over the run and ``infer_notes_per_s`` the
notes read over the seconds spent reading them; ``setup_s`` is the median
set-up time. A mean over the whole run, not a median, because the shared host
switches between a fast and a slow speed for seconds at a time (one
iteration can take 1.7 times another), and the median of such a two-peaked
sample jumps between the peaks from run to run, where the mean follows the
share of time spent in each.

With ``--trace 0`` the last stdout line carries the end-to-end metrics named
in BENCHMARK.json. With ``--trace 1`` iterations alternate untraced and
traced; the last line carries the per-layer metrics of the traced iteration
with the median wall time, whose layer self times plus
``trace.unattributed_s`` add up to its ``trace.wall_s``.
``trace.overhead_s`` is the mean traced minus the mean untraced wall time.
The line before the result holds the environment and raw samples.

Every iteration checks the outputs: every call exits 0, metrics.csv has one
row per (phenotype, model), every output is byte-identical across the
iterations and set-ups of the run, and where the workload explains, a planted
phrase is in the global top 19. The traced run also fails if a layer the
workload exercises records no call, or if the self times do not add up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ITERATIONS = 4
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Layer self-time metric per notepheno module; modules not listed land in
# trace.other_self_s, so the self times always add up.
LAYER_SELF = {
    "cli": "cli.self_s", "experiment": "experiment.self_s", "corpus": "corpus.busy_s",
    "embeddings": "embeddings.self_s", "cnn": "cnn.self_s", "optim": "optim.self_s",
    "concepts": "concepts.self_s", "featurize": "featurize.busy_s",
    "baselines": "baselines.self_s", "metrics": "metrics.self_s",
    "saliency": "saliency.self_s",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def emb_rows_touched_ratio(run_dir: Path, labeled: Path, tokenize) -> float:
    """Mean distinct vocabulary ids per training note over the vocabulary size.

    It is read off the inputs and the written vocabulary, not the code:
    backward runs once per training note per epoch, and every synthetic note
    is longer than the widest filter, so no PAD id is added.
    """
    vocab = json.loads((run_dir / "vocab.json").read_text(encoding="utf-8"))["tokens"]
    index = {tok: i for i, tok in enumerate(vocab)}
    train_ids = set((run_dir / "split" / "train.ids").read_text(encoding="utf-8").split())
    touched = []
    with open(labeled, encoding="utf-8") as fh:
        for line in fh:
            note = json.loads(line)
            if note["note_id"] in train_ids:
                touched.append(len({index.get(t, 1) for t in tokenize(note["text"])}))
    return statistics.fmean(touched) / len(vocab)


def layer_metrics(t, wall_s: float, workload, sample, tokenize) -> dict:
    """The per_layer metrics of one traced iteration, from tracer t's totals."""
    train_s = t.inclusive("cnn.train")
    examples = t.calls("cnn.backward", parent="cnn.train")
    steps = t.calls("optim.adadelta_step", parent="cnn.train")
    pretrain_s = t.inclusive("embeddings.pretrain_embeddings")
    match_calls = t.calls("concepts.match_concepts")
    m = {
        "cnn.forward_s": t.inclusive("cnn.forward"),
        "cnn.backward_s": t.inclusive("cnn.backward"),
        "cnn.train_self_s": t.self_seconds("cnn.train"),
        "cnn.max_norm_s": t.inclusive("cnn.apply_max_norm"),
        "cnn.examples_per_s": examples / train_s if train_s else 0.0,
        "cnn.emb_rows_touched_ratio": (
            emb_rows_touched_ratio(sample.run_dir, workload.paths["labeled"], tokenize)
            if examples else 0.0
        ),
        "cnn.ckpt_save_s": t.inclusive("cnn.save_checkpoint"),
        "cnn.ckpt_load_s": t.inclusive("cnn.load_checkpoint"),
        "optim.cnn_step_s": t.inclusive("optim.adadelta_step", parent="cnn.train"),
        "optim.steps": steps,
        "optim.elements_per_step": t.counters["cnn_step_elements"] / steps if steps else 0.0,
        "embeddings.pretrain_s": pretrain_s,
        "embeddings.centers_per_s": t.counters["sgns_centers"] / pretrain_s if pretrain_s else 0.0,
        "embeddings.save_s": t.inclusive("embeddings.save_embeddings"),
        "concepts.match_s": t.inclusive("concepts.match_concepts"),
        "concepts.match_calls": match_calls,
        "concepts.rematch_ratio": match_calls / workload.distinct_notes,
        "featurize.n_features": t.counters["n_features"],
        "baselines.logreg_fit_s": t.inclusive("baselines.train_logreg"),
        "baselines.logreg_iters": t.calls(
            "baselines.logreg_objective_and_grads", parent="baselines.train_logreg"
        ),
        "baselines.rf_fit_s": t.inclusive("baselines.train_rf"),
        "baselines.predict_s": t.outer_inclusive("baselines.predict"),
        "baselines.ckpt_save_s": t.inclusive("baselines.save_baseline_checkpoint"),
        "baselines.ckpt_load_s": t.inclusive("baselines.load_baseline_checkpoint"),
        "saliency.global_s": t.inclusive("saliency.global_top_phrases"),
        "saliency.notes_scored": t.calls(
            "saliency.phrase_scores", parent="saliency.global_top_phrases"
        ),
        "corpus.vocab_size": len(
            json.loads((sample.run_dir / "vocab.json").read_text(encoding="utf-8"))["tokens"]
        ),
        "trace.other_self_s": sum(
            t.layer_self(layer) for layer in t.layers if layer not in LAYER_SELF
        ),
        "trace.unattributed_s": wall_s - t.root_seconds(),
        "trace.wall_s": wall_s,
    }
    for layer, name in LAYER_SELF.items():
        m[name] = t.layer_self(layer)
    return m


def run(args, workdir: Path) -> tuple[dict, dict]:
    import numpy as np
    import scipy

    import notepheno
    from notepheno import cli
    from notepheno.corpus import tokenize

    if Path(notepheno.__file__).resolve().parent != ROOT / "src" / "notepheno":
        raise RuntimeError(f"imported notepheno from {notepheno.__file__}, not this checkout")

    from tracer import Tracer
    from workloads import WORKLOADS, Calls, CheckFailed, digest

    calls = Calls(cli)
    workload = WORKLOADS[args.workload](workdir, args.seed, calls)
    problems: list[str] = []
    setup_s, setup_digests = [], set()

    # One round is an untraced iteration, plus a traced one when tracing, and
    # starts with a set-up when the run is due one: workload.setup_reps
    # set-ups are spread evenly over --seconds, so that setup_s samples the
    # same stretch of a shared host's drifting speed as the iterations do.
    # Rounds repeat until another round of median length would pass --seconds.
    tracer = Tracer(notepheno) if args.trace else None
    min_rounds = 2 if tracer else MIN_ITERATIONS
    samples, traced = [], []  # traced: (wall_s, per-layer metrics)
    digests = set()
    round_s = []
    start = time.perf_counter()
    k = 0
    while not problems:
        began = time.perf_counter()
        try:
            due = len(setup_s) * args.seconds / workload.setup_reps
            if len(setup_s) < workload.setup_reps and began - start >= due:
                workload.setup(len(setup_s))
                setup_s.append(time.perf_counter() - began)
                setup_digests.add(workload.setup_digest())
            sample = workload.iterate(k)
            samples.append(sample)
            digests.add(digest(sample.artifacts))
            shutil.rmtree(sample.out_dir)
            k += 1
            if tracer:
                tracer.reset()
                with tracer.installed():
                    sample = workload.iterate(k)
                traced.append(
                    (sample.wall_s, layer_metrics(tracer, sample.wall_s, workload, sample, tokenize))
                )
                missing = [layer for layer in workload.layers if tracer.layer_calls(layer) == 0]
                if missing:
                    problems.append(f"layers with no traced call: {missing}")
                metrics = traced[-1][1]
                parts = [metrics[name] for name in LAYER_SELF.values()]
                parts += [metrics["trace.other_self_s"], metrics["trace.unattributed_s"]]
                if abs(sum(parts) - sample.wall_s) > 1e-6:
                    problems.append(f"self times add up to {sum(parts)}, not {sample.wall_s}")
                digests.add(digest(sample.artifacts))
                shutil.rmtree(sample.out_dir)
                k += 1
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"iteration {k}: {type(exc).__name__}: {exc}")
        round_s.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(round_s) >= min_rounds and elapsed + statistics.median(round_s) > args.seconds:
            break
    if len(setup_digests) > 1:
        problems.append("set-up outputs differ between repetitions")
    if len(digests) > 1:
        problems.append("outputs differ between iterations")
    if calls.failed:
        problems.append(f"{calls.failed} of {calls.attempted} calls failed")
    if not samples or (tracer and not traced):
        raise RuntimeError("; ".join(problems) or "no iteration completed")

    first = samples[0]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": k,
        "outputs_sha256": sorted(digests),
        "env": environment(np, scipy),
        "setup_s": setup_s,
        "wall_s": [s.wall_s for s in samples],
        "train_s": workload.setup_train_s or [s.train_s for s in samples],
        "attempted": calls.attempted,
        "failed": calls.failed,
        "error_rate": calls.failed / calls.attempted,
        "na_f1_rows": [f"{p}/{m}" for p, m, f1 in first.f1_rows if f1 is None],
        "problems": problems,
        "failures": calls.failures,
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.fmean(s.wall_s for s in samples),
            "infer_notes_per_s": sum(s.infer_notes for s in samples) / sum(s.infer_s for s in samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "f1_mean": statistics.fmean(f1 or 0.0 for _, _, f1 in first.f1_rows),
        }
    else:
        traced.sort(key=lambda pair: pair[0])
        metrics = dict(traced[(len(traced) - 1) // 2][1])
        metrics["trace.overhead_s"] = (
            statistics.fmean(w for w, _ in traced) - statistics.fmean(s.wall_s for s in samples)
        )
        report["hook_errors"] = tracer.hook_errors
    report["correct"] = not problems
    return report, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "notepheno" / "__init__.py").is_file():
        return _fail(f"{ROOT} holds no src/notepheno; run from the root of a notepheno checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}; choose from {names}")

    # Pin every BLAS/OpenMP pool to one thread before numpy loads: the
    # program is single-threaded Python, and a fixed pool keeps runs comparable.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report, metrics = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(listed):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(listed))} do not match BENCHMARK.json")
    print(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in listed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
