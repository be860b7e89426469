"""The benchmark workloads: inputs, the CLI calls of one iteration, and checks.

Every workload is a closed loop with one client: each CLI call starts only
after the previous one has returned. Set-up writes the inputs (and, for
``score``, trains the checkpoints the read path loads); an iteration is the
timed sequence of CLI calls, each into a fresh output directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from inputs import CorpusSpec, write_corpus, write_heldout

TOP_K = 19
METRICS_HEADER = "phenotype,model,ppv_pct,sensitivity_pct,f1_pct,ppv,sensitivity,f1"
BASELINE_MODELS = ["2gram-lr", "3gram-lr", "ctakes-rf", "ctakes-lr", "filter-rf", "filter-lr"]
ALL_MODELS = ["cnn"] + BASELINE_MODELS
SCORE_MODELS = ["cnn", "2gram-lr", "ctakes-rf", "ctakes-lr"]

# The shipped demo's corpus shape (300-word pool, 4 synonym variants) and
# experiment settings; demo-protocol and score share it.
DEMO_SPEC = CorpusSpec(n_labeled=150, n_unlabeled=150, pool=300, variants=4)
DEMO_PRETRAIN = {"dim": 24, "epochs": 2, "window": 3}


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports correct=false."""


@dataclass
class Calls:
    """Runs CLI commands in this process and counts attempts and failures."""

    cli: object
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def run(self, argv: list[str]) -> float:
        """Seconds the call took; a non-zero exit or an exception counts as failed."""
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception:  # a traceback is a failed call, not a dead benchmark
            code = "exception"
            sink.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.failures.append({"argv": argv[0], "exit": code, "output": sink.getvalue()[-2000:]})
        return seconds


@dataclass
class Sample:
    """What one iteration measured and produced."""

    wall_s: float  # the timed CLI calls
    infer_notes: int  # notes through evaluate/explain
    infer_s: float
    train_s: float | None
    f1_rows: list[tuple[str, str, float | None]]
    artifacts: dict[str, bytes]  # outputs that must be identical every iteration
    out_dir: Path  # removed after the iteration
    run_dir: Path  # the run-experiment output the iteration used


def digest(artifacts: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(artifacts):
        h.update(name.encode("utf-8") + b"\0" + hashlib.sha256(artifacts[name]).digest())
    return h.hexdigest()


def _read_rows(path: Path) -> list[tuple[str, str, float | None]]:
    """(phenotype, model, f1) rows of a metrics.csv or evaluate report."""
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    if not lines or lines[0] != METRICS_HEADER:
        raise CheckFailed(f"{path.name}: unexpected header {lines[:1]}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append((cells[0], cells[1], None if cells[7] == "NA" else float(cells[7])))
    return rows


def check_metric_table(path: Path, phenotypes: list[str], models: list[str]):
    """metrics.csv holds exactly one row per (phenotype, model)."""
    got = sorted((p, m) for p, m, _ in _read_rows(path))
    want = sorted((p, m) for p in phenotypes for m in models)
    if got != want:
        raise CheckFailed(f"{path}: rows {got} != expected {want}")


def check_planted_in_top(tsv: Path, spec: CorpusSpec, phenotype_index: int = 0):
    """Some global top-k phrase holds a planted variant's informative part.

    That is phrase_length - 1 consecutive tokens of a variant. Without decoys
    the shared tail alone already decides the label, and on some seeds the
    top phrases are the tail next to filler words rather than a whole variant.
    """
    lines = tsv.read_text(encoding="utf-8").splitlines()[1:]
    phrases = [tuple(line.split("\t")[1].split(" ")) for line in lines]
    if len(phrases) != TOP_K:
        raise CheckFailed(f"{tsv.name}: {len(phrases)} phrases, expected {TOP_K}")
    m = spec.phrase_length - 1
    parts = {v[i : i + m] for v in spec.planted(phenotype_index) for i in range(len(v) - m + 1)}
    for tokens in phrases:
        if any(tokens[i : i + m] in parts for i in range(len(tokens) - m + 1)):
            return
    raise CheckFailed(f"{tsv.name}: no planted phrase in the global top-{TOP_K}")


def _config(paths: dict, phenotypes, models, unlabeled: bool, **extra) -> dict:
    """An experiment config; every call passes --out, which replaces output_dir."""
    config = {
        "labeled_path": str(paths["labeled"]),
        "dictionary_path": str(paths["dictionary"]),
        "output_dir": "out",
        "phenotypes": phenotypes,
        "models": models,
        "seed": 2,
        **extra,
    }
    if unlabeled:
        config["unlabeled_path"] = str(paths["unlabeled"])
    return config


class Workload:
    name = ""
    spec: CorpusSpec
    # Layers the traced run must see called at least once.
    layers: tuple[str, ...] = ()
    # Set-ups per run, spread over it; setup_s is their median. Writing a
    # corpus takes tens of milliseconds, so one slow file write or a slow
    # stretch of a shared host moves a median of few.
    setup_reps = 9

    def __init__(self, root: Path, seed: int, calls: Calls):
        self.root = root
        self.seed = seed
        self.calls = calls
        self.setup_train_s: list[float] = []

    def setup(self, rep: int):
        """Write the inputs into a fresh directory; later iterations use the last one."""
        self.input_dir = self.root / f"inputs{rep}"
        self.paths = write_corpus(self.spec, self.seed, self.input_dir / "corpus")
        self.config_path = self.input_dir / "config.json"
        self.config_path.write_text(json.dumps(self.config()), encoding="utf-8")

    def setup_digest(self) -> str:
        """Digest of what set-up wrote; every repetition must match."""
        return digest({p.name: p.read_bytes() for p in self.paths.values()})

    @property
    def distinct_notes(self) -> int:
        """Labeled notes an iteration passes to the program."""
        return self.spec.n_labeled

    def config(self) -> dict:
        raise NotImplementedError

    def iterate(self, k: int) -> Sample:
        raise NotImplementedError

    def _run_experiment(self, out: Path) -> float:
        return self.calls.run(["run-experiment", "--config", str(self.config_path), "--out", str(out)])

    def _evaluate(self, ckpt: Path, corpus: Path, report: Path) -> float:
        argv = ["evaluate", "--checkpoint", str(ckpt), "--corpus", str(corpus), "--out", str(report)]
        if "ctakes" in ckpt.name or "filter" in ckpt.name:
            argv += ["--dictionary", str(self.paths["dictionary"])]
        return self.calls.run(argv)

    def _explain(self, ckpt: Path, corpus: Path, out_base: Path) -> float:
        return self.calls.run(
            ["explain", "--checkpoint", str(ckpt), "--corpus", str(corpus),
             "--phenotype", "pheno0", "--top-k", str(TOP_K), "--out", str(out_base)]
        )


class DemoProtocol(Workload):
    """run-experiment with all 7 models, then global explain on the labeled corpus."""

    name = "demo-protocol"
    spec = DEMO_SPEC
    layers = ("cli", "experiment", "corpus", "embeddings", "cnn", "optim", "concepts",
              "featurize", "baselines", "metrics", "saliency")

    def config(self):
        return _config(self.paths, ["pheno0"], ALL_MODELS, True, pretrain=DEMO_PRETRAIN)

    def iterate(self, k):
        out = self.root / f"iter{k}"
        train_s = self._run_experiment(out)
        tsv_base = out / "reports" / "saliency_pheno0"
        infer_s = self._explain(out / "checkpoints" / "cnn__pheno0.json", self.paths["labeled"], tsv_base)
        metrics_csv = out / "reports" / "metrics.csv"
        check_metric_table(metrics_csv, ["pheno0"], ALL_MODELS)
        check_planted_in_top(tsv_base.with_suffix(".tsv"), self.spec)
        return Sample(
            wall_s=train_s + infer_s, infer_notes=self.spec.n_labeled, infer_s=infer_s,
            train_s=train_s, f1_rows=_read_rows(metrics_csv),
            artifacts={"metrics.csv": metrics_csv.read_bytes(),
                       "saliency.tsv": tsv_base.with_suffix(".tsv").read_bytes()},
            out_dir=out, run_dir=out,
        )


class Score(Workload):
    """Set-up trains four models; an iteration evaluates each on a held-out
    corpus and explains the cnn on it. train_s is the set-up's run-experiment."""

    name = "score"
    spec = DEMO_SPEC
    setup_reps = 5  # each one trains four models, about a tenth of a run
    n_heldout = 400
    layers = ("cli", "corpus", "cnn", "concepts", "featurize", "baselines", "metrics", "saliency")

    def config(self):
        return _config(self.paths, ["pheno0"], SCORE_MODELS, True, pretrain=DEMO_PRETRAIN)

    def setup(self, rep):
        super().setup(rep)
        self.trained = self.input_dir / "trained"
        self.setup_train_s.append(self._run_experiment(self.trained))
        check_metric_table(self.trained / "reports" / "metrics.csv", ["pheno0"], SCORE_MODELS)
        self.heldout = write_heldout(self.spec, self.seed, self.n_heldout, self.input_dir / "heldout.jsonl")

    def setup_digest(self):
        files = list(self.paths.values()) + [self.heldout, self.trained / "reports" / "metrics.csv"]
        return digest({p.name: p.read_bytes() for p in files})

    @property
    def distinct_notes(self):
        return self.n_heldout

    def iterate(self, k):
        out = self.root / f"iter{k}"
        out.mkdir(parents=True)
        ckpts = self.trained / "checkpoints"
        infer_s = 0.0
        rows = []
        artifacts = {}
        for model in SCORE_MODELS:
            report = out / f"evaluate_{model}.csv"
            infer_s += self._evaluate(ckpts / f"{model}__pheno0.json", self.heldout, report)
            rows += _read_rows(report)
            artifacts[report.name] = report.read_bytes()
        tsv_base = out / "saliency_pheno0"
        infer_s += self._explain(ckpts / "cnn__pheno0.json", self.heldout, tsv_base)
        check_planted_in_top(tsv_base.with_suffix(".tsv"), self.spec)
        artifacts["saliency.tsv"] = tsv_base.with_suffix(".tsv").read_bytes()
        return Sample(
            wall_s=infer_s, infer_notes=(len(SCORE_MODELS) + 1) * self.n_heldout,
            infer_s=infer_s, train_s=None, f1_rows=rows, artifacts=artifacts, out_dir=out,
            run_dir=self.trained,
        )


WORKLOADS = {w.name: w for w in (DemoProtocol, Score)}
