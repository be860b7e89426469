"""End-to-end experiment protocol: split once, train every requested model on
the same train split, evaluate everything on the same test split, and write
the metric reports.

All randomness descends from one root seed through a per-component derivation
(sha256 of "component name" with the root seed), so adding or removing a model
from the run never perturbs the others' results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import baselines, checkpoint, cnn, concepts, featurize, metrics
from .corpus import (
    Note,
    Settings,
    SplitSpec,
    Vocabulary,
    build_settings,
    build_vocabulary,
    in_range,
    load_notes_jsonl,
    split_dataset,
    tokenize,
    write_split_manifest,
)
from .embeddings import EmbeddingMatrix, PretrainConfig, pretrain_embeddings, save_embeddings

MODEL_NAMES = ("cnn", *baselines.MODELS)
CONCEPT_MODELS = {
    name for name, (_, spec) in baselines.MODELS.items() if spec["features"] == "concepts"
}
REPORT_FORMAT_VERSION = 1


class ConfigError(Exception):
    """Invalid configuration (exit code 2)."""


class DataError(Exception):
    """Missing or malformed input data (exit code 3)."""


class ModelLoadError(Exception):
    """Unusable checkpoint or checkpoint/corpus mismatch (exit code 4)."""


def read_notes(path: str | Path, what: str = "corpus") -> list[Note]:
    """The notes of a JSONL file; a missing or malformed file is a DataError (exit 3)."""
    try:
        return load_notes_jsonl(path)
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"failed to read {what} {path}: {exc}") from exc


def read_dictionary(path: str | Path) -> concepts.ConceptDictionary:
    """A concept dictionary; a missing or malformed file is a DataError (exit 3)."""
    try:
        return concepts.load_dictionary(path)
    except (OSError, ValueError) as exc:
        raise DataError(f"failed to read concept dictionary {path}: {exc}") from exc


def score_predictions(preds, notes: list[Note], phenotype: str) -> metrics.MetricTriple:
    """PPV, sensitivity and F1 of 0/1 predictions against the notes' labels."""
    labels = [note.labels[phenotype] for note in notes]
    return metrics.metric_triple(metrics.confusion([int(p) for p in preds], labels))


def predict_labels(
    ckpt: checkpoint.Checkpoint, token_lists: list[list[str]], dictionary=None, counts=None
) -> dict[str, np.ndarray]:
    """0/1 labels of each token list for every phenotype of a trained model.

    A CNN head labels positive at its config threshold (see cnn.classify), a
    baseline at a probability of 0.5 or more. A baseline featurizes the
    tokens through its pipeline (a concept pipeline needs the dictionary);
    counts, the pipeline's counts of the same token lists, skips that step.
    """
    if ckpt.kind == "cnn":
        _, labels = cnn.predict_batch(ckpt.model, [ckpt.vocab.resolve(t) for t in token_lists])
        return {phenotype: labels[:, h] for h, phenotype in enumerate(ckpt.phenotypes)}
    if counts is None:
        counts = baselines.pipeline_counts(ckpt.pipeline, token_lists, dictionary)
    X = baselines.pipeline_vectors(ckpt.pipeline, counts, ckpt.space)
    return {ckpt.phenotypes[0]: baselines.predict_proba(ckpt.kind, ckpt.model, X) >= 0.5}


def require_labels(notes: list[Note], phenotypes: list[str]):
    """Every note must carry a label for every phenotype (exit 3 otherwise)."""
    for note in notes:
        missing = [p for p in phenotypes if note.labels is None or p not in note.labels]
        if missing:
            raise DataError(f"note {note.note_id!r} is missing labels for {missing}")


def require_tokens(notes: list[Note], token_lists: list[list[str]]):
    """The CNN cannot read a note without tokens: reject it by name (exit 3)."""
    for note, tokens in zip(notes, token_lists):
        if not tokens:
            raise DataError(f"note {note.note_id!r} has no tokens; the CNN cannot read an empty note")


def derive_seed(root_seed: int, component: str) -> int:
    """Deterministic per-component seed: sha256 over the root seed and name."""
    digest = hashlib.sha256(f"{root_seed}:{component}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class BaselineConfig(Settings):
    logreg_l2_lambda: float = in_range(1.0, ge=0)
    rf_n_trees: int = in_range(100, ge=1)
    rf_max_depth: int | None = in_range(None, ge=1)
    rf_n_features_per_split: int | None = in_range(None, ge=1)  # None -> ceil(sqrt(D))


@dataclass(frozen=True)
class ExperimentConfig(Settings):
    labeled_path: str
    output_dir: str
    phenotypes: list[str]
    models: list[str]
    unlabeled_path: str | None = None
    dictionary_path: str | None = None
    seed: int = 0
    multilabel: bool = False
    vocab_min_count: int = in_range(2, ge=1)
    split: SplitSpec = field(default_factory=SplitSpec)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    cnn: cnn.CnnConfig = field(default_factory=cnn.CnnConfig)
    baselines: BaselineConfig = field(default_factory=BaselineConfig)

    def validate(self):
        if not self.phenotypes:
            raise ConfigError("at least one phenotype is required")
        for i, name in enumerate(self.phenotypes):
            # each name is part of a checkpoint file name and of a CSV row
            if not name or any(c in name for c in "/\\,\0") or name.splitlines() != [name]:
                raise ConfigError(
                    f"phenotype name {name!r} must be non-empty and hold no '/', '\\', ',', "
                    "line break or NUL"
                )
            if name in self.phenotypes[:i]:
                raise ConfigError(f"phenotype {name!r} is listed twice")
        if not self.models:
            raise ConfigError("at least one model is required")
        unknown = [m for m in self.models if m not in MODEL_NAMES]
        if unknown:
            raise ConfigError(f"unknown model names {unknown}; choose from {list(MODEL_NAMES)}")
        if len(set(self.models)) != len(self.models):
            raise ConfigError("duplicate model names in the model list")
        needs_dict = any(m in CONCEPT_MODELS for m in self.models)
        if needs_dict and not self.dictionary_path:
            raise ConfigError("concept-based models need a dictionary_path")


# Section fields run_experiment sets itself, and where their values come from.
_DERIVED_FIELDS = {
    ("split", "seed"): "the split seed is derived from the root seed",
    ("pretrain", "seed"): "the pretraining seed is derived from the root seed",
    ("cnn", "seed"): "each CNN's seed is derived from the root seed",
    ("cnn", "n_heads"): "the CNN has one head per phenotype it is trained for",
}


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    for (section, key), why in _DERIVED_FIELDS.items():
        if isinstance(data.get(section), dict) and key in data[section]:
            raise ConfigError(f"{section}.{key} cannot be set: {why}")
    try:
        return build_settings(ExperimentConfig, data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return experiment_config_from_dict(data)


@dataclass
class ExperimentResult:
    metrics: dict[tuple[str, str], metrics.MetricTriple]
    paths: dict[str, Path]
    split_hash: str


@dataclass(frozen=True)
class Job:
    """One fit: a model, the phenotypes it predicts, its tag, and its seed and seed name."""

    model: str
    phenotypes: tuple[str, ...]
    tag: str
    seed_name: str
    seed: int


def plan(config: ExperimentConfig) -> list[Job]:
    """Every fit of a run in config.models order, then phenotype order. A job
    fits one phenotype, except a --multilabel CNN's, tagged multilabel."""
    jobs = []
    for model in config.models:
        joint = model == "cnn" and config.multilabel and len(config.phenotypes) > 1
        for heads in [tuple(config.phenotypes)] if joint else [(p,) for p in config.phenotypes]:
            tag = "multilabel" if joint else heads[0]
            seed_name = f"train:{model}:{tag}"
            jobs.append(Job(model, heads, tag, seed_name, derive_seed(config.seed, seed_name)))
    return jobs


@dataclass(frozen=True)
class Shared:
    """What every job reads, all of it computed before the first fit."""

    config: ExperimentConfig
    split: tuple[list[Note], list[Note], list[Note]]  # train, val, test
    tokens: dict[str, list[str]]  # note id -> tokens
    vocab: Vocabulary
    embeddings: EmbeddingMatrix | None
    counts: dict[tuple, list[dict]]  # _counts_key -> counts of the train, then test notes


def _counts_key(job: Job) -> tuple:
    """What a baseline's counts depend on: the feature kind, n, and the
    phenotype only when the pipeline filters the dictionary by it."""
    spec = baselines.MODELS[job.model][1]
    return spec["features"], spec.get("n"), job.phenotypes[0] if spec.get("filtered") else None


def run_job(job: Job, shared: Shared) -> tuple[checkpoint.Checkpoint, dict]:
    """Train the job's model on the train split and score it on the test split.

    Returns the trained model and its metrics, keyed (phenotype, model).
    """
    train_notes, val_notes, test_notes = shared.split
    heads = list(job.phenotypes)
    test_counts = None
    if job.model == "cnn":
        def data_for(notes):
            return [
                (shared.vocab.resolve(shared.tokens[n.note_id]),
                 np.array([n.labels[p] for p in heads], dtype=float))
                for n in notes
            ]

        cfg = replace(shared.config.cnn, n_heads=len(heads), seed=job.seed)
        try:
            model, _ = cnn.train(
                cnn.init_model(cfg, shared.embeddings), data_for(train_notes), data_for(val_notes)
            )
        except ValueError as exc:  # a diverged run
            raise ConfigError(str(exc)) from exc
        trained = checkpoint.Checkpoint("cnn", model, heads, vocab=shared.vocab)
    else:
        kind = baselines.MODELS[job.model][0]
        phenotype = heads[0]
        pipeline = baselines.pipeline_record(job.model, phenotype)
        counts = shared.counts[_counts_key(job)]
        train_counts, test_counts = counts[: len(train_notes)], counts[len(train_notes) :]
        space = featurize.fit_feature_space(train_counts)
        X_train = baselines.pipeline_vectors(pipeline, train_counts, space)
        y = [note.labels[phenotype] for note in train_notes]
        cfg = shared.config.baselines
        if kind == "logreg":
            model = baselines.train_logreg(X_train, y, l2_lambda=cfg.logreg_l2_lambda)
        else:
            model = baselines.train_rf(
                X_train, y,
                n_trees=cfg.rf_n_trees,
                max_depth=cfg.rf_max_depth,
                n_features_per_split=cfg.rf_n_features_per_split,
                seed=job.seed,
            )
        trained = checkpoint.Checkpoint(kind, model, heads, space=space, pipeline=pipeline)
    test_tokens = [shared.tokens[note.note_id] for note in test_notes]
    labels = predict_labels(trained, test_tokens, counts=test_counts)
    rows = {(p, job.model): score_predictions(labels[p], test_notes, p) for p in heads}
    return trained, rows


def run_experiment(config: ExperimentConfig, progress=None) -> ExperimentResult:
    """Run the full protocol described by the config; returns metrics and paths.

    Every input is read and checked, and every input of the jobs (the
    vocabulary and embeddings among them) is computed, before the output
    directory is made: a run that fails before its first job writes nothing.
    progress, when given, is called with one status string per stage.
    """
    say = progress or (lambda msg: None)
    notes = read_notes(config.labeled_path, "labeled corpus")
    if not notes:
        raise DataError(f"labeled corpus {config.labeled_path} is empty")
    require_labels(notes, config.phenotypes)
    unlabeled: list[Note] = []
    if config.unlabeled_path:
        unlabeled = read_notes(config.unlabeled_path, "unlabeled corpus")

    dictionary = None
    if any(m in CONCEPT_MODELS for m in config.models):
        dictionary = read_dictionary(config.dictionary_path)

    split_spec = replace(config.split, seed=derive_seed(config.seed, "split"))
    train_notes, val_notes, test_notes = split_dataset(notes, split_spec)
    if not test_notes:
        raise DataError(
            f"the split of {len(notes)} notes is {len(train_notes)} train / {len(val_notes)} val / "
            f"{len(test_notes)} test; there are no test notes to score the models on"
        )
    tokens_by_id = {n.note_id: tokenize(n.text) for n in notes}
    if "cnn" in config.models:
        require_tokens(notes, [tokens_by_id[n.note_id] for n in notes])

    say(f"split: {len(train_notes)} train / {len(val_notes)} val / {len(test_notes)} test")

    unlabeled_tokens = [tokenize(n.text) for n in unlabeled]
    vocab_corpus = unlabeled_tokens + [tokens_by_id[n.note_id] for n in train_notes]
    vocab = build_vocabulary(vocab_corpus, min_count=config.vocab_min_count)

    derived_seeds: dict[str, int] = {"split": split_spec.seed}
    emb = None
    if "cnn" in config.models:
        pretrain_cfg = replace(config.pretrain, seed=derive_seed(config.seed, "pretrain"))
        derived_seeds["pretrain"] = pretrain_cfg.seed
        if unlabeled and pretrain_cfg.epochs > 0:
            say(f"pretraining embeddings on {len(unlabeled)} unlabeled notes")
        try:  # without notes or epochs, the seeded init_embeddings table
            emb = pretrain_embeddings(unlabeled_tokens, vocab, pretrain_cfg)
        except ValueError as exc:  # a diverged run
            raise ConfigError(str(exc)) from exc

    jobs = plan(config)
    scored = [tokens_by_id[n.note_id] for n in train_notes + test_notes]
    counts: dict[tuple, list[dict]] = {}
    for job in jobs:
        if job.model in baselines.MODELS and _counts_key(job) not in counts:
            pipeline = baselines.pipeline_record(job.model, job.phenotypes[0])
            counts[_counts_key(job)] = baselines.pipeline_counts(pipeline, scored, dictionary)
    shared = Shared(config, (train_notes, val_notes, test_notes), tokens_by_id, vocab, emb, counts)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "checkpoints").mkdir(exist_ok=True)
    (out_dir / "reports").mkdir(exist_ok=True)
    split_hash = write_split_manifest(out_dir / "split", train_notes, val_notes, test_notes)
    with open(out_dir / "vocab.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(vocab.to_dict(), sort_keys=True) + "\n")
    if emb is not None:
        save_embeddings(emb, vocab, out_dir / "embeddings.txt")

    result = ExperimentResult(metrics={}, paths={"output_dir": out_dir}, split_hash=split_hash)
    for job in jobs:
        if job.model == "cnn":
            say(f"training cnn [{job.tag}] on {len(train_notes)} notes")
        else:
            say(f"training {job.model} [{job.tag}]")
        trained, rows = run_job(job, shared)
        path = out_dir / "checkpoints" / f"{job.model}__{job.tag}.json"
        checkpoint.save(trained, path)
        result.paths[f"{job.model}:{job.tag}"] = path
        result.metrics.update(rows)
        derived_seeds[job.seed_name] = job.seed

    _write_reports(config, result, derived_seeds)
    return result


def _write_reports(config, result, derived_seeds):
    resolved = asdict(config)
    # the report header leaves out the environment paths, which would tie
    # report bytes to where the outputs land
    paths = ("labeled_path", "unlabeled_path", "dictionary_path", "output_dir")
    semantic = {key: value for key, value in resolved.items() if key not in paths}
    header = [
        f"# format_version: {REPORT_FORMAT_VERSION}",
        f"# split_manifest_sha256: {result.split_hash}",
        f"# config: {json.dumps(semantic, sort_keys=True)}",
    ]
    rows = [metrics.REPORT_HEADER] + [
        metrics.report_row(phenotype, model, result.metrics[phenotype, model])
        for phenotype in config.phenotypes
        for model in config.models
    ]
    f1_rows = ["phenotype," + ",".join(config.models)] + [
        ",".join([p] + [metrics._fmt(result.metrics[p, m].f1, True) for m in config.models])
        for p in config.phenotypes
    ]
    echo = {
        "format_version": REPORT_FORMAT_VERSION,
        "config": resolved,
        "derived_seeds": derived_seeds,
        "split_manifest_sha256": result.split_hash,
    }
    outputs = {
        "metrics": ("reports/metrics.csv", header + rows),
        "f1_comparison": ("reports/f1_comparison.csv", header + f1_rows),
        "config_echo": ("config_resolved.json", [json.dumps(echo, sort_keys=True, indent=2)]),
    }
    for key, (name, lines) in outputs.items():
        result.paths[key] = result.paths["output_dir"] / name
        result.paths[key].write_text("\n".join(lines) + "\n", encoding="utf-8")
