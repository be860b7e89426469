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
    SplitSpec,
    build_vocabulary,
    check_types,
    load_notes_jsonl,
    require_finite,
    split_dataset,
    tokenize,
    write_split_manifest,
)
from .embeddings import PretrainConfig, init_embeddings, pretrain_embeddings, save_embeddings

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


@dataclass
class BaselineConfig:
    logreg_l2_lambda: float = 1.0
    rf_n_trees: int = 100
    rf_max_depth: int | None = None
    rf_n_features_per_split: int | None = None  # None -> ceil(sqrt(D))

    def validate(self):
        require_finite(self)
        if self.rf_n_trees < 1:
            raise ValueError(f"rf_n_trees must be >= 1, got {self.rf_n_trees}")
        for name in ("rf_max_depth", "rf_n_features_per_split"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be null or >= 1, got {value}")


@dataclass
class ExperimentConfig:
    labeled_path: str
    output_dir: str
    phenotypes: list[str]
    models: list[str]
    unlabeled_path: str | None = None
    dictionary_path: str | None = None
    seed: int = 0
    multilabel: bool = False
    vocab_min_count: int = 2
    split: SplitSpec = field(default_factory=SplitSpec)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    cnn: cnn.CnnConfig = field(default_factory=cnn.CnnConfig)
    baselines: BaselineConfig = field(default_factory=BaselineConfig)

    def validate(self):
        if not self.phenotypes:
            raise ConfigError("at least one phenotype is required")
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
        try:
            self.split.validate()
            self.pretrain.validate()
            self.cnn.validate()
            self.baselines.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_SECTION_TYPES = {
    "split": SplitSpec,
    "pretrain": PretrainConfig,
    "cnn": cnn.CnnConfig,
    "baselines": BaselineConfig,
}
_TOP_LEVEL_KEYS = {
    "labeled_path",
    "unlabeled_path",
    "dictionary_path",
    "output_dir",
    "phenotypes",
    "models",
    "seed",
    "multilabel",
    "vocab_min_count",
} | set(_SECTION_TYPES)
# Section fields run_experiment sets itself, and where their values come from.
_DERIVED_FIELDS = {
    ("split", "seed"): "the split seed is derived from the root seed",
    ("pretrain", "seed"): "the pretraining seed is derived from the root seed",
    ("cnn", "seed"): "each CNN's seed is derived from the root seed",
    ("cnn", "n_heads"): "the CNN has one head per phenotype it is trained for",
}


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: v for k, v in data.items() if k not in _SECTION_TYPES}
    try:
        check_types(ExperimentConfig, kwargs, "")
        for section, cls in _SECTION_TYPES.items():
            if section in data:
                if not isinstance(data[section], dict):
                    raise ConfigError(f"config section {section!r} must be a JSON object")
                body = data[section]
                check_types(cls, body, f"{section}.")
                for key in body:
                    if (section, key) in _DERIVED_FIELDS:
                        raise ConfigError(
                            f"{section}.{key} cannot be set: {_DERIVED_FIELDS[section, key]}"
                        )
                try:
                    kwargs[section] = cls(**body)
                except TypeError as exc:
                    raise ConfigError(f"bad {section} section: {exc}") from exc
    except ValueError as exc:  # a field of the wrong type
        raise ConfigError(str(exc)) from exc
    try:
        config = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    config.validate()
    return config


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


def run_experiment(config: ExperimentConfig, progress=None) -> ExperimentResult:
    """Run the full protocol described by the config; returns metrics and paths.

    progress, when given, is called with one status string per stage.
    """
    config.validate()
    say = progress or (lambda msg: None)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "checkpoints").mkdir(exist_ok=True)
    (out_dir / "reports").mkdir(exist_ok=True)

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
    split_hash = write_split_manifest(out_dir / "split", train_notes, val_notes, test_notes)
    say(f"split: {len(train_notes)} train / {len(val_notes)} val / {len(test_notes)} test")

    tokens_by_id = {n.note_id: tokenize(n.text) for n in notes}
    if "cnn" in config.models:
        require_tokens(notes, [tokens_by_id[n.note_id] for n in notes])
    for n in unlabeled:
        tokens_by_id[n.note_id] = tokenize(n.text)

    vocab_corpus = [tokens_by_id[n.note_id] for n in unlabeled]
    vocab_corpus += [tokens_by_id[n.note_id] for n in train_notes]
    vocab = build_vocabulary(vocab_corpus, min_count=config.vocab_min_count)
    with open(out_dir / "vocab.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(vocab.to_dict(), sort_keys=True) + "\n")

    result = ExperimentResult(metrics={}, paths={"output_dir": out_dir}, split_hash=split_hash)
    derived_seeds: dict[str, int] = {"split": split_spec.seed}

    if "cnn" in config.models:
        _run_cnn(
            config, vocab, tokens_by_id, unlabeled, train_notes, val_notes, test_notes,
            out_dir, derived_seeds, result, say,
        )
    concept_counts: dict[tuple[bool, str | None], list[dict]] = {}
    for name in config.models:
        if name in baselines.MODELS:
            for phenotype in config.phenotypes:
                _run_baseline(
                    config, name, phenotype, dictionary, tokens_by_id, train_notes,
                    test_notes, out_dir, derived_seeds, result, say, concept_counts,
                )

    _write_reports(config, result, split_hash, derived_seeds, out_dir)
    return result


def _run_cnn(
    config, vocab, tokens_by_id, unlabeled, train_notes, val_notes, test_notes,
    out_dir, derived_seeds, result, say,
):
    pretrain_cfg = replace(config.pretrain, seed=derive_seed(config.seed, "pretrain"))
    derived_seeds["pretrain"] = pretrain_cfg.seed
    if unlabeled and pretrain_cfg.epochs > 0:
        say(f"pretraining embeddings on {len(unlabeled)} unlabeled notes")
        emb = pretrain_embeddings(
            [tokens_by_id[n.note_id] for n in unlabeled], vocab, pretrain_cfg
        )
    else:
        emb = init_embeddings(len(vocab), pretrain_cfg.dim, pretrain_cfg.seed)
    save_embeddings(emb, vocab, out_dir / "embeddings.txt")

    head_sets = (
        [list(config.phenotypes)] if config.multilabel else [[p] for p in config.phenotypes]
    )
    for heads in head_sets:
        tag = "multilabel" if len(heads) > 1 else heads[0]
        seed = derive_seed(config.seed, f"train:cnn:{tag}")
        derived_seeds[f"train:cnn:{tag}"] = seed
        model = cnn.init_model(replace(config.cnn, n_heads=len(heads), seed=seed), emb)

        def data_for(split_notes):
            pairs = []
            for note in split_notes:
                ids = vocab.resolve(tokens_by_id[note.note_id])
                labels = np.array([note.labels[p] for p in heads], dtype=float)
                pairs.append((ids, labels))
            return pairs

        say(f"training cnn [{tag}] on {len(train_notes)} notes")
        model, _ = cnn.train(model, data_for(train_notes), data_for(val_notes))
        trained = checkpoint.Checkpoint("cnn", model, heads, vocab=vocab)
        test_tokens = [tokens_by_id[note.note_id] for note in test_notes]
        _save_and_score(trained, "cnn", tag, test_tokens, test_notes, out_dir, result)


def _run_baseline(
    config, name, phenotype, dictionary, tokens_by_id, train_notes, test_notes,
    out_dir, derived_seeds, result, say, concept_counts,
):
    """Train, save and score one baseline. concept_counts maps (filtered,
    phenotype, or None when unfiltered) to the concept counts of the train
    and test notes, so each concept pipeline matches the notes once."""
    kind = baselines.MODELS[name][0]
    pipeline = baselines.pipeline_record(name, phenotype)
    token_lists = [tokens_by_id[note.note_id] for note in train_notes + test_notes]
    if pipeline["features"] == "concepts":
        key = (pipeline["filtered"], phenotype if pipeline["filtered"] else None)
        if key not in concept_counts:
            concept_counts[key] = baselines.pipeline_counts(pipeline, token_lists, dictionary)
        counts = concept_counts[key]
    else:
        counts = baselines.pipeline_counts(pipeline, token_lists, dictionary)
    train_counts, test_counts = counts[: len(train_notes)], counts[len(train_notes) :]
    space = featurize.fit_feature_space(train_counts)
    X_train = baselines.pipeline_vectors(pipeline, train_counts, space)
    y = [note.labels[phenotype] for note in train_notes]
    seed = derive_seed(config.seed, f"train:{name}:{phenotype}")
    derived_seeds[f"train:{name}:{phenotype}"] = seed
    say(f"training {name} [{phenotype}]")
    if kind == "logreg":
        model = baselines.train_logreg(X_train, y, l2_lambda=config.baselines.logreg_l2_lambda)
    else:
        model = baselines.train_rf(
            X_train, y,
            n_trees=config.baselines.rf_n_trees,
            max_depth=config.baselines.rf_max_depth,
            n_features_per_split=config.baselines.rf_n_features_per_split,
            seed=seed,
        )
    trained = checkpoint.Checkpoint(kind, model, [phenotype], space=space, pipeline=pipeline)
    test_tokens = token_lists[len(train_notes) :]
    _save_and_score(trained, name, phenotype, test_tokens, test_notes, out_dir, result, test_counts)


def _save_and_score(trained, name, tag, test_tokens, test_notes, out_dir, result, counts=None):
    """Save a freshly trained model as checkpoints/<name>__<tag>.json and score
    it on the test notes, one metrics row per phenotype it predicts."""
    path = out_dir / "checkpoints" / f"{name}__{tag}.json"
    checkpoint.save(trained, path)
    result.paths[f"{name}:{tag}"] = path
    for phenotype, labels in predict_labels(trained, test_tokens, counts=counts).items():
        result.metrics[(phenotype, name)] = score_predictions(labels, test_notes, phenotype)


def _pct(value: float | None) -> str:
    return "NA" if value is None else str(round(value * 100))


def _report_header(config, split_hash) -> list[str]:
    """Comment lines embedding the resolved config (minus environment paths,
    which would tie report bytes to where outputs land) and format version."""
    semantic = asdict(config)
    for key in ("labeled_path", "unlabeled_path", "dictionary_path", "output_dir"):
        semantic.pop(key, None)
    return [
        f"# format_version: {REPORT_FORMAT_VERSION}",
        f"# split_manifest_sha256: {split_hash}",
        f"# config: {json.dumps(semantic, sort_keys=True)}",
    ]


def _write_reports(config, result, split_hash, derived_seeds, out_dir):
    header = _report_header(config, split_hash)
    lines = header + [metrics.REPORT_HEADER]
    for phenotype in config.phenotypes:
        for model in config.models:
            triple = result.metrics.get((phenotype, model))
            if triple is None:
                continue
            lines.append(metrics.report_row(phenotype, model, triple))
    metrics_path = out_dir / "reports" / "metrics.csv"
    metrics_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result.paths["metrics"] = metrics_path

    f1_lines = header + ["phenotype," + ",".join(config.models)]
    for phenotype in config.phenotypes:
        cells = [
            _pct(result.metrics[(phenotype, model)].f1)
            if (phenotype, model) in result.metrics
            else "NA"
            for model in config.models
        ]
        f1_lines.append(phenotype + "," + ",".join(cells))
    f1_path = out_dir / "reports" / "f1_comparison.csv"
    f1_path.write_text("\n".join(f1_lines) + "\n", encoding="utf-8")
    result.paths["f1_comparison"] = f1_path

    echo = {
        "format_version": REPORT_FORMAT_VERSION,
        "config": asdict(config),
        "derived_seeds": derived_seeds,
        "split_manifest_sha256": split_hash,
    }
    echo_path = out_dir / "config_resolved.json"
    with open(echo_path, "w", encoding="utf-8") as fh:
        json.dump(echo, fh, sort_keys=True, indent=2)
        fh.write("\n")
    result.paths["config_echo"] = echo_path
