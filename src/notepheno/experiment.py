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
import types
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, cnn, concepts, featurize, metrics
from .corpus import (
    Note,
    SplitSpec,
    build_vocabulary,
    load_notes_jsonl,
    split_dataset,
    tokenize,
    write_split_manifest,
)
from .embeddings import PretrainConfig, init_embeddings, pretrain_embeddings, save_embeddings

MODEL_NAMES = (
    "cnn",
    "2gram-lr",
    "3gram-lr",
    "ctakes-rf",
    "ctakes-lr",
    "filter-rf",
    "filter-lr",
)
CONCEPT_MODELS = {"ctakes-rf", "ctakes-lr", "filter-rf", "filter-lr"}
REPORT_FORMAT_VERSION = 1


class ConfigError(Exception):
    """Invalid configuration (exit code 2)."""


class DataError(Exception):
    """Missing or malformed input data (exit code 3)."""


class ModelLoadError(Exception):
    """Unusable checkpoint or checkpoint/corpus mismatch (exit code 4)."""


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


def _has_type(value, annotation) -> bool:
    """Whether a config value fits a field annotation (int, float, str, bool,
    X | None, and list[X] / tuple[X, ...] given as a list or a tuple)."""
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        return any(_has_type(value, arg) for arg in typing.get_args(annotation))
    if origin in (list, tuple):
        item = typing.get_args(annotation)[0]
        return isinstance(value, (list, tuple)) and all(_has_type(v, item) for v in value)
    if annotation is type(None):
        return value is None
    if isinstance(value, bool):
        return annotation is bool
    if annotation is float:
        return isinstance(value, (int, float))
    return isinstance(value, annotation)


def _type_name(annotation) -> str:
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(_type_name(arg) for arg in args)
    if origin in (list, tuple):
        return f"a list of {_type_name(args[0])}"
    return "null" if annotation is type(None) else annotation.__name__


def _check_types(cls, body: dict, where: str):
    """ConfigError naming the first field of body whose value has the wrong type."""
    hints = typing.get_type_hints(cls)
    for key, value in body.items():
        if key in hints and not _has_type(value, hints[key]):
            raise ConfigError(
                f"{where}{key} must be {_type_name(hints[key])}, got {json.dumps(value)}"
            )


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: v for k, v in data.items() if k not in _SECTION_TYPES}
    _check_types(ExperimentConfig, kwargs, "")
    for section, cls in _SECTION_TYPES.items():
        if section in data:
            if not isinstance(data[section], dict):
                raise ConfigError(f"config section {section!r} must be a JSON object")
            body = dict(data[section])
            _check_types(cls, body, f"{section}.")
            if section == "cnn" and "filter_widths" in body:
                body["filter_widths"] = tuple(body["filter_widths"])
            try:
                kwargs[section] = cls(**body)
            except TypeError as exc:
                raise ConfigError(f"bad {section} section: {exc}") from exc
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return experiment_config_from_dict(data)


def config_to_dict(config: ExperimentConfig) -> dict:
    data = asdict(config)
    data["cnn"]["filter_widths"] = list(config.cnn.filter_widths)
    return data


@dataclass
class ExperimentResult:
    metrics: dict[tuple[str, str], metrics.MetricTriple]
    paths: dict[str, Path]
    split_hash: str
    histories: dict[str, cnn.TrainHistory] = field(default_factory=dict)


def _load_labeled(config: ExperimentConfig) -> list[Note]:
    path = Path(config.labeled_path)
    if not path.exists():
        raise DataError(f"labeled corpus {path} does not exist")
    try:
        notes = load_notes_jsonl(path)
    except (ValueError, KeyError) as exc:
        raise DataError(f"failed to read labeled corpus: {exc}") from exc
    if not notes:
        raise DataError(f"labeled corpus {path} is empty")
    for note in notes:
        missing = [p for p in config.phenotypes if note.labels is None or p not in note.labels]
        if missing:
            raise DataError(f"note {note.note_id!r} is missing labels for {missing}")
    return notes


def _evaluate_binary(
    predictions: dict[str, int], test_notes: list[Note], phenotype: str
) -> metrics.MetricTriple:
    preds = [predictions[n.note_id] for n in test_notes]
    labels = [n.labels[phenotype] for n in test_notes]
    return metrics.metric_triple(metrics.confusion(preds, labels))


def _concept_count_features(
    notes: list[Note],
    tokens_by_id: dict[str, list[str]],
    dictionary: concepts.ConceptDictionary,
) -> dict[str, dict]:
    out = {}
    for note in notes:
        mentions = concepts.match_concepts(tokens_by_id[note.note_id], dictionary)
        out[note.note_id] = concepts.count_concepts(mentions)
    return out


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

    notes = _load_labeled(config)
    unlabeled: list[Note] = []
    if config.unlabeled_path:
        upath = Path(config.unlabeled_path)
        if not upath.exists():
            raise DataError(f"unlabeled corpus {upath} does not exist")
        unlabeled = load_notes_jsonl(upath)

    dictionary = None
    if any(m in CONCEPT_MODELS for m in config.models):
        dpath = Path(config.dictionary_path)
        if not dpath.exists():
            raise DataError(f"concept dictionary {dpath} does not exist")
        dictionary = concepts.load_dictionary(dpath)

    split_spec = SplitSpec(
        train_fraction=config.split.train_fraction,
        val_fraction=config.split.val_fraction,
        test_fraction=config.split.test_fraction,
        seed=derive_seed(config.seed, "split"),
    )
    train_notes, val_notes, test_notes = split_dataset(notes, split_spec)
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
        json.dump(vocab.to_dict(), fh, sort_keys=True)
        fh.write("\n")

    result = ExperimentResult(metrics={}, paths={"output_dir": out_dir}, split_hash=split_hash)
    derived_seeds: dict[str, int] = {"split": split_spec.seed}

    if "cnn" in config.models:
        _run_cnn(
            config, vocab, tokens_by_id, unlabeled, train_notes, val_notes, test_notes,
            out_dir, derived_seeds, result, say,
        )
    for n in (2, 3):
        name = f"{n}gram-lr"
        if name in config.models:
            _run_ngram_lr(
                config, n, tokens_by_id, train_notes, test_notes, out_dir,
                derived_seeds, result, say,
            )
    for name in config.models:
        if name in CONCEPT_MODELS:
            _run_concept_model(
                config, name, dictionary, tokens_by_id, train_notes, test_notes,
                out_dir, derived_seeds, result, say,
            )

    _write_reports(config, result, split_hash, derived_seeds, out_dir)
    return result


def _run_cnn(
    config, vocab, tokens_by_id, unlabeled, train_notes, val_notes, test_notes,
    out_dir, derived_seeds, result, say,
):
    pretrain_cfg = PretrainConfig(
        dim=config.pretrain.dim,
        window=config.pretrain.window,
        negatives=config.pretrain.negatives,
        epochs=config.pretrain.epochs,
        learning_rate=config.pretrain.learning_rate,
        seed=derive_seed(config.seed, "pretrain"),
    )
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
        cnn_cfg = cnn.CnnConfig(**{**asdict(config.cnn), "n_heads": len(heads), "seed": seed})
        cnn_cfg.filter_widths = tuple(config.cnn.filter_widths)
        model = cnn.init_model(cnn_cfg, emb)

        def data_for(split_notes):
            pairs = []
            for note in split_notes:
                ids = vocab.resolve(tokens_by_id[note.note_id])
                labels = np.array([note.labels[p] for p in heads], dtype=float)
                pairs.append((ids, labels))
            return pairs

        say(f"training cnn [{tag}] on {len(train_notes)} notes")
        model, history = cnn.train(model, data_for(train_notes), data_for(val_notes))
        result.histories[f"cnn:{tag}"] = history
        ckpt = out_dir / "checkpoints" / f"cnn__{tag}.json"
        cnn.save_checkpoint(model, vocab, heads, ckpt)
        result.paths[f"cnn:{tag}"] = ckpt

        _, labels = cnn.predict_batch(
            model, [vocab.resolve(tokens_by_id[note.note_id]) for note in test_notes]
        )
        for h, phenotype in enumerate(heads):
            predictions = {note.note_id: int(labels[i, h]) for i, note in enumerate(test_notes)}
            result.metrics[(phenotype, "cnn")] = _evaluate_binary(
                predictions, test_notes, phenotype
            )


def _run_ngram_lr(
    config, n, tokens_by_id, train_notes, test_notes, out_dir, derived_seeds, result, say
):
    name = f"{n}gram-lr"
    counts_train = [
        featurize.extract_ngrams(tokens_by_id[note.note_id], n) for note in train_notes
    ]
    space = featurize.fit_feature_space(counts_train)
    X_train = [featurize.count_transform(c, space) for c in counts_train]
    for phenotype in config.phenotypes:
        seed = derive_seed(config.seed, f"train:{name}:{phenotype}")
        derived_seeds[f"train:{name}:{phenotype}"] = seed
        say(f"training {name} [{phenotype}]")
        y = [note.labels[phenotype] for note in train_notes]
        model = baselines.train_logreg(
            X_train, y,
            l2_lambda=config.baselines.logreg_l2_lambda,
            seed=seed,
            n_features=space.n_features,
        )
        ckpt = out_dir / "checkpoints" / f"{name}__{phenotype}.json"
        baselines.save_baseline_checkpoint(
            "logreg", model, space,
            {"model": name, "phenotype": phenotype, "features": "ngram", "n": n, "tfidf": False},
            ckpt,
        )
        result.paths[f"{name}:{phenotype}"] = ckpt
        predictions = {}
        for note in test_notes:
            counts = featurize.extract_ngrams(tokens_by_id[note.note_id], n)
            vec = featurize.count_transform(counts, space)
            predictions[note.note_id] = int(baselines.predict_logreg(model, vec) >= 0.5)
        result.metrics[(phenotype, name)] = _evaluate_binary(predictions, test_notes, phenotype)


def _run_concept_model(
    config, name, dictionary, tokens_by_id, train_notes, test_notes,
    out_dir, derived_seeds, result, say,
):
    filtered = name.startswith("filter-")
    learner = name.split("-")[1]  # "rf" or "lr"
    for phenotype in config.phenotypes:
        active_dict = (
            concepts.filter_dictionary(dictionary, phenotype) if filtered else dictionary
        )
        count_maps = _concept_count_features(
            train_notes + test_notes, tokens_by_id, active_dict
        )
        space = featurize.fit_feature_space(
            [count_maps[note.note_id] for note in train_notes]
        )
        X_train = [
            featurize.tfidf_transform(count_maps[note.note_id], space)
            for note in train_notes
        ]
        y = [note.labels[phenotype] for note in train_notes]
        seed = derive_seed(config.seed, f"train:{name}:{phenotype}")
        derived_seeds[f"train:{name}:{phenotype}"] = seed
        say(f"training {name} [{phenotype}]")
        pipeline = {
            "model": name,
            "phenotype": phenotype,
            "features": "concepts",
            "filtered": filtered,
            "tfidf": True,
        }
        ckpt = out_dir / "checkpoints" / f"{name}__{phenotype}.json"
        if learner == "lr":
            model = baselines.train_logreg(
                X_train, y,
                l2_lambda=config.baselines.logreg_l2_lambda,
                seed=seed,
                n_features=space.n_features,
            )
            baselines.save_baseline_checkpoint("logreg", model, space, pipeline, ckpt)
            predict = lambda vec: baselines.predict_logreg(model, vec)
        else:
            model = baselines.train_rf(
                X_train, y,
                n_trees=config.baselines.rf_n_trees,
                max_depth=config.baselines.rf_max_depth,
                n_features_per_split=config.baselines.rf_n_features_per_split,
                seed=seed,
                n_features=space.n_features,
            )
            baselines.save_baseline_checkpoint("random_forest", model, space, pipeline, ckpt)
            predict = lambda vec: baselines.predict_rf(model, vec)
        result.paths[f"{name}:{phenotype}"] = ckpt

        predictions = {}
        for note in test_notes:
            vec = featurize.tfidf_transform(count_maps[note.note_id], space)
            predictions[note.note_id] = int(predict(vec) >= 0.5)
        result.metrics[(phenotype, name)] = _evaluate_binary(predictions, test_notes, phenotype)


def _pct(value: float | None) -> str:
    return "NA" if value is None else str(round(value * 100))


def _report_header(config, split_hash) -> list[str]:
    """Comment lines embedding the resolved config (minus environment paths,
    which would tie report bytes to where outputs land) and format version."""
    semantic = config_to_dict(config)
    for key in ("labeled_path", "unlabeled_path", "dictionary_path", "output_dir"):
        semantic.pop(key, None)
    return [
        f"# format_version: {REPORT_FORMAT_VERSION}",
        f"# split_manifest_sha256: {split_hash}",
        f"# config: {json.dumps(semantic, sort_keys=True)}",
    ]


def _write_reports(config, result, split_hash, derived_seeds, out_dir):
    header = _report_header(config, split_hash)
    lines = header + ["phenotype,model,ppv_pct,sensitivity_pct,f1_pct,ppv,sensitivity,f1"]
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
        "config": config_to_dict(config),
        "derived_seeds": derived_seeds,
        "split_manifest_sha256": split_hash,
    }
    echo_path = out_dir / "config_resolved.json"
    with open(echo_path, "w", encoding="utf-8") as fh:
        json.dump(echo, fh, sort_keys=True, indent=2)
        fh.write("\n")
    result.paths["config_echo"] = echo_path
