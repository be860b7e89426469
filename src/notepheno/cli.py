"""Command-line entry points: generate, pretrain, split, train, evaluate,
explain, and the composite run-experiment.

Exit codes: 0 success, 2 configuration error (an output path that cannot be
written included), 3 data error, 4 model-load error.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import fields, replace
from pathlib import Path

from . import checkpoint, metrics, saliency
from .corpus import (
    SplitSpec, Vocabulary, build_settings, build_vocabulary, split_dataset, tokenize, write_split_manifest,
)
from .embeddings import PretrainConfig, pretrain_embeddings, save_embeddings
from .experiment import (
    MODEL_NAMES,
    ConfigError,
    DataError,
    ExperimentConfig,
    ModelLoadError,
    load_experiment_config,
    predict_labels,
    read_dictionary,
    read_notes,
    require_labels,
    require_tokens,
    run_experiment,
    score_predictions,
)
from .synthetic import SyntheticSpec, generate_synthetic_corpus

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_MODEL = 4

# The settings flags of the standalone commands: (flag, settings field[, help]).
# Each flag takes its type and default from the field.
GENERATE_FLAGS = (
    ("--n-notes", "n_notes"), ("--vocab-size", "vocab_size"), ("--n-phenotypes", "n_phenotypes"),
    ("--variants", "phrases_per_phenotype", "synonym phrasings per phenotype"),
    ("--phrase-length", "phrase_length"), ("--noise", "noise_rate", "label flip rate"), ("--seed", "seed"),
)
PRETRAIN_FLAGS = (("--dim", "dim"), ("--window", "window"), ("--negatives", "negatives"),
                  ("--epochs", "epochs"), ("--lr", "learning_rate"), ("--seed", "seed"))
SPLIT_FLAGS = (("--train-frac", "train_fraction"), ("--val-frac", "val_fraction"),
               ("--test-frac", "test_fraction"), ("--seed", "seed"))


def _add_flags(parser, cls, table):
    """Add each flag of table, typed and defaulted by its field of cls."""
    hints = typing.get_type_hints(cls)
    defaults = {f.name: f.default for f in fields(cls)}
    for flag, name, *help in table:
        parser.add_argument(flag, dest=name, type=hints[name], default=defaults[name],
                            help=help[0] if help else None)


def _settings(cls, table, args):
    """The checked settings of the flags of table (exit 2 on a fault)."""
    try:
        return build_settings(cls, {name: getattr(args, name) for _, name, *_ in table})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_corpus(path):
    """The notes of a --corpus file, of which there must be some (exit 3 otherwise)."""
    notes = read_notes(path)
    if not notes:
        raise DataError(f"corpus {path} is empty")
    return notes


def cmd_generate(args) -> int:
    spec = _settings(SyntheticSpec, GENERATE_FLAGS, args)
    paths = generate_synthetic_corpus(spec, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _settings(PretrainConfig, PRETRAIN_FLAGS, args)
    if args.vocab_min_count < 1:
        raise ConfigError(f"--min-count must be >= 1, got {args.vocab_min_count}")
    corpus = [tokenize(n.text) for n in _read_corpus(args.corpus)]
    vocab = build_vocabulary(corpus, min_count=args.vocab_min_count)
    try:
        emb = pretrain_embeddings(corpus, vocab, cfg)
    except ValueError as exc:  # a diverged run
        raise ConfigError(str(exc)) from exc
    save_embeddings(emb, vocab, args.out)
    print(f"embeddings: {args.out} ({len(vocab)} tokens, dim {cfg.dim})")
    return EXIT_OK


def cmd_split(args) -> int:
    notes = _read_corpus(args.corpus)
    train, val, test = split_dataset(notes, _settings(SplitSpec, SPLIT_FLAGS, args))
    manifest_hash = write_split_manifest(args.out, train, val, test)
    print(f"split sizes: {len(train)} train / {len(val)} val / {len(test)} test")
    print(f"manifest sha256: {manifest_hash}")
    return EXIT_OK


def _config_with_overrides(args, models=None, phenotypes=None):
    config = load_experiment_config(args.config)
    if phenotypes is not None:
        unknown = [p for p in phenotypes if p not in config.phenotypes]
        if unknown:
            raise ConfigError(f"phenotypes {unknown} not in the config's phenotype list")
    # an override left unset (None, or --multilabel off) keeps the config's value
    overrides = {"seed": getattr(args, "seed", None), "output_dir": getattr(args, "out", None),
                 "multilabel": getattr(args, "multilabel", False) or None,
                 "models": models, "phenotypes": phenotypes}
    return replace(config, **{key: value for key, value in overrides.items() if value is not None})


def cmd_train(args) -> int:
    config = _config_with_overrides(
        args,
        models=[args.model],
        phenotypes=[args.phenotype] if args.phenotype else None,
    )
    result = run_experiment(config, progress=print)
    for key, path in result.paths.items():
        if key.startswith(f"{args.model}:"):
            print(f"checkpoint: {path}")
    return EXIT_OK


def cmd_run_experiment(args) -> int:
    config = _config_with_overrides(args)
    result = run_experiment(config, progress=print)
    print(f"metrics: {result.paths['metrics']}")
    print(f"f1 comparison: {result.paths['f1_comparison']}")
    print(f"split manifest sha256: {result.split_hash}")
    return EXIT_OK


def _read_checkpoint(path: str) -> checkpoint.Checkpoint:
    """The checkpoint at path; any fault is a ModelLoadError (exit 4)."""
    try:
        return checkpoint.load(path)
    except (OSError, LookupError, TypeError, ValueError, RecursionError) as exc:
        raise ModelLoadError(f"failed to load checkpoint {path}: {exc}") from exc


def cmd_evaluate(args) -> int:
    ckpt = _read_checkpoint(args.checkpoint)
    notes = _read_corpus(args.corpus)
    trained = ckpt.phenotypes
    targets = [args.phenotype] if args.phenotype else trained
    for phenotype in targets:
        if phenotype not in trained:
            raise ConfigError(f"checkpoint has no model for phenotype {phenotype!r}; it has {trained}")
    require_labels(notes, targets)

    token_lists = [tokenize(note.text) for note in notes]
    dictionary = None
    if ckpt.kind == "cnn":
        require_tokens(notes, token_lists)
    elif ckpt.pipeline["features"] == "concepts":
        if not args.dictionary:
            raise DataError("concept-based checkpoints need --dictionary to featurize text")
        dictionary = read_dictionary(args.dictionary)
    columns = predict_labels(ckpt, token_lists, dictionary)
    name = "cnn" if ckpt.kind == "cnn" else ckpt.pipeline["model"]

    rows = [metrics.REPORT_HEADER]
    for phenotype in targets:
        triple = score_predictions(columns[phenotype], notes, phenotype)
        rows.append(metrics.report_row(phenotype, name, triple))
    report = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
        print(f"report: {args.out}")
    else:
        print(report, end="")
    return EXIT_OK


def cmd_explain(args) -> int:
    out_base = Path(args.out)
    if not out_base.name:  # ".", "" and "/" name no file to give a suffix
        raise ConfigError(f"--out {args.out!r} must end in a file name")
    ckpt = _read_checkpoint(args.checkpoint)
    if ckpt.kind != "cnn":
        raise ModelLoadError("explain requires a CNN checkpoint")
    model, vocab, phenotypes = ckpt.model, ckpt.vocab, ckpt.phenotypes
    if args.vocab:
        try:
            with open(args.vocab, encoding="utf-8") as fh:
                other = Vocabulary.from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ModelLoadError(f"failed to read vocabulary {args.vocab}: {exc}") from exc
        if other.sha256() != vocab.sha256():
            raise ModelLoadError(
                "vocabulary hash mismatch between checkpoint and --vocab file"
            )
    if args.phenotype not in phenotypes:
        raise ConfigError(
            f"checkpoint has no head for phenotype {args.phenotype!r}; heads: {phenotypes}"
        )
    if args.top_k < 1:
        raise ConfigError(f"--top-k must be >= 1, got {args.top_k}")
    head = phenotypes.index(args.phenotype)
    notes = _read_corpus(args.corpus)

    if args.scope == "global":
        documents = [(n.note_id, tokenize(n.text)) for n in notes]
        report = saliency.global_top_phrases(
            model, vocab, documents, args.phenotype, head, args.top_k, args.variant
        )
    else:
        if args.note_id:
            matching = [n for n in notes if n.note_id == args.note_id]
            if not matching:
                raise DataError(f"note {args.note_id!r} not found in corpus")
            note = matching[0]
        elif len(notes) == 1:
            note = notes[0]
        else:
            raise ConfigError("local scope needs --note-id when the corpus has several notes")
        tokens = tokenize(note.text)
        require_tokens([note], [tokens])
        report = saliency.local_salient_phrases(
            model, vocab, note.note_id, tokens, args.phenotype, head, args.top_k, args.variant,
        )

    out_base.parent.mkdir(parents=True, exist_ok=True)
    tsv_path = out_base.with_suffix(".tsv")
    json_path = out_base.with_suffix(".json")
    saliency.save_report(report, tsv_path, json_path)
    print(f"saliency report: {tsv_path} and {json_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="notepheno",
        description="Phenotype free-text notes: CNN classifier, baselines, and explanations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic planted-phrase corpus")
    p.add_argument("--out", required=True, help="output directory")
    _add_flags(p, SyntheticSpec, GENERATE_FLAGS)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pretrain", help="pretrain word embeddings on an unlabeled corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="embedding text file to write")
    _add_flags(p, PretrainConfig, PRETRAIN_FLAGS)
    _add_flags(p, ExperimentConfig, [("--min-count", "vocab_min_count")])
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("split", help="write a deterministic train/val/test split manifest")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="directory for train.ids/val.ids/test.ids")
    _add_flags(p, SplitSpec, SPLIT_FLAGS)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one model from an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, help="one of " + ", ".join(MODEL_NAMES))
    p.add_argument("--phenotype", default=None)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the config output directory")
    p.add_argument("--multilabel", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a labeled corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--phenotype", default=None)
    p.add_argument("--dictionary", default=None, help="needed for concept-based checkpoints")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="extract salient phrases from a CNN checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--phenotype", required=True)
    p.add_argument("--top-k", type=int, default=19)
    p.add_argument("--scope", choices=("global", "local"), default="global")
    p.add_argument("--note-id", default=None, help="note to explain when scope=local")
    p.add_argument("--variant", choices=saliency.VARIANTS, default="weighted")
    p.add_argument("--vocab", default=None, help="vocabulary file to hash-check against")
    p.add_argument("--out", required=True, help="report path base; .tsv and .json replace its suffix, if any")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("run-experiment", help="run the full multi-model protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the config output directory")
    p.add_argument("--multilabel", action="store_true")
    p.set_defaults(func=cmd_run_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ModelLoadError as exc:
        print(f"model-load error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:  # every read raises one of the errors above, so this is a write
        print(f"config error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
