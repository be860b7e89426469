"""Mutated experiment configs and note corpora, driven through the CLI: every
run exits 0, 2, 3 or 4 with at most one line on stderr, never a traceback."""

import contextlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from notepheno import checkpoint
from notepheno.cli import main
from notepheno.embeddings import load_embeddings
from notepheno.synthetic import SyntheticSpec, generate_synthetic_corpus

# Values a parsed node is replaced with: every JSON type, values out of every
# field's range, and small in-range numbers. A huge but valid count (epochs,
# trees, dim) only asks for a long run, so none is drawn.
_RETYPES = [None, True, False, 0, -1, 1, 2, 0.5, 1.5, float("nan"), float("inf"), "x", "",
            [], [1], ["pheno0"], {}, {"a": 1}]
_DEEP = "[" * 100_000 + "]" * 100_000
_SECTIONS = ["split", "pretrain", "cnn", "baselines"]
# Extreme but valid settings: a learning rate up to the largest float, and a
# seed of either sign. Each either trains or is a config error.
_LEARNING_RATES = st.floats(min_value=1e-6, max_value=1e308)
_SEEDS = st.integers(-(2**63), 2**63 - 1)
_FUZZ = settings(max_examples=25, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A small corpus, a valid config naming every config section, and its
    checkpoints of the three feature kinds."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = generate_synthetic_corpus(SyntheticSpec(n_notes=30, vocab_size=30, seed=1), root / "corpus")
    config = {
        "labeled_path": str(paths["labeled"]), "unlabeled_path": str(paths["unlabeled"]),
        "dictionary_path": str(paths["dictionary"]), "output_dir": "out",
        "phenotypes": ["pheno0"], "models": ["2gram-lr", "ctakes-lr", "cnn"], "seed": 1,
        "vocab_min_count": 1, "multilabel": False,
        "split": {"train_fraction": 0.6, "val_fraction": 0.2, "test_fraction": 0.2},
        "pretrain": {"dim": 4, "window": 2, "negatives": 2, "epochs": 1, "learning_rate": 0.05},
        "cnn": {"filter_widths": [2], "filters_per_width": 2, "epochs": 1, "batch_size": 8,
                "dropout_p": 0.5, "activation": "tanh"},
        "baselines": {"rf_n_trees": 2, "rf_max_depth": 3, "logreg_l2_lambda": 1.0},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps({**config, "output_dir": str(root / "out")}))
    assert main(["run-experiment", "--config", str(config_path)]) == 0
    return {"config": config, "paths": paths, "ckpts": root / "out" / "checkpoints",
            "lines": paths["labeled"].read_text().splitlines()}


def _exits_cleanly(argv, capsys):
    """Run the CLI in a fresh working directory, which a relative output path
    lands in, and check how it ended."""
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        code = main(argv)
    err = capsys.readouterr().err.strip()
    assert code in (0, 2, 3, 4)
    assert code == 0 or len(err.splitlines()) == 1
    assert "__init__()" not in err  # a fault names its key, not a constructor's signature


def _paths(node, path=()):
    """The path of every node below node, nested ones included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*path, key)
        yield from _paths(child, (*path, key))


@st.composite
def _config_text(draw, config):
    """The config's JSON text after one to three edits: a node dropped or
    retyped, a section made a non-object, an unknown key added, or a node
    nested deeply."""
    doc = json.loads(json.dumps(config))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "retype", "section", "unknown", "deep"]))
        paths = list(_paths(doc))
        if kind == "section":
            doc[draw(st.sampled_from(_SECTIONS))] = draw(st.sampled_from([None, [], "cnn", 1, [{}]]))
        elif kind == "unknown":
            owners = [doc, *(doc[s] for s in _SECTIONS if isinstance(doc.get(s), dict))]
            draw(st.sampled_from(owners))[draw(st.sampled_from(["depth", "Seed", ""]))] = 1
        elif paths:
            *path, key = draw(st.sampled_from(paths))
            parent = doc
            for step in path:
                parent = parent[step]
            if kind == "drop":
                del parent[key]
            else:
                parent[key] = "@deep@" if kind == "deep" else draw(st.sampled_from(_RETYPES))
    return json.dumps(doc).replace('"@deep@"', _DEEP)


@st.composite
def _corpus_text(draw, lines):
    """The JSONL corpus after one edit of one line: bad JSON, a field dropped
    or retyped, a label other than 0 or 1, a note id repeated, a record that
    is not an object, or bytes that are not UTF-8."""
    lines = list(lines)
    at = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[at])
    kind = draw(st.sampled_from(["cut", "drop", "retype", "label", "duplicate", "not-object", "bytes"]))
    if kind == "cut":
        lines[at] = lines[at][: draw(st.integers(1, len(lines[at]) - 1))]
    elif kind == "drop":
        del record[draw(st.sampled_from(sorted(record)))]
    elif kind == "retype":
        record[draw(st.sampled_from(["note_id", "text", "labels"]))] = draw(st.sampled_from(_RETYPES))
    elif kind == "label":
        record["labels"] = {**record["labels"], draw(st.sampled_from(["pheno0", "other"])):
                            draw(st.sampled_from([2, -1, 0.5, "1", True, None, [0], float("nan")]))}
    elif kind == "duplicate":
        record["note_id"] = json.loads(draw(st.sampled_from(lines)))["note_id"]
    elif kind == "not-object":
        lines[at] = draw(st.sampled_from(["[1, 2]", '"note"', "5", "null", _DEEP]))
    if kind in ("drop", "retype", "label", "duplicate"):
        lines[at] = json.dumps(record)
    data = ("\n".join(lines) + "\n").encode()
    return data + b"\xff\xfe\n" if kind == "bytes" else data


@settings(_FUZZ, max_examples=80)
@given(data=st.data())
def test_a_mutated_config_never_escapes_the_cli(base, data, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(data.draw(_config_text(base["config"])))
    _exits_cleanly(["run-experiment", "--config", str(path)], capsys)


def _corpus_argv(command, base, corpus: Path, tmp_path) -> list[str]:
    if command == "run-experiment":
        config = {**base["config"], "labeled_path": str(corpus)}
        (tmp_path / "config.json").write_text(json.dumps(config))
        return ["run-experiment", "--config", str(tmp_path / "config.json")]
    if command == "split":
        return ["split", "--corpus", str(corpus), "--out", "split"]
    if command == "pretrain":
        return ["pretrain", "--corpus", str(corpus), "--out", "e.txt", "--dim", "4", "--epochs", "1",
                "--min-count", "1"]
    model = command.removeprefix("evaluate-")
    return ["evaluate", "--checkpoint", str(base["ckpts"] / f"{model}__pheno0.json"), "--corpus", str(corpus),
            "--dictionary", str(base["paths"]["dictionary"])]


@pytest.mark.parametrize("command", ["run-experiment", "split", "pretrain",
                                     "evaluate-cnn", "evaluate-2gram-lr", "evaluate-ctakes-lr"])
@_FUZZ
@given(data=st.data())
def test_a_mutated_corpus_never_escapes_the_cli(base, command, data, tmp_path, capsys):
    corpus = tmp_path / "notes.jsonl"
    corpus.write_bytes(data.draw(_corpus_text(base["lines"])))
    _exits_cleanly(_corpus_argv(command, base, corpus, tmp_path), capsys)


def _ends_as_training_or_config_error(code, capsys):
    err = capsys.readouterr().err.strip()
    assert code == 0 or (code == 2 and len(err.splitlines()) == 1)


@_FUZZ
@given(learning_rate=_LEARNING_RATES, seed=_SEEDS)
def test_a_run_writes_only_checkpoints_its_readers_accept(base, learning_rate, seed, capsys):
    """Every checkpoint a run-experiment leaves loads in evaluate with exit 0,
    and saving the loaded checkpoint writes its bytes."""
    config = {**base["config"], "seed": seed,
              "pretrain": {**base["config"]["pretrain"], "learning_rate": learning_rate}}
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        Path("config.json").write_text(json.dumps(config))
        _ends_as_training_or_config_error(main(["run-experiment", "--config", "config.json"]), capsys)
        for path in Path("out", "checkpoints").glob("*.json"):
            assert main(["evaluate", "--checkpoint", str(path), "--corpus", str(base["paths"]["labeled"]),
                         "--dictionary", str(base["paths"]["dictionary"])]) == 0
            checkpoint.save(checkpoint.load(path), "again.json")
            assert Path("again.json").read_bytes() == path.read_bytes()


@_FUZZ
@given(learning_rate=_LEARNING_RATES, seed=_SEEDS)
def test_pretrain_writes_only_finite_vectors(base, learning_rate, seed, capsys):
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        code = main(["pretrain", "--corpus", str(base["paths"]["unlabeled"]), "--out", "e.txt", "--dim", "4",
                     "--epochs", "1", "--min-count", "1", "--lr", repr(learning_rate), "--seed", str(seed)])
        _ends_as_training_or_config_error(code, capsys)
        assert code != 0 or np.isfinite(load_embeddings("e.txt")[1].vectors).all()
        assert code == 0 or not Path("e.txt").exists()
