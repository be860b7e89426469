import json

import pytest

import baselines_oracle as oracle
from notepheno import baselines, checkpoint
from notepheno.cli import main
from notepheno.corpus import Note, load_notes_jsonl, save_notes_jsonl
from notepheno.embeddings import load_embeddings
from notepheno.synthetic import SyntheticSpec, generate_synthetic_corpus


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus, a config file, and one completed single-model run."""
    root = tmp_path_factory.mktemp("cli")
    spec = SyntheticSpec(n_notes=60, vocab_size=40, n_phenotypes=1, seed=3)
    paths = generate_synthetic_corpus(spec, root / "corpus")
    config = {
        "labeled_path": str(paths["labeled"]),
        "unlabeled_path": str(paths["unlabeled"]),
        "dictionary_path": str(paths["dictionary"]),
        "output_dir": str(root / "out"),
        "phenotypes": ["pheno0"],
        "models": ["cnn", "2gram-lr", "ctakes-lr"],
        "seed": 9,
        "pretrain": {"dim": 8, "epochs": 1, "window": 2},
        "cnn": {"filter_widths": [2, 3], "filters_per_width": 8, "epochs": 20, "batch_size": 4},
        "baselines": {"rf_n_trees": 5},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    code = main(["run-experiment", "--config", str(config_path)])
    assert code == 0
    return {"root": root, "config": config, "config_path": config_path, "paths": paths}


class TestGenerate:
    def test_writes_loadable_corpus(self, tmp_path):
        code = main(
            ["generate", "--out", str(tmp_path), "--n-notes", "15", "--seed", "2",
             "--n-phenotypes", "2"]
        )
        assert code == 0
        notes = load_notes_jsonl(tmp_path / "labeled.jsonl")
        assert len(notes) == 15
        assert set(notes[0].labels) == {"pheno0", "pheno1"}
        assert (tmp_path / "dictionary.tsv").exists()

    def test_bad_noise_rate_is_config_error(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path), "--noise", "0.9"]) == 2


class TestPretrainCommand:
    def test_writes_loadable_embeddings(self, tmp_path, workspace):
        out = tmp_path / "emb.txt"
        code = main(
            ["pretrain", "--corpus", str(workspace["paths"]["unlabeled"]),
             "--out", str(out), "--dim", "6", "--epochs", "1", "--window", "2"]
        )
        assert code == 0
        tokens, emb = load_embeddings(out)
        assert emb.dim == 6 and tokens[0] == "<pad>"

    def test_missing_corpus_is_data_error(self, tmp_path):
        code = main(["pretrain", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "e.txt")])
        assert code == 3

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
    def test_unusable_learning_rate_is_config_error(self, tmp_path, workspace, capsys, lr):
        out = tmp_path / "e.txt"
        code = main(["pretrain", "--corpus", str(workspace["paths"]["unlabeled"]),
                     "--out", str(out), "--lr", lr])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert "learning_rate" in err and len(err.splitlines()) == 1
        assert not out.exists()


class TestSplitCommand:
    def test_writes_manifest(self, tmp_path, workspace):
        code = main(["split", "--corpus", str(workspace["paths"]["labeled"]),
                     "--out", str(tmp_path), "--seed", "4"])
        assert code == 0
        train_ids = (tmp_path / "train.ids").read_text().splitlines()
        val_ids = (tmp_path / "val.ids").read_text().splitlines()
        test_ids = (tmp_path / "test.ids").read_text().splitlines()
        assert len(train_ids) + len(val_ids) + len(test_ids) == 60

    def test_bad_fractions_are_config_error(self, tmp_path, workspace):
        code = main(["split", "--corpus", str(workspace["paths"]["labeled"]),
                     "--out", str(tmp_path), "--train-frac", "0.9"])
        assert code == 2


class TestRunExperiment:
    def test_reports_written(self, workspace):
        out = workspace["root"] / "out"
        lines = (out / "reports" / "metrics.csv").read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert any(l.startswith("# format_version:") for l in comments)
        assert any(l.startswith("# config:") for l in comments)
        assert rows[0].startswith("phenotype,model,")
        assert len(rows) == 1 + 3  # header + one row per model
        assert (out / "reports" / "f1_comparison.csv").exists()
        assert (out / "config_resolved.json").exists()
        assert (out / "split" / "train.ids").exists()

    def test_single_model_run_gives_one_row_per_phenotype(self, tmp_path, workspace):
        config = dict(workspace["config"])
        config["models"] = ["2gram-lr"]
        config["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run-experiment", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "reports" / "metrics.csv").read_text().splitlines()
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == 2 and rows[1].startswith("pheno0,2gram-lr,")

    def test_repeat_run_is_byte_identical(self, tmp_path, workspace):
        config = dict(workspace["config"])
        config["models"] = ["2gram-lr", "ctakes-lr"]
        results = []
        for tag in ("r1", "r2"):
            config["output_dir"] = str(tmp_path / tag)
            cfg_path = tmp_path / f"{tag}.json"
            cfg_path.write_text(json.dumps(config))
            assert main(["run-experiment", "--config", str(cfg_path)]) == 0
            results.append(tmp_path / tag)
        a, b = results
        assert (a / "reports" / "metrics.csv").read_bytes() == (b / "reports" / "metrics.csv").read_bytes()
        for ckpt in sorted((a / "checkpoints").iterdir()):
            assert ckpt.read_bytes() == (b / "checkpoints" / ckpt.name).read_bytes()

    def test_missing_config_is_config_error(self):
        assert main(["run-experiment", "--config", "/nonexistent.json"]) == 2

    def test_unknown_model_is_config_error(self, tmp_path, workspace):
        config = dict(workspace["config"])
        config["models"] = ["kitchen-sink"]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run-experiment", "--config", str(cfg_path)]) == 2

    def test_missing_labeled_corpus_is_data_error(self, tmp_path, workspace):
        config = dict(workspace["config"])
        config["labeled_path"] = str(tmp_path / "missing.jsonl")
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run-experiment", "--config", str(cfg_path)]) == 3

    def test_label_less_phenotype_is_data_error(self, tmp_path, workspace):
        bad_corpus = tmp_path / "bad.jsonl"
        save_notes_jsonl(
            [Note(note_id="a", text="some text", labels={"other": 1})], bad_corpus
        )
        config = dict(workspace["config"])
        config["labeled_path"] = str(bad_corpus)
        config["models"] = ["2gram-lr"]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run-experiment", "--config", str(cfg_path)]) == 3


class TestTrainCommand:
    def test_trains_one_model(self, tmp_path, workspace):
        code = main(
            ["train", "--config", str(workspace["config_path"]),
             "--model", "2gram-lr", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out" / "checkpoints" / "2gram-lr__pheno0.json").exists()

    def test_unknown_model_rejected(self, workspace):
        code = main(["train", "--config", str(workspace["config_path"]), "--model", "gru"])
        assert code == 2


class TestEvaluateCommand:
    def test_cnn_checkpoint(self, workspace, capsys):
        ckpt = workspace["root"] / "out" / "checkpoints" / "cnn__pheno0.json"
        code = main(["evaluate", "--checkpoint", str(ckpt),
                     "--corpus", str(workspace["paths"]["labeled"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "pheno0,cnn," in out

    def test_concept_checkpoint_needs_dictionary(self, workspace):
        ckpt = workspace["root"] / "out" / "checkpoints" / "ctakes-lr__pheno0.json"
        code = main(["evaluate", "--checkpoint", str(ckpt),
                     "--corpus", str(workspace["paths"]["labeled"])])
        assert code == 3

    def test_concept_checkpoint_with_dictionary(self, workspace, capsys):
        ckpt = workspace["root"] / "out" / "checkpoints" / "ctakes-lr__pheno0.json"
        code = main(["evaluate", "--checkpoint", str(ckpt),
                     "--corpus", str(workspace["paths"]["labeled"]),
                     "--dictionary", str(workspace["paths"]["dictionary"])])
        assert code == 0
        assert "pheno0,ctakes-lr," in capsys.readouterr().out

    def test_garbage_checkpoint_is_model_error(self, tmp_path, workspace):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["evaluate", "--checkpoint", str(bad),
                     "--corpus", str(workspace["paths"]["labeled"])])
        assert code == 4


class TestExplainCommand:
    def test_global_report_files(self, workspace, tmp_path):
        ckpt = workspace["root"] / "out" / "checkpoints" / "cnn__pheno0.json"
        out = tmp_path / "report"
        code = main(["explain", "--checkpoint", str(ckpt),
                     "--corpus", str(workspace["paths"]["labeled"]),
                     "--phenotype", "pheno0", "--top-k", "19",
                     "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "report.tsv").read_text().splitlines()
        assert lines[0] == "rank\tphrase\twidth\tscore"
        assert len(lines) <= 20
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["scope"] == "global" and doc["phenotype"] == "pheno0"

    def test_local_scope_needs_note_id(self, workspace, tmp_path):
        ckpt = workspace["root"] / "out" / "checkpoints" / "cnn__pheno0.json"
        code = main(["explain", "--checkpoint", str(ckpt),
                     "--corpus", str(workspace["paths"]["labeled"]),
                     "--phenotype", "pheno0", "--scope", "local",
                     "--out", str(tmp_path / "r")])
        assert code == 2

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_local_scope_with_note_id(self, workspace, tmp_path):
        ckpt = workspace["root"] / "out" / "checkpoints" / "cnn__pheno0.json"
        notes = load_notes_jsonl(workspace["paths"]["labeled"])
        code = main(["explain", "--checkpoint", str(ckpt),
                     "--corpus", str(workspace["paths"]["labeled"]),
                     "--phenotype", "pheno0", "--scope", "local",
                     "--note-id", notes[0].note_id, "--top-k", "5",
                     "--out", str(tmp_path / "r")])
        assert code == 0
        assert len((tmp_path / "r.tsv").read_text().splitlines()) <= 6

    def test_vocab_hash_match_passes(self, workspace, tmp_path):
        ckpt = workspace["root"] / "out" / "checkpoints" / "cnn__pheno0.json"
        vocab_file = workspace["root"] / "out" / "vocab.json"
        code = main(["explain", "--checkpoint", str(ckpt),
                     "--corpus", str(workspace["paths"]["labeled"]),
                     "--phenotype", "pheno0", "--vocab", str(vocab_file),
                     "--out", str(tmp_path / "r")])
        assert code == 0

    def test_vocab_hash_mismatch_is_model_error(self, workspace, tmp_path):
        ckpt = workspace["root"] / "out" / "checkpoints" / "cnn__pheno0.json"
        other = tmp_path / "other_vocab.json"
        other.write_text(json.dumps({"tokens": ["<pad>", "<unk>", "zzz"], "min_count": 1}))
        code = main(["explain", "--checkpoint", str(ckpt),
                     "--corpus", str(workspace["paths"]["labeled"]),
                     "--phenotype", "pheno0", "--vocab", str(other),
                     "--out", str(tmp_path / "r")])
        assert code == 4

    def test_baseline_checkpoint_is_model_error(self, workspace, tmp_path):
        ckpt = workspace["root"] / "out" / "checkpoints" / "2gram-lr__pheno0.json"
        code = main(["explain", "--checkpoint", str(ckpt),
                     "--corpus", str(workspace["paths"]["labeled"]),
                     "--phenotype", "pheno0", "--out", str(tmp_path / "r")])
        assert code == 4

    def test_unknown_phenotype_is_config_error(self, workspace, tmp_path):
        ckpt = workspace["root"] / "out" / "checkpoints" / "cnn__pheno0.json"
        code = main(["explain", "--checkpoint", str(ckpt),
                     "--corpus", str(workspace["paths"]["labeled"]),
                     "--phenotype", "mystery", "--out", str(tmp_path / "r")])
        assert code == 2

    def test_zero_weight_model_reports_zero_scores(self, workspace, tmp_path):
        src = workspace["root"] / "out" / "checkpoints" / "cnn__pheno0.json"
        loaded = checkpoint.load(src)
        model = loaded.model
        for w in model.config.filter_widths:
            model.conv_weights[w][:] = 0.0
            model.conv_biases[w][:] = 0.0
        model.output_weights[:] = 0.0
        model.output_bias[:] = 0.0
        zero_ckpt = tmp_path / "zero.json"
        checkpoint.save(loaded, zero_ckpt)
        with pytest.warns(UserWarning, match="zero"):
            code = main(["explain", "--checkpoint", str(zero_ckpt),
                         "--corpus", str(workspace["paths"]["labeled"]),
                         "--phenotype", "pheno0", "--top-k", "3",
                         "--out", str(tmp_path / "r")])
        assert code == 0
        lines = (tmp_path / "r.tsv").read_text().splitlines()[1:]
        assert all(float(line.split("\t")[3]) == 0.0 for line in lines)


def _with_blank_note(workspace, tmp_path) -> tuple:
    """The workspace corpus plus one note whose text tokenizes to nothing."""
    notes = load_notes_jsonl(workspace["paths"]["labeled"])
    notes.append(Note(note_id="blank", text="   ", labels={"pheno0": 0}))
    path = tmp_path / "with_blank.jsonl"
    save_notes_jsonl(notes, path)
    return path, workspace["root"] / "out" / "checkpoints" / "cnn__pheno0.json"


class TestEmptyNotes:
    def test_evaluate_names_the_empty_note(self, workspace, tmp_path, capsys):
        corpus, ckpt = _with_blank_note(workspace, tmp_path)
        assert main(["evaluate", "--checkpoint", str(ckpt), "--corpus", str(corpus)]) == 3
        err = capsys.readouterr().err.strip()
        assert "'blank'" in err and len(err.splitlines()) == 1

    def test_local_explain_names_the_empty_note(self, workspace, tmp_path, capsys):
        corpus, ckpt = _with_blank_note(workspace, tmp_path)
        code = main(["explain", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--phenotype", "pheno0", "--scope", "local", "--note-id", "blank",
                     "--out", str(tmp_path / "r")])
        assert code == 3
        assert "'blank'" in capsys.readouterr().err

    def test_global_explain_skips_empty_notes(self, workspace, tmp_path):
        corpus, ckpt = _with_blank_note(workspace, tmp_path)
        code = main(["explain", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--phenotype", "pheno0", "--out", str(tmp_path / "r")])
        assert code == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["entries"] and all(e["note_id"] != "blank" for e in doc["entries"])

    def test_run_experiment_names_the_empty_note(self, workspace, tmp_path, capsys):
        corpus, _ = _with_blank_note(workspace, tmp_path)
        config = {**workspace["config"], "labeled_path": str(corpus),
                  "output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run-experiment", "--config", str(cfg_path)]) == 3
        assert "'blank'" in capsys.readouterr().err


@pytest.mark.parametrize("top_k", ["0", "-3"])
def test_explain_top_k_below_one_is_config_error(workspace, tmp_path, capsys, top_k):
    ckpt = workspace["root"] / "out" / "checkpoints" / "cnn__pheno0.json"
    code = main(["explain", "--checkpoint", str(ckpt),
                 "--corpus", str(workspace["paths"]["labeled"]),
                 "--phenotype", "pheno0", "--top-k", top_k, "--out", str(tmp_path / "r")])
    assert code == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "override",
    [{"cnn": "x"}, {"pretrain": [1]}, {"split": {"train_fraction": "0.7"}},
     {"split": {"seed": 1}}, {"pretrain": {"seed": 1}}, {"cnn": {"seed": 1}},
     {"cnn": {"n_heads": 2}}, {"pretrain": {"learning_rate": float("nan")}},
     {"pretrain": {"learning_rate": 0}}, {"cnn": {"max_norm": float("nan")}},
     {"cnn": {"adadelta_eps": float("nan")}}, {"cnn": {"max_norm": float("inf")}},
     {"split": {"train_fraction": float("nan")}},
     {"baselines": {"logreg_l2_lambda": float("inf")}}, "[" * 200_000,
     {"baselines": {"rf_n_trees": 0}}, {"baselines": {"rf_n_trees": -1}},
     {"baselines": {"rf_max_depth": -1}}, {"baselines": {"rf_n_features_per_split": 0}},
     {"vocab_min_count": 0}, {"phenotypes": ["pheno0", "pheno0"]}, {"phenotypes": ["a/b"]},
     {"phenotypes": ["a\\b"]}, {"phenotypes": ["a,b"]}, {"phenotypes": [""]},
     {"phenotypes": ["a\nb"]}, {"phenotypes": ["a\rb"]}],
    ids=["section-string", "section-list", "field-type",
         "split-seed", "pretrain-seed", "cnn-seed", "cnn-n-heads",
         "pretrain-lr-nan", "pretrain-lr-zero", "cnn-max-norm-nan", "cnn-eps-nan",
         "cnn-max-norm-inf", "split-fraction-nan", "baselines-lambda-inf", "deeply-nested",
         "rf-trees-zero", "rf-trees-negative", "rf-depth-negative", "rf-features-zero",
         "vocab-min-count-zero", "phenotype-repeated", "phenotype-slash", "phenotype-backslash",
         "phenotype-comma", "phenotype-empty", "phenotype-newline", "phenotype-carriage-return"],
)
def test_malformed_config_is_config_error(workspace, tmp_path, capsys, override):
    """override: fields replacing the workspace config's, or the whole file's text."""
    cfg_path = tmp_path / "bad.json"
    text = override if isinstance(override, str) else json.dumps({**workspace["config"], **override})
    cfg_path.write_text(text)
    assert main(["run-experiment", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and len(err.splitlines()) == 1


def _ckpt(workspace, name):
    return workspace["root"] / "out" / "checkpoints" / name


def _experiment_argv(workspace, tmp_path, **override) -> list[str]:
    """run-experiment on the workspace config with some fields replaced."""
    config = {**workspace["config"], "output_dir": str(tmp_path / "out"), **override}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return ["run-experiment", "--config", str(cfg_path)]


def _evaluate_argv(workspace, ckpt, *extra) -> list[str]:
    return ["evaluate", "--checkpoint", str(ckpt),
            "--corpus", str(workspace["paths"]["labeled"]), *extra]


def _written(tmp_path, name, content: str | bytes) -> str:
    path = tmp_path / name
    path.write_bytes(content.encode() if isinstance(content, str) else content)
    return str(path)


def _tampered(workspace, tmp_path, name, edit) -> str:
    """A copy of a workspace checkpoint whose parsed JSON went through edit."""
    doc = json.loads(_ckpt(workspace, name).read_text())
    edit(doc)
    return _written(tmp_path, "tampered.json", json.dumps(doc))


def _as_forest(**arrays):
    """Turn a concept logistic-regression checkpoint into a forest one whose
    node arrays are a split on feature 0 into two leaves, except for arrays."""
    def edit(doc):
        doc["kind"] = "random_forest"
        doc["pipeline"]["model"] = "ctakes-rf"
        doc["model"] = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
                        "right": [2, -1, -1], "fraction": [0.0, 0.0, 1.0], "roots": [0],
                        "n_features_per_split": 1, "seed": 0, "max_depth": None, "bootstrap": True,
                        **arrays}
    return edit


def _as_v1_forest(doc):
    """The nested-trees forest checkpoint of format version 1."""
    _as_forest()(doc)
    tree = oracle.TreeNode(feature=0, threshold=0.5, left=oracle.TreeNode(fraction=0.0),
                           right=oracle.TreeNode(fraction=1.0))
    doc["format_version"] = 1
    doc["model"] = {"trees": [oracle._tree_to_json(tree)], "n_features_per_split": 1, "seed": 0,
                    "max_depth": None, "bootstrap": True}


def _cnn_argv(workspace, command, ckpt, tmp_path) -> list[str]:
    if command == "evaluate":
        return _evaluate_argv(workspace, ckpt)
    return ["explain", "--checkpoint", str(ckpt), "--corpus", str(workspace["paths"]["labeled"]),
            "--phenotype", "pheno0", "--out", str(tmp_path / "r")]


def _first_notes(workspace, tmp_path, n) -> str:
    """A corpus of the workspace's first n labeled notes."""
    lines = workspace["paths"]["labeled"].read_text().splitlines(keepends=True)
    return _written(tmp_path, "first.jsonl", "".join(lines[:n]))


# CNN checkpoints whose arrays or phenotypes do not fit the model's config,
# vocabulary (one embedding row per token) and heads, whose arrays hold a
# null (read as NaN), or whose config fields have the wrong type.
_BAD_CNN_CHECKPOINTS = {
    "embeddings-3-rows": lambda doc: doc["params"].update(embeddings=doc["params"]["embeddings"][:3]),
    "filters-2-of-8": lambda doc: doc["params"]["conv_weights"].update({"2": doc["params"]["conv_weights"]["2"][:2]}),
    "bias-2-of-8": lambda doc: doc["params"]["conv_biases"].update({"3": [0.0, 0.0]}),
    "output-weights-3-wide": lambda doc: doc["params"].update(
        output_weights=[row[:3] for row in doc["params"]["output_weights"]]),
    "output-bias-2-heads": lambda doc: doc["params"].update(output_bias=[0.0, 0.0]),
    "phenotypes-2-heads": lambda doc: doc.update(phenotypes=["pheno0", "x"]),
    "phenotypes-string": lambda doc: doc.update(phenotypes="pheno0"),
    "output-bias-null": lambda doc: doc["params"].update(output_bias=[None]),
    "config-filters-float": lambda doc: doc["config"].update(filters_per_width=8.0),
    "config-heads-float": lambda doc: doc["config"].update(n_heads=1.0),
    "config-epochs-float": lambda doc: doc["config"].update(epochs=2.5),
}
_BAD_RECORDS = {"list-record": "[1, 2]", "int-text": '{"note_id": "a", "text": 5, "labels": {"pheno0": 1}}',
                "list-labels": '{"note_id": "a", "text": "x", "labels": [1]}'}
_ONE_COLUMN = "c1\n"
_DEEP = "[" * 200_000
_DUPLICATE = "c1\tchest pain\tpheno0\nc1\tchest pain\tpheno0\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        *[pytest.param(
            lambda ws, tmp, rec=rec: _experiment_argv(
                ws, tmp, labeled_path=_written(tmp, "notes.jsonl", rec + "\n")), 3,
            id=f"run-experiment-{name}") for name, rec in _BAD_RECORDS.items()],
        *[pytest.param(
            lambda ws, tmp, rec=rec: ["evaluate", "--corpus", _written(tmp, "notes.jsonl", rec + "\n"),
                                      "--checkpoint", str(_ckpt(ws, "cnn__pheno0.json"))], 3,
            id=f"evaluate-{name}") for name, rec in _BAD_RECORDS.items()],
        pytest.param(lambda ws, tmp: _experiment_argv(
            ws, tmp, unlabeled_path=_written(tmp, "u.jsonl", "{not json\n")), 3,
            id="run-experiment-bad-json-unlabeled"),
        pytest.param(lambda ws, tmp: _experiment_argv(
            ws, tmp, dictionary_path=_written(tmp, "d.tsv", _ONE_COLUMN)), 3,
            id="run-experiment-one-column-dictionary"),
        pytest.param(lambda ws, tmp: _experiment_argv(
            ws, tmp, dictionary_path=_written(tmp, "d.tsv", _DUPLICATE)), 3,
            id="run-experiment-duplicate-dictionary"),
        pytest.param(lambda ws, tmp: _evaluate_argv(
            ws, _ckpt(ws, "ctakes-lr__pheno0.json"),
            "--dictionary", _written(tmp, "d.tsv", _ONE_COLUMN)), 3,
            id="evaluate-one-column-dictionary"),
        pytest.param(lambda ws, tmp: _evaluate_argv(
            ws, _ckpt(ws, "ctakes-lr__pheno0.json"),
            "--dictionary", _written(tmp, "d.tsv", _DUPLICATE)), 3,
            id="evaluate-duplicate-dictionary"),
        pytest.param(lambda ws, tmp: _evaluate_argv(
            ws, _ckpt(ws, "ctakes-lr__pheno0.json"),
            "--dictionary", str(tmp / "missing.tsv")), 3,
            id="evaluate-missing-dictionary"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _written(tmp, "c.json", "[]")), 4,
                     id="checkpoint-list"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _written(tmp, "c.json", '"x"')), 4,
                     id="checkpoint-string"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _tampered(
            ws, tmp, "2gram-lr__pheno0.json", lambda doc: doc["pipeline"].pop("n"))), 4,
            id="pipeline-without-n"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _tampered(
            ws, tmp, "2gram-lr__pheno0.json", lambda doc: doc["pipeline"].pop("phenotype"))), 4,
            id="pipeline-without-phenotype"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _tampered(
            ws, tmp, "2gram-lr__pheno0.json", lambda doc: doc.update(pipeline="2gram-lr"))), 4,
            id="pipeline-string"),
        *[pytest.param(lambda ws, tmp, edit=edit: _evaluate_argv(ws, _tampered(
            ws, tmp, "ctakes-lr__pheno0.json", edit),
            "--dictionary", str(ws["paths"]["dictionary"])), 4, id=f"forest-{name}")
          for name, edit in {
              "trees-int": _as_forest(feature=5, threshold=5, left=5, right=5, fraction=5, roots=5),
              "without-trees": _as_forest(feature=[], threshold=[], left=[], right=[],
                                          fraction=[], roots=[]),
              "leaf-string": _as_forest(fraction=[0.0, "x", 1.0]),
              "feature-out-of-range": _as_forest(feature=[-1, -1, -1]),
              "child-before-parent": _as_forest(feature=[-1, 0, -1], left=[-1, 0, -1],
                                                right=[-1, 2, -1], roots=[1]),
              "child-out-of-range": _as_forest(right=[3, -1, -1]),
              "ragged-arrays": _as_forest(threshold=[0.5, 0.0]),
              "non-integer-index": _as_forest(left=[1.5, -1, -1]),
              "root-out-of-range": _as_forest(roots=[3]),
              "v1-nested-trees": _as_v1_forest,
              "threshold-nan": _as_forest(threshold=[float("nan"), 0.0, 0.0]),
              "fraction-above-one": _as_forest(fraction=[0.0, 0.0, 7.0]),
          }.items()],
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _tampered(
            ws, tmp, "2gram-lr__pheno0.json",
            lambda doc: doc["model"].update(weights=[doc["model"]["weights"]]))), 4,
            id="logreg-nested-weights"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _tampered(
            ws, tmp, "2gram-lr__pheno0.json",
            lambda doc: doc["model"].update(weights=doc["model"]["weights"][1:]))), 4,
            id="logreg-weight-missing"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _tampered(
            ws, tmp, "2gram-lr__pheno0.json", lambda doc: doc["model"]["weights"].__setitem__(0, None))), 4,
            id="logreg-weight-null"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _tampered(
            ws, tmp, "2gram-lr__pheno0.json", lambda doc: doc["model"].update(bias=float("nan")))), 4,
            id="logreg-bias-nan"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _tampered(
            ws, tmp, "ctakes-lr__pheno0.json", lambda doc: doc["feature_space"]["idf"].__setitem__(0, float("nan"))),
            "--dictionary", str(ws["paths"]["dictionary"])), 4,
            id="space-idf-nan"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _tampered(
            ws, tmp, "ctakes-lr__pheno0.json", lambda doc: doc["feature_space"].update(idf=[])),
            "--dictionary", str(ws["paths"]["dictionary"])), 4,
            id="space-without-idf"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _tampered(
            ws, tmp, "ctakes-lr__pheno0.json",
            lambda doc: doc["feature_space"].update(idf=["x"] * len(doc["feature_space"]["idf"]))),
            "--dictionary", str(ws["paths"]["dictionary"])), 4,
            id="space-idf-strings"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _tampered(
            ws, tmp, "2gram-lr__pheno0.json", lambda doc: doc["feature_space"]["features"].__setitem__(0, []))), 4,
            id="space-empty-feature-key"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _tampered(
            ws, tmp, "cnn__pheno0.json", lambda doc: doc["config"].update(depth=3))), 4,
            id="cnn-unknown-config-field"),
        *[pytest.param(lambda ws, tmp, edit=edit, command=command: _cnn_argv(
            ws, command, _tampered(ws, tmp, "cnn__pheno0.json", edit), tmp), 4,
            id=f"{command}-cnn-{name}")
          for name, edit in _BAD_CNN_CHECKPOINTS.items() for command in ("evaluate", "explain")],
        pytest.param(lambda ws, tmp: _evaluate_argv(
            ws, _ckpt(ws, "2gram-lr__pheno0.json"),
            "--phenotype", "pheno1"), 2,
            id="baseline-other-phenotype"),
        pytest.param(lambda ws, tmp: ["explain", "--checkpoint",
                                       str(_ckpt(ws, "cnn__pheno0.json")),
                                       "--corpus", str(ws["paths"]["labeled"]), "--phenotype", "pheno0",
                                       "--vocab", _written(tmp, "v.json", "[]"), "--out", str(tmp / "r")], 4,
                     id="explain-vocab-list"),
        pytest.param(lambda ws, tmp: _evaluate_argv(ws, _written(tmp, "c.json", _DEEP)), 4,
                     id="checkpoint-deeply-nested"),
        pytest.param(lambda ws, tmp: ["explain", "--checkpoint",
                                       str(_ckpt(ws, "cnn__pheno0.json")),
                                       "--corpus", str(ws["paths"]["labeled"]), "--phenotype", "pheno0",
                                       "--vocab", _written(tmp, "v.json", _DEEP), "--out", str(tmp / "r")], 4,
                     id="explain-vocab-deeply-nested"),
        pytest.param(lambda ws, tmp: ["split", "--corpus", _written(tmp, "n.jsonl", _DEEP + "\n"),
                                      "--out", str(tmp / "split")], 3,
                     id="split-corpus-deeply-nested"),
        pytest.param(lambda ws, tmp: ["evaluate", "--corpus", _written(tmp, "empty.jsonl", ""),
                                      "--checkpoint", str(_ckpt(ws, "cnn__pheno0.json"))], 3,
                     id="evaluate-empty-corpus"),
        pytest.param(lambda ws, tmp: ["split", "--corpus", _written(tmp, "empty.jsonl", ""),
                                      "--out", str(tmp / "split")], 3,
                     id="split-empty-corpus"),
        pytest.param(lambda ws, tmp: ["pretrain", "--corpus", _written(tmp, "empty.jsonl", ""),
                                      "--out", str(tmp / "e.txt")], 3,
                     id="pretrain-empty-corpus"),
        pytest.param(lambda ws, tmp: ["pretrain", "--corpus", str(ws["paths"]["unlabeled"]),
                                      "--out", str(tmp / "e.txt"), "--min-count", "0"], 2,
                     id="pretrain-min-count-zero"),
        *[pytest.param(lambda ws, tmp, scope=scope: [
            "explain", "--checkpoint", str(_ckpt(ws, "cnn__pheno0.json")),
            "--corpus", _written(tmp, "empty.jsonl", ""), "--phenotype", "pheno0",
            "--scope", scope, "--out", str(tmp / "r")], 3,
            id=f"explain-{scope}-empty-corpus") for scope in ("global", "local")],
        pytest.param(lambda ws, tmp: _experiment_argv(ws, tmp, labeled_path=_first_notes(ws, tmp, 4)), 3,
                     id="run-experiment-empty-test-split"),
        pytest.param(lambda ws, tmp: ["run-experiment", "--config", str(tmp)], 2, id="config-directory"),
        pytest.param(lambda ws, tmp: ["run-experiment", "--config", _written(tmp, "c.json", b"\xff\xfe")], 2,
                     id="config-not-utf8"),
    ],
)
def test_malformed_input_exits_cleanly(workspace, tmp_path, capsys, argv, code):
    """Malformed notes, dictionaries, checkpoints and configs: exit 2, 3 or 4
    with one line on stderr, never a traceback."""
    assert main(argv(workspace, tmp_path)) == code
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_evaluate_reproduces_the_run_experiment_rows(tmp_path):
    """Every checkpoint, evaluated on exactly the test-split notes, prints the
    row run-experiment wrote for it: both score through one path. The first
    run trains every baseline and a CNN per phenotype, the second one
    --multilabel CNN for both phenotypes."""
    spec = SyntheticSpec(n_notes=120, vocab_size=60, n_phenotypes=2,
                         phrases_per_phenotype=2, noise_rate=0.1, seed=5)
    paths = generate_synthetic_corpus(spec, tmp_path / "corpus")
    by_id = {note.note_id: note for note in load_notes_jsonl(paths["labeled"])}
    for models, flags in ([*baselines.MODELS, "cnn"], []), (["cnn"], ["--multilabel"]):
        out = tmp_path / f"out{len(flags)}"
        config = {"labeled_path": str(paths["labeled"]), "unlabeled_path": str(paths["unlabeled"]),
                  "dictionary_path": str(paths["dictionary"]), "output_dir": str(out),
                  "phenotypes": ["pheno0", "pheno1"], "models": models, "seed": 4,
                  "baselines": {"rf_n_trees": 5}, "pretrain": {"dim": 8, "epochs": 1, "window": 2},
                  "cnn": {"filter_widths": [2, 3], "filters_per_width": 8, "epochs": 30, "batch_size": 4}}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run-experiment", "--config", str(cfg_path), *flags]) == 0

        test_corpus = tmp_path / "test.jsonl"
        save_notes_jsonl([by_id[i] for i in (out / "split" / "test.ids").read_text().split()],
                         test_corpus)
        lines = (out / "reports" / "metrics.csv").read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")][1:]
        assert len(rows) == 2 * len(models)
        for row in rows:
            phenotype, name = row.split(",")[:2]
            tag = "multilabel" if flags else phenotype
            report = tmp_path / f"{name}__{phenotype}.csv"
            assert main(["evaluate", "--checkpoint", str(out / "checkpoints" / f"{name}__{tag}.json"),
                         "--corpus", str(test_corpus), "--dictionary", str(paths["dictionary"]),
                         "--phenotype", phenotype, "--out", str(report)]) == 0
            assert report.read_text().splitlines()[1] == row


def test_phenotype_without_dictionary_entries(tmp_path):
    """filter-* models of a phenotype the dictionary tags no entry with fit a
    zero-feature space: both commands still exit 0 with one row per model."""
    spec = SyntheticSpec(n_notes=60, vocab_size=40, n_phenotypes=2, seed=3)
    paths = generate_synthetic_corpus(spec, tmp_path / "corpus")
    text = paths["dictionary"].read_text()
    paths["dictionary"].write_text(text.replace(",pheno1", "").replace("pheno1", ""))
    out = tmp_path / "out"
    models = ["filter-lr", "filter-rf"]
    config = {"labeled_path": str(paths["labeled"]), "dictionary_path": str(paths["dictionary"]),
              "output_dir": str(out), "phenotypes": ["pheno1"], "models": models,
              "seed": 1, "baselines": {"rf_n_trees": 5}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    with pytest.warns(UserWarning, match="no dictionary entries tagged"):
        assert main(["run-experiment", "--config", str(cfg_path)]) == 0
    lines = (out / "reports" / "metrics.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines if line.startswith("pheno1,")] == models
    for name in models:
        ckpt = json.loads((out / "checkpoints" / f"{name}__pheno1.json").read_text())
        assert ckpt["feature_space"]["features"] == []
        report = tmp_path / f"{name}.csv"
        with pytest.warns(UserWarning, match="no dictionary entries tagged"):
            assert main(["evaluate", "--checkpoint", str(out / "checkpoints" / f"{name}__pheno1.json"),
                         "--corpus", str(paths["labeled"]), "--dictionary", str(paths["dictionary"]),
                         "--out", str(report)]) == 0
        assert len(report.read_text().splitlines()) == 2
