import base64
import json
import warnings
from dataclasses import fields

import numpy as np
import pytest

import baselines_oracle as oracle
from notepheno import baselines, checkpoint
from notepheno.cli import main
from notepheno.corpus import (
    Note, SplitSpec, build_vocabulary, load_notes_jsonl, save_notes_jsonl, split_dataset, tokenize,
)
from notepheno.embeddings import PretrainConfig, load_embeddings, pretrain_embeddings, save_embeddings
from notepheno.experiment import ExperimentConfig
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

    def test_default_flags_are_the_spec_defaults(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "cli")]) == 0
        for path in generate_synthetic_corpus(SyntheticSpec(), tmp_path / "api").values():
            assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes()


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

    def test_default_flags_are_the_config_defaults(self, tmp_path, workspace):
        """--min-count defaults to the experiment config's vocab_min_count."""
        corpus, out = workspace["paths"]["unlabeled"], tmp_path / "cli.txt"
        assert main(["pretrain", "--corpus", str(corpus), "--out", str(out), "--epochs", "1"]) == 0
        min_count = {f.name: f.default for f in fields(ExperimentConfig)}["vocab_min_count"]
        token_lists = [tokenize(note.text) for note in load_notes_jsonl(corpus)]
        vocab = build_vocabulary(token_lists, min_count)
        emb = pretrain_embeddings(token_lists, vocab, PretrainConfig(epochs=1))
        save_embeddings(emb, vocab, tmp_path / "api.txt")
        assert out.read_bytes() == (tmp_path / "api.txt").read_bytes()


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

    def test_default_flags_are_the_spec_defaults(self, tmp_path, workspace):
        corpus = workspace["paths"]["labeled"]
        assert main(["split", "--corpus", str(corpus), "--out", str(tmp_path)]) == 0
        parts = split_dataset(load_notes_jsonl(corpus), SplitSpec())
        for name, part in zip(("train", "val", "test"), parts):
            assert (tmp_path / f"{name}.ids").read_text() == "".join(note.note_id + "\n" for note in part)


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
        config["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["run-experiment", "--config", str(cfg_path)]) == 3
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("out", [".", "", "/"])
    def test_an_out_with_no_file_name_is_refused_before_any_input_is_read(self, tmp_path, capsys, out):
        # neither input exists, so exit 2 shows that --out was checked first
        code = main(["explain", "--checkpoint", str(tmp_path / "missing.json"),
                     "--corpus", str(tmp_path / "missing.jsonl"), "--phenotype", "pheno0", "--out", out])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"config error: --out {out!r} must end in a file name"

    def test_an_out_suffix_is_replaced(self, workspace, tmp_path):
        ckpt = workspace["root"] / "out" / "checkpoints" / "cnn__pheno0.json"
        code = main(["explain", "--checkpoint", str(ckpt),
                     "--corpus", str(workspace["paths"]["labeled"]),
                     "--phenotype", "pheno0", "--out", str(tmp_path / "sub" / "rep.v2")])
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["rep.json", "rep.tsv"]

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


@pytest.mark.parametrize(
    "argv, says",
    [
        pytest.param(lambda ws, tmp: ["generate", "--out", str(tmp / "out"), "--seed", "-1"],
                     "seed must be >= 0, got -1", id="generate-negative-seed"),
        pytest.param(lambda ws, tmp: ["pretrain", "--corpus", str(ws["paths"]["unlabeled"]),
                                      "--out", str(tmp / "out"), "--seed", "-1"],
                     "seed must be >= 0, got -1", id="pretrain-negative-seed"),
        pytest.param(lambda ws, tmp: ["pretrain", "--corpus", str(ws["paths"]["unlabeled"]), "--out", str(tmp / "out"),
                                      "--lr", "1e300", "--dim", "4", "--epochs", "1"],
                     "pretraining diverged at epoch 1; lower pretrain.learning_rate", id="pretrain-diverged"),
        pytest.param(lambda ws, tmp: _experiment_argv(
            ws, tmp, models=["cnn"], pretrain={"dim": 4, "epochs": 1, "learning_rate": 1e300}),
            "pretraining diverged at epoch 1; lower pretrain.learning_rate", id="run-experiment-diverged"),
        pytest.param(lambda ws, tmp: _experiment_argv(ws, tmp, models=["2gram-lr"],
                                                      baselines={"logreg_l2_lambda": -1}),
                     "logreg_l2_lambda must be >= 0, got -1", id="run-experiment-negative-l2-lambda"),
    ],
)
def test_bad_settings_exit_2_with_one_line_and_write_no_model(workspace, tmp_path, capsys, argv, says):
    """A negative seed or L2 weight, or a diverged run: exit 2 with one stderr line and no
    RuntimeWarning; no embeddings or checkpoint file is written."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv(workspace, tmp_path)) == 2
    assert capsys.readouterr().err.strip() == f"config error: {says}"
    out = tmp_path / "out"  # pretrain's --out names a file, run-experiment's a directory
    assert out.is_dir() or not out.exists()
    assert not (out / "embeddings.txt").exists() and not list(out.glob("checkpoints/*"))


def test_a_run_that_fails_before_its_first_job_writes_nothing(workspace, tmp_path, capsys):
    argv = _experiment_argv(workspace, tmp_path, models=["cnn", "2gram-lr"],
                            pretrain={"dim": 4, "epochs": 1, "learning_rate": 1e300})
    assert main(argv) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bias", [-1000.0, 1000.0])
@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_an_overflowing_cnn_logit_scores_without_a_runtime_warning(
    workspace, tmp_path, capsys, command, bias
):
    """The CNN twin of test_an_overflowing_logit_gives_zero_without_a_warning:
    a checkpoint whose output bias saturates the logistic is read with exit 0
    and no numpy warning. With nothing predicted positive, explain's own
    warning is expected."""
    ckpt = _tampered(workspace, tmp_path, "cnn__pheno0.json",
                     _edit_param(lambda b: np.full_like(b, bias), "output_bias"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(_cnn_argv(workspace, command, ckpt, tmp_path)) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in capsys.readouterr().err
    nothing_positive = [w for w in caught if "no document was predicted positive" in str(w.message)]
    assert len(nothing_positive) == (command == "explain" and bias < 0)


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


def _block(values) -> dict:
    """The checkpoint array block of values: int64 for an integer array,
    float64 otherwise, as base64 of the little-endian bytes."""
    array = np.asarray(values)
    dtype = "int64" if array.dtype.kind in "iu" else "float64"
    data = np.ascontiguousarray(array, dtype=np.dtype(dtype).newbyteorder("<"))
    return {"dtype": dtype, "shape": list(array.shape), "data": base64.b64encode(data.tobytes()).decode()}


def _unblock(block) -> np.ndarray:
    dtype = np.dtype(block["dtype"]).newbyteorder("<")
    return np.frombuffer(base64.b64decode(block["data"]), dtype).reshape(block["shape"])


def _edit_array(owner, key, change):
    """The array block owner[key] decoded, passed through change and encoded again."""
    owner[key] = _block(change(_unblock(owner[key]).copy()))


def _edit_weights(change):
    return lambda doc: _edit_array(doc["model"], "weights", change)


def _edit_idf(change):
    return lambda doc: _edit_array(doc["feature_space"], "idf", change)


def _with(array, index, value):
    array[index] = value
    return array


def _as_forest(**arrays):
    """Turn a concept logistic-regression checkpoint into a forest one whose
    node arrays are a split on feature 0 into two leaves, except for arrays."""
    def edit(doc):
        doc["kind"] = "random_forest"
        doc["pipeline"]["model"] = "ctakes-rf"
        nodes = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
                 "right": [2, -1, -1], "fraction": [0.0, 0.0, 1.0], "roots": [0], **arrays}
        doc["model"] = {"n_features_per_split": 1, "seed": 0, "max_depth": None, "bootstrap": True,
                        **{key: _block(values) for key, values in nodes.items()}}
    return edit


def _forest_setting(key, value):
    """The forest checkpoint of _as_forest with one scalar setting set to value."""
    def edit(doc):
        _as_forest()(doc)
        doc["model"][key] = value
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


def _relabeled(workspace, tmp_path, value) -> str:
    """The workspace's labeled corpus with its first note's pheno0 label set to value."""
    first, *rest = workspace["paths"]["labeled"].read_text().splitlines(keepends=True)
    record = json.loads(first)
    record["labels"]["pheno0"] = value
    return _written(tmp_path, "relabeled.jsonl", json.dumps(record) + "\n" + "".join(rest))


def _repeat_first_key(doc):
    """The first feature key listed again at the end, with an idf. The space
    then has as many distinct keys as there are weights, and the repeated
    key's column, the last one listed, lies past them."""
    doc["feature_space"]["features"].append(doc["feature_space"]["features"][0])
    _edit_array(doc["feature_space"], "idf", lambda idf: np.append(idf, idf[0]))


def _set_first_key(item):
    return lambda doc: doc["feature_space"]["features"].__setitem__(0, item)


def _edit_param(change, *path):
    """Edit the CNN checkpoint array at params[path[0]][path[1]]..."""
    def edit(doc):
        owner = doc["params"]
        for key in path[:-1]:
            owner = owner[key]
        _edit_array(owner, path[-1], change)
    return edit


# CNN checkpoints whose arrays or phenotypes do not fit the model's config,
# vocabulary (one embedding row per token) and heads, whose arrays hold a
# NaN, or whose config fields have the wrong type; each with the fault its
# one stderr line must name.
_BAD_CNN_CHECKPOINTS = {
    "embeddings-3-rows": (_edit_param(lambda a: a[:3], "embeddings"), "embeddings has shape (3, 8)"),
    "filters-2-of-8": (_edit_param(lambda a: a[:2], "conv_weights", "2"), "width-2 filters has shape (2,"),
    "bias-2-of-8": (_edit_param(lambda a: a[:2], "conv_biases", "3"), "width-3 biases has shape (2,)"),
    "output-weights-3-wide": (_edit_param(lambda a: a[:, :3], "output_weights"),
                              "output_weights has shape (1, 3)"),
    "output-bias-2-heads": (_edit_param(lambda a: np.zeros(2), "output_bias"), "output_bias has shape (2,)"),
    "phenotypes-2-heads": (lambda doc: doc.update(phenotypes=["pheno0", "x"]),
                           "phenotypes must be a list of 1"),
    "phenotypes-string": (lambda doc: doc.update(phenotypes="pheno0"), "phenotypes must be a list of 1"),
    "output-bias-null": (_edit_param(lambda a: np.full_like(a, np.nan), "output_bias"),
                         "output_bias holds a value that is not a finite number"),
    "config-filters-float": (lambda doc: doc["config"].update(filters_per_width=8.0),
                             "config.filters_per_width"),
    "config-heads-float": (lambda doc: doc["config"].update(n_heads=1.0), "config.n_heads"),
    "config-epochs-float": (lambda doc: doc["config"].update(epochs=2.5), "config.epochs"),
}
# Vocabularies that are not a list of distinct strings with an int min_count
# of at least 1, each with the fault its one stderr line must name: as an
# explain --vocab file and as a CNN checkpoint's vocabulary.
_BAD_VOCABULARIES = {
    "int-token": ({"tokens": ["<pad>", "<unk>", 5], "min_count": 1}, "vocabulary tokens must be a list of strings"),
    "tokens-string": ({"tokens": "<pad> <unk>", "min_count": 1}, "vocabulary tokens must be a list of strings"),
    "repeated-token": ({"tokens": ["<pad>", "<unk>", "a", "a"], "min_count": 1}, "vocabulary lists a token twice"),
    "min-count-float": ({"tokens": ["<pad>", "<unk>"], "min_count": 2.5},
                        "vocabulary min_count must be an int >= 1, got 2.5"),
    "min-count-true": ({"tokens": ["<pad>", "<unk>"], "min_count": True},
                       "vocabulary min_count must be an int >= 1, got True"),
    "min-count-zero": ({"tokens": ["<pad>", "<unk>"], "min_count": 0},
                       "vocabulary min_count must be an int >= 1, got 0"),
}
# Forests whose node arrays are scalars, empty, of the wrong dtype, of unequal
# lengths, not finite or out of range, or do not route to a leaf; forests whose
# scalar settings have the wrong JSON type or are out of range; and a forest
# of format version 1. Each with the fault its stderr line must name.
_BAD_FORESTS = {
    "trees-int": (_as_forest(feature=5, threshold=5, left=5, right=5, fraction=5, roots=5),
                  "forest feature has shape (), but the model needs (None,)"),
    "without-trees": (
        _as_forest(**{key: np.zeros(0, dtype) for key, dtype in checkpoint.FOREST_ARRAYS.items()}),
        "the forest's roots must be one or more of its 0 nodes"),
    "leaf-string": (_as_forest(fraction=[0, 1, 1]), "forest fraction has dtype 'int64', but the model needs"),
    "feature-out-of-range": (_as_forest(feature=[-1, -1, -1]), "forest node 0 is neither a leaf nor a split"),
    "child-before-parent": (_as_forest(feature=[-1, 0, -1], left=[-1, 0, -1], right=[-1, 2, -1], roots=[1]),
                            "forest node 1 is neither a leaf nor a split"),
    "child-out-of-range": (_as_forest(right=[3, -1, -1]), "forest node 0 is neither a leaf nor a split"),
    "ragged-arrays": (_as_forest(threshold=[0.5, 0.0]), "forest node arrays differ in length"),
    "non-integer-index": (_as_forest(left=[1.5, -1, -1]), "forest left has dtype 'float64', but the model needs"),
    "root-out-of-range": (_as_forest(roots=[3]), "the forest's roots must be one or more of its 3 nodes"),
    "v1-nested-trees": (_as_v1_forest, "random_forest checkpoint format version 1, expected 3"),
    "threshold-nan": (_as_forest(threshold=[float("nan"), 0.0, 0.0]),
                      "forest threshold holds a value that is not a finite number"),
    "fraction-above-one": (_as_forest(fraction=[0.0, 0.0, 7.0]), "forest fraction must lie in [0, 1]"),
    "max-depth-string": (_forest_setting("max_depth", "deep"), 'forest max_depth must be int or null, got "deep"'),
    "bootstrap-list": (_forest_setting("bootstrap", [1]), "forest bootstrap must be bool, got [1]"),
    "seed-null": (_forest_setting("seed", None), "forest seed must be int, got null"),
    "features-per-split-object": (_forest_setting("n_features_per_split", {"a": 1}),
                                  'forest n_features_per_split must be int, got {"a": 1}'),
    "max-depth-zero": (_forest_setting("max_depth", 0), "forest max_depth must be >= 1, got 0"),
    "features-per-split-zero": (_forest_setting("n_features_per_split", 0),
                                "forest n_features_per_split must be >= 1, got 0"),
}
# Faults of the one-element output_bias block of a CNN checkpoint, with the
# fault its stderr line must name; a field set to None is dropped.
_BAD_BLOCKS = {
    "bad-base64": ({"data": "AAAA!AAA"}, "output_bias data is not a base64 string"),
    "byte-count": ({"shape": [2]}, "output_bias data holds 8 bytes, but shape [2] needs 16"),
    "dtype-float32": ({"dtype": "float32"}, "output_bias has dtype 'float32', but the model needs float64"),
    "dtype-int64": ({"dtype": "int64"}, "output_bias has dtype 'int64'"),
    "shape-float": ({"shape": [1.0]}, "output_bias has shape [1.0], which is not a list of non-negative"),
    "shape-negative": ({"shape": [-1]}, "output_bias has shape [-1], which is not"),
    "shape-string": ({"shape": "1"}, "output_bias has shape '1', which is not"),
    "data-list": ({"data": [0.0]}, "output_bias data is not a base64 string"),
    "extra-key": ({"order": "C"}, "output_bias is not an array block with exactly the keys"),
    "without-shape": ({"shape": None}, "output_bias is not an array block with exactly the keys"),
    "without-data": ({"data": None}, "output_bias is not an array block with exactly the keys"),
}
_BAD_RECORDS = {"list-record": "[1, 2]", "int-text": '{"note_id": "a", "text": 5, "labels": {"pheno0": 1}}',
                "list-labels": '{"note_id": "a", "text": "x", "labels": [1]}'}
_BAD_LABELS = {"label-0.7": 0.7, "label-string": "1", "label-true": True}
_ONE_COLUMN = "c1\n"
_DEEP = "[" * 200_000
_DUPLICATE = "c1\tchest pain\tpheno0\nc1\tchest pain\tpheno0\n"


def _case(argv, code, id, says=""):
    return pytest.param(argv, code, says, id=id)


def _tampered_case(model, edit, id, says):
    """evaluate of the workspace's model checkpoint after its parsed JSON
    went through edit: exit 4, naming says."""
    def argv(ws, tmp):
        extra = ["--dictionary", str(ws["paths"]["dictionary"])] if model.startswith("ctakes") else []
        return _evaluate_argv(ws, _tampered(ws, tmp, f"{model}__pheno0.json", edit), *extra)
    return _case(argv, 4, id=id, says=says)


def _edit_output_bias(fields):
    def edit(doc):
        block = doc["params"]["output_bias"]
        block.update(fields)
        for name in [name for name, value in fields.items() if value is None]:
            del block[name]
    return edit


@pytest.mark.parametrize(
    "argv, code, says",
    [
        *[_case(
            lambda ws, tmp, rec=rec: _experiment_argv(
                ws, tmp, labeled_path=_written(tmp, "notes.jsonl", rec + "\n")), 3,
            id=f"run-experiment-{name}") for name, rec in _BAD_RECORDS.items()],
        *[_case(
            lambda ws, tmp, rec=rec: ["evaluate", "--corpus", _written(tmp, "notes.jsonl", rec + "\n"),
                                      "--checkpoint", str(_ckpt(ws, "cnn__pheno0.json"))], 3,
            id=f"evaluate-{name}") for name, rec in _BAD_RECORDS.items()],
        *[_case(
            lambda ws, tmp, value=value, model=model: [
                "evaluate", "--checkpoint", str(_ckpt(ws, f"{model}__pheno0.json")),
                "--corpus", _relabeled(ws, tmp, value)], 3,
            id=f"evaluate-{model}-{name}")
          for name, value in _BAD_LABELS.items() for model in ("cnn", "2gram-lr")],
        _case(lambda ws, tmp: _experiment_argv(
            ws, tmp, unlabeled_path=_written(tmp, "u.jsonl", "{not json\n")), 3,
            id="run-experiment-bad-json-unlabeled"),
        _case(lambda ws, tmp: _experiment_argv(
            ws, tmp, dictionary_path=_written(tmp, "d.tsv", _ONE_COLUMN)), 3,
            id="run-experiment-one-column-dictionary"),
        _case(lambda ws, tmp: _experiment_argv(
            ws, tmp, dictionary_path=_written(tmp, "d.tsv", _DUPLICATE)), 3,
            id="run-experiment-duplicate-dictionary"),
        _case(lambda ws, tmp: _evaluate_argv(
            ws, _ckpt(ws, "ctakes-lr__pheno0.json"),
            "--dictionary", _written(tmp, "d.tsv", _ONE_COLUMN)), 3,
            id="evaluate-one-column-dictionary"),
        _case(lambda ws, tmp: _evaluate_argv(
            ws, _ckpt(ws, "ctakes-lr__pheno0.json"),
            "--dictionary", _written(tmp, "d.tsv", _DUPLICATE)), 3,
            id="evaluate-duplicate-dictionary"),
        _case(lambda ws, tmp: _evaluate_argv(
            ws, _ckpt(ws, "ctakes-lr__pheno0.json"),
            "--dictionary", str(tmp / "missing.tsv")), 3,
            id="evaluate-missing-dictionary"),
        _case(lambda ws, tmp: _evaluate_argv(ws, _written(tmp, "c.json", "[]")), 4,
              id="checkpoint-list", says="unknown checkpoint kind None"),
        _case(lambda ws, tmp: _evaluate_argv(ws, _written(tmp, "c.json", '"x"')), 4,
              id="checkpoint-string", says="unknown checkpoint kind None"),
        *[_tampered_case(name, edit, id=case, says=says) for case, name, edit, says in [
            ("pipeline-without-n", "2gram-lr", lambda doc: doc["pipeline"].pop("n"),
             "is not a logreg baseline's record"),
            ("pipeline-without-phenotype", "2gram-lr", lambda doc: doc["pipeline"].pop("phenotype"),
             "is not a logreg baseline's record"),
            ("pipeline-string", "2gram-lr", lambda doc: doc.update(pipeline="2gram-lr"),
             "is not a logreg baseline's record"),
        ]],
        *[_tampered_case("ctakes-lr", edit, id=f"forest-{name}", says=says)
          for name, (edit, says) in _BAD_FORESTS.items()],
        *[_tampered_case(name, edit, id=case, says=says) for case, name, edit, says in [
            ("logreg-nested-weights", "2gram-lr", _edit_weights(lambda a: a[None]),
             "logistic regression weights has shape (1, "),
            ("logreg-weight-missing", "2gram-lr", _edit_weights(lambda a: a[1:]),
             "logistic regression weights has shape ("),
            ("logreg-weight-null", "2gram-lr", _edit_weights(lambda a: _with(a, 0, np.nan)),
             "logistic regression weights holds a value that is not a finite number"),
            ("logreg-weights-as-list", "2gram-lr",
             lambda doc: doc["model"].update(weights=_unblock(doc["model"]["weights"]).tolist()),
             "logistic regression weights is not an array block"),
            ("logreg-bias-nan", "2gram-lr", lambda doc: doc["model"].update(bias=float("nan")),
             "logistic regression bias nan is not a finite number"),
            ("logreg-format-version-2", "2gram-lr", lambda doc: doc.update(format_version=2),
             "logreg checkpoint format version 2, expected 3"),
            ("space-idf-nan", "ctakes-lr", _edit_idf(lambda a: _with(a, 0, np.nan)),
             "idf holds a value that is not a finite number"),
            ("space-without-idf", "ctakes-lr", _edit_idf(lambda a: a[:0]), "idf has shape (0,)"),
            ("space-idf-strings", "ctakes-lr", _edit_idf(lambda a: a.astype(int)),
             "idf has dtype 'int64', but the model needs float64"),
            ("space-empty-feature-key", "2gram-lr", _set_first_key([]), "feature key [] of a 2gram-lr checkpoint"),
            ("space-repeated-ngram-key", "2gram-lr", _repeat_first_key, "lists a feature key twice"),
            ("space-repeated-concept-key", "ctakes-lr", _repeat_first_key, "lists a feature key twice"),
            ("space-ngram-key-string", "2gram-lr", _set_first_key(["ngram", "ab"]),
             'is not ["ngram", [2 strings]]'),
            ("space-ngram-key-empty", "2gram-lr", _set_first_key(["ngram", []]), 'is not ["ngram", [2 strings]]'),
            ("space-ngram-key-wrong-n", "2gram-lr", _set_first_key(["ngram", ["zzz", "yyy", "xxx"]]),
             'is not ["ngram", [2 strings]]'),
            ("space-concept-key-in-ngram", "2gram-lr", _set_first_key(["concept", "c1", True]),
             'is not ["ngram", [2 strings]]'),
            ("space-ngram-key-in-concept", "ctakes-lr", _set_first_key(["ngram", ["c1"]]),
             'is not ["concept", str, bool]'),
            ("space-concept-negation-string", "ctakes-lr", _set_first_key(["concept", "c1", "yes"]),
             'is not ["concept", str, bool]'),
            ("cnn-unknown-config-field", "cnn", lambda doc: doc["config"].update(depth=3),
             "unexpected keyword argument 'depth'"),
            ("cnn-format-version-1", "cnn", lambda doc: doc.update(format_version=1),
             "cnn checkpoint format version 1, expected 2"),
        ]],
        *[_tampered_case("cnn", _edit_output_bias(fields), id=f"cnn-block-{name}", says=says)
          for name, (fields, says) in _BAD_BLOCKS.items()],
        *[_case(lambda ws, tmp, edit=edit, command=command: _cnn_argv(
            ws, command, _tampered(ws, tmp, "cnn__pheno0.json", edit), tmp), 4,
            id=f"{command}-cnn-{name}", says=says)
          for name, (edit, says) in _BAD_CNN_CHECKPOINTS.items() for command in ("evaluate", "explain")],
        _case(lambda ws, tmp: _evaluate_argv(
            ws, _ckpt(ws, "2gram-lr__pheno0.json"),
            "--phenotype", "pheno1"), 2,
            id="baseline-other-phenotype"),
        _case(lambda ws, tmp: ["explain", "--checkpoint",
                               str(_ckpt(ws, "cnn__pheno0.json")),
                               "--corpus", str(ws["paths"]["labeled"]), "--phenotype", "pheno0",
                               "--vocab", _written(tmp, "v.json", "[]"), "--out", str(tmp / "r")], 4,
              id="explain-vocab-list"),
        *[_case(lambda ws, tmp, vocab=vocab: [
            "explain", "--checkpoint", str(_ckpt(ws, "cnn__pheno0.json")), "--corpus", str(ws["paths"]["labeled"]),
            "--phenotype", "pheno0", "--vocab", _written(tmp, "v.json", json.dumps(vocab)), "--out", str(tmp / "r")],
            4, id=f"explain-vocab-{name}", says=says) for name, (vocab, says) in _BAD_VOCABULARIES.items()],
        *[_tampered_case("cnn", lambda doc, vocab=vocab: doc.update(vocabulary=vocab), id=f"cnn-vocabulary-{name}",
                         says=says) for name, (vocab, says) in _BAD_VOCABULARIES.items()],
        _case(lambda ws, tmp: ["split", "--corpus", _written(tmp, "n.jsonl", "".join(
            json.dumps({"note_id": note_id, "text": "x"}) + "\n" for note_id in ["a\nb", *"cdefghijk"])),
            "--out", str(tmp / "split")], 3, id="split-note-id-line-break", says="n.jsonl:1: note_id"),
        _case(lambda ws, tmp: ["split", "--corpus", _written(tmp, "n.jsonl", "".join(
            json.dumps({"note_id": note_id, "text": "x"}) + "\n" for note_id in ["a", None])),
            "--out", str(tmp / "split")], 3, id="split-note-id-null", says="n.jsonl:2: note_id"),
        _case(lambda ws, tmp: _evaluate_argv(ws, _written(tmp, "c.json", _DEEP)), 4,
              id="checkpoint-deeply-nested"),
        _case(lambda ws, tmp: ["explain", "--checkpoint",
                               str(_ckpt(ws, "cnn__pheno0.json")),
                               "--corpus", str(ws["paths"]["labeled"]), "--phenotype", "pheno0",
                               "--vocab", _written(tmp, "v.json", _DEEP), "--out", str(tmp / "r")], 4,
              id="explain-vocab-deeply-nested"),
        _case(lambda ws, tmp: ["split", "--corpus", _written(tmp, "n.jsonl", _DEEP + "\n"),
                               "--out", str(tmp / "split")], 3,
              id="split-corpus-deeply-nested"),
        _case(lambda ws, tmp: ["evaluate", "--corpus", _written(tmp, "empty.jsonl", ""),
                               "--checkpoint", str(_ckpt(ws, "cnn__pheno0.json"))], 3,
              id="evaluate-empty-corpus"),
        _case(lambda ws, tmp: ["split", "--corpus", _written(tmp, "empty.jsonl", ""),
                               "--out", str(tmp / "split")], 3,
              id="split-empty-corpus"),
        _case(lambda ws, tmp: ["pretrain", "--corpus", _written(tmp, "empty.jsonl", ""),
                               "--out", str(tmp / "e.txt")], 3,
              id="pretrain-empty-corpus"),
        _case(lambda ws, tmp: ["pretrain", "--corpus", str(ws["paths"]["unlabeled"]),
                               "--out", str(tmp / "e.txt"), "--min-count", "0"], 2,
              id="pretrain-min-count-zero"),
        *[_case(lambda ws, tmp, scope=scope: [
            "explain", "--checkpoint", str(_ckpt(ws, "cnn__pheno0.json")),
            "--corpus", _written(tmp, "empty.jsonl", ""), "--phenotype", "pheno0",
            "--scope", scope, "--out", str(tmp / "r")], 3,
            id=f"explain-{scope}-empty-corpus") for scope in ("global", "local")],
        _case(lambda ws, tmp: _experiment_argv(ws, tmp, labeled_path=_first_notes(ws, tmp, 4)), 3,
              id="run-experiment-empty-test-split"),
        _case(lambda ws, tmp: ["run-experiment", "--config", str(tmp)], 2, id="config-directory"),
        _case(lambda ws, tmp: ["run-experiment", "--config", _written(tmp, "c.json", b"\xff\xfe")], 2,
              id="config-not-utf8"),
    ],
)
def test_malformed_input_exits_cleanly(workspace, tmp_path, capsys, argv, code, says):
    """Malformed notes, dictionaries, checkpoints and configs: exit 2, 3 or 4
    with one line on stderr, never a traceback. A checkpoint case names the
    check it was written for; a run-experiment that fails on its input leaves
    no output directory behind."""
    assert main(argv(workspace, tmp_path)) == code
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert says in err
    assert not (tmp_path / "out").exists()


def _afile(tmp_path, *under) -> str:
    """tmp_path/afile, a regular file, or a path under it."""
    _written(tmp_path, "afile", "")
    return str(tmp_path.joinpath("afile", *under))


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(lambda ws, tmp: _evaluate_argv(
            ws, _ckpt(ws, "cnn__pheno0.json"), "--out", str(tmp / "nodir" / "x.csv")),
            "nodir/x.csv", id="evaluate-out-in-missing-dir"),
        pytest.param(lambda ws, tmp: [
            "explain", "--checkpoint", str(_ckpt(ws, "cnn__pheno0.json")),
            "--corpus", str(ws["paths"]["labeled"]), "--phenotype", "pheno0",
            "--out", _afile(tmp, "x")],
            "afile", id="explain-out-under-file"),
        pytest.param(lambda ws, tmp: [
            "pretrain", "--corpus", str(ws["paths"]["unlabeled"]), "--epochs", "1", "--dim", "4",
            "--out", str(tmp / "nodir" / "e.txt")], "nodir/e.txt", id="pretrain-out-in-missing-dir"),
        pytest.param(lambda ws, tmp: [
            "split", "--corpus", str(ws["paths"]["labeled"]), "--out", _afile(tmp)],
            "afile", id="split-out-is-file"),
        pytest.param(lambda ws, tmp: ["generate", "--out", _afile(tmp)], "afile", id="generate-out-is-file"),
        pytest.param(lambda ws, tmp: _experiment_argv(ws, tmp, output_dir=_afile(tmp)),
                     "afile", id="run-experiment-output-dir-is-file"),
        pytest.param(lambda ws, tmp: _experiment_argv(ws, tmp, output_dir=_afile(tmp, "out")),
                     "afile/out", id="run-experiment-output-dir-under-file"),
    ],
)
def test_unwritable_output_is_config_error(workspace, tmp_path, capsys, argv, named):
    """An output path that cannot be written: exit 2 with one stderr line naming it."""
    assert main(argv(workspace, tmp_path)) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: cannot write {tmp_path / named}:")


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
