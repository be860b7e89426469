import json

import pytest

from notepheno import cnn
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
        model, vocab, phenotypes = cnn.load_checkpoint(src)
        for w in model.config.filter_widths:
            model.conv_weights[w][:] = 0.0
            model.conv_biases[w][:] = 0.0
        model.output_weights[:] = 0.0
        model.output_bias[:] = 0.0
        zero_ckpt = tmp_path / "zero.json"
        cnn.save_checkpoint(model, vocab, phenotypes, zero_ckpt)
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
    [{"cnn": "x"}, {"pretrain": [1]}, {"split": {"train_fraction": "0.7"}}],
    ids=["section-string", "section-list", "field-type"],
)
def test_malformed_config_is_config_error(workspace, tmp_path, capsys, override):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({**workspace["config"], **override}))
    assert main(["run-experiment", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and len(err.splitlines()) == 1
