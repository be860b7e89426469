import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import notepheno
from notepheno import checkpoint, concepts, featurize
from notepheno.embeddings import init_embeddings, load_embeddings
from notepheno.experiment import (
    ConfigError,
    DataError,
    derive_seed,
    experiment_config_from_dict,
    load_experiment_config,
    plan,
    run_experiment,
)
from notepheno.synthetic import SyntheticSpec, generate_synthetic_corpus


def base_config(paths, out_dir, **overrides):
    data = {
        "labeled_path": str(paths["labeled"]),
        "unlabeled_path": str(paths["unlabeled"]),
        "dictionary_path": str(paths["dictionary"]),
        "output_dir": str(out_dir),
        "phenotypes": ["pheno0", "pheno1"],
        "models": ["cnn"],
        "seed": 4,
        "pretrain": {"dim": 8, "epochs": 0},
        "cnn": {"filter_widths": [2, 3], "filters_per_width": 8, "epochs": 20, "batch_size": 4},
    }
    data.update(overrides)
    return data


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("exp")
    spec = SyntheticSpec(n_notes=80, vocab_size=40, n_phenotypes=2, seed=6)
    return generate_synthetic_corpus(spec, root / "corpus")


class TestSeedDerivation:
    def test_deterministic_and_component_specific(self):
        assert derive_seed(7, "split") == derive_seed(7, "split")
        assert derive_seed(7, "split") != derive_seed(7, "pretrain")
        assert derive_seed(7, "split") != derive_seed(8, "split")

    def test_component_isolation(self, corpus, tmp_path):
        # Dropping a model from the run must not change another model's result.
        cfg_full = experiment_config_from_dict(
            base_config(corpus, tmp_path / "full", models=["2gram-lr", "3gram-lr"])
        )
        cfg_single = experiment_config_from_dict(
            base_config(corpus, tmp_path / "single", models=["2gram-lr"])
        )
        full = run_experiment(cfg_full)
        single = run_experiment(cfg_single)
        for phenotype in ("pheno0", "pheno1"):
            assert (
                full.metrics[(phenotype, "2gram-lr")]
                == single.metrics[(phenotype, "2gram-lr")]
            )


def test_concept_models_of_a_pipeline_share_counts(corpus, tmp_path, monkeypatch):
    # the -lr and -rf model of a concept pipeline match each note once
    # between them, and score as each does alone.
    calls = []
    match = concepts.match_concepts
    monkeypatch.setattr(concepts, "match_concepts",
                        lambda tokens, d: calls.append(1) or match(tokens, d))
    models = ["ctakes-lr", "ctakes-rf", "filter-lr", "filter-rf"]

    def run(tag, names):
        calls.clear()
        result = run_experiment(experiment_config_from_dict(base_config(
            corpus, tmp_path / tag, models=names, baselines={"rf_n_trees": 5})))
        return result.metrics, len(calls)

    together, shared_calls = run("together", models)
    alone_calls = 0
    for name in models:
        metrics, n = run(name, [name])
        alone_calls += n
        for phenotype in ("pheno0", "pheno1"):
            assert metrics[(phenotype, name)] == together[(phenotype, name)]
    assert shared_calls > 0 and 2 * shared_calls == alone_calls


def test_unfiltered_concept_counts_are_shared_across_phenotypes(tmp_path, monkeypatch):
    # ctakes-* counts do not depend on the phenotype: a three-phenotype run of
    # both unfiltered models matches each train and test note once.
    paths = generate_synthetic_corpus(
        SyntheticSpec(n_notes=80, vocab_size=40, n_phenotypes=3, seed=6), tmp_path / "corpus"
    )
    calls = []
    match = concepts.match_concepts
    monkeypatch.setattr(concepts, "match_concepts",
                        lambda tokens, d: calls.append(1) or match(tokens, d))
    out = tmp_path / "out"
    run_experiment(experiment_config_from_dict(base_config(
        paths, out, phenotypes=["pheno0", "pheno1", "pheno2"], models=["ctakes-lr", "ctakes-rf"],
        baselines={"rf_n_trees": 5})))
    n_scored = sum(len((out / "split" / f"{part}.ids").read_text().split()) for part in ("train", "test"))
    assert n_scored > 0 and len(calls) == n_scored


def test_ngram_counts_are_shared_across_phenotypes(corpus, tmp_path, monkeypatch):
    # n-gram counts do not depend on the phenotype: a two-phenotype run of both
    # n-gram models counts each train and test note once per n.
    calls = Counter()
    extract = featurize.extract_ngrams
    monkeypatch.setattr(featurize, "extract_ngrams",
                        lambda tokens, n: calls.update([n]) or extract(tokens, n))
    out = tmp_path / "out"
    run_experiment(experiment_config_from_dict(base_config(corpus, out, models=["2gram-lr", "3gram-lr"])))
    n_scored = sum(len((out / "split" / f"{part}.ids").read_text().split()) for part in ("train", "test"))
    assert n_scored > 0 and calls == {2: n_scored, 3: n_scored}


def test_unlabeled_notes_leave_labeled_notes_of_the_same_id_alone(corpus, tmp_path):
    # the unlabeled corpus feeds only the vocabulary and pretraining, even
    # where it reuses a labeled note's id
    ids = [json.loads(line)["note_id"] for line in corpus["labeled"].read_text().splitlines()]
    clash = tmp_path / "unlabeled.jsonl"
    clash.write_text("".join(json.dumps({"note_id": i, "text": "zzz qqq"}) + "\n" for i in ids))

    def checkpoint_bytes(tag, unlabeled_path):
        out = tmp_path / tag
        run_experiment(experiment_config_from_dict(base_config(
            corpus, out, models=["2gram-lr"], unlabeled_path=unlabeled_path)))
        return (out / "checkpoints" / "2gram-lr__pheno0.json").read_bytes()

    assert checkpoint_bytes("clash", str(clash)) == checkpoint_bytes("none", None)


@pytest.mark.parametrize("overrides", [{"unlabeled_path": None}, {"pretrain": {"dim": 8, "epochs": 0}}],
                         ids=["no-unlabeled-corpus", "zero-epochs"])
def test_a_run_without_pretraining_writes_the_seeded_init(corpus, tmp_path, overrides):
    out = tmp_path / "out"
    config = experiment_config_from_dict(base_config(corpus, out, **overrides))
    run_experiment(config)
    tokens, emb = load_embeddings(out / "embeddings.txt")
    expected = init_embeddings(len(tokens), 8, derive_seed(config.seed, "pretrain"))
    np.testing.assert_array_equal(emb.vectors, expected.vectors)


class TestPlan:
    @staticmethod
    def jobs(corpus, tmp_path, **overrides):
        jobs = plan(experiment_config_from_dict(base_config(corpus, tmp_path, **overrides)))
        for job in jobs:
            assert job.seed_name == f"train:{job.model}:{job.tag}"
            assert job.seed == derive_seed(4, job.seed_name)
        return [(job.model, job.phenotypes, job.tag) for job in jobs]

    def test_per_phenotype_jobs_in_model_then_phenotype_order(self, corpus, tmp_path):
        assert self.jobs(corpus, tmp_path, models=["2gram-lr", "cnn"]) == [
            ("2gram-lr", ("pheno0",), "pheno0"), ("2gram-lr", ("pheno1",), "pheno1"),
            ("cnn", ("pheno0",), "pheno0"), ("cnn", ("pheno1",), "pheno1"),
        ]

    def test_multilabel_gives_one_joint_cnn_job(self, corpus, tmp_path):
        assert self.jobs(corpus, tmp_path, models=["2gram-lr", "cnn"], multilabel=True) == [
            ("2gram-lr", ("pheno0",), "pheno0"), ("2gram-lr", ("pheno1",), "pheno1"),
            ("cnn", ("pheno0", "pheno1"), "multilabel"),
        ]

    def test_one_phenotype_multilabel_cnn_is_tagged_with_the_phenotype(self, corpus, tmp_path):
        jobs = self.jobs(corpus, tmp_path, models=["cnn"], phenotypes=["pheno1"], multilabel=True)
        assert jobs == [("cnn", ("pheno1",), "pheno1")]

    @pytest.mark.parametrize("multilabel", [False, True])
    def test_model_order_changes_no_output(self, corpus, tmp_path, multilabel):
        # jobs read only inputs computed before the first fit, so the order
        # they run in changes no checkpoint, metric or seed.
        def run(tag, models):
            out = tmp_path / tag
            result = run_experiment(experiment_config_from_dict(base_config(
                corpus, out, models=models, multilabel=multilabel, baselines={"rf_n_trees": 5},
                cnn={"filter_widths": [2, 3], "filters_per_width": 8, "epochs": 3, "batch_size": 4})))
            checkpoints = {p.name: p.read_bytes() for p in (out / "checkpoints").iterdir()}
            seeds = json.loads((out / "config_resolved.json").read_text())["derived_seeds"]
            return result.metrics, checkpoints, seeds

        models = ["cnn", "2gram-lr", "filter-rf"]
        forward, backward = run("forward", models), run("backward", models[::-1])
        assert len(forward[1]) == (5 if multilabel else 6)
        assert forward == backward


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self, corpus, tmp_path):
        data = base_config(corpus, tmp_path, typo_key=1)
        with pytest.raises(ConfigError, match="unknown config keys"):
            experiment_config_from_dict(data)

    def test_unknown_section_key_rejected(self, corpus, tmp_path):
        data = base_config(corpus, tmp_path)
        data["cnn"] = {"filters": 10}
        with pytest.raises(ConfigError, match=r"unknown cnn section keys: \['filters'\]"):
            experiment_config_from_dict(data)

    def test_a_missing_key_is_named(self, corpus, tmp_path):
        data = base_config(corpus, tmp_path)
        del data["models"]
        with pytest.raises(ConfigError) as refused:
            experiment_config_from_dict(data)
        assert str(refused.value) == "missing config keys: ['models']"

    @pytest.mark.parametrize("section, key, value, says", [
        ("split", "train_fraction", -0.1, "split.train_fraction must be > 0, got -0.1"),
        ("split", "test_fraction", float("nan"), "split.test_fraction must be a finite number, got nan"),
        ("pretrain", "epochs", -1, "pretrain.epochs must be >= 0, got -1"),
        ("pretrain", "learning_rate", float("inf"), "pretrain.learning_rate must be a finite number, got inf"),
        ("pretrain", "learning_rate", 10**400, f"pretrain.learning_rate must be a finite number, got {10**400}"),
        ("cnn", "epochs", -1, "cnn.epochs must be >= 0, got -1"),
        ("cnn", "dropout_p", float("nan"), "cnn.dropout_p must be a finite number, got nan"),
        ("baselines", "rf_max_depth", 0, "baselines.rf_max_depth must be >= 1, got 0"),
        ("baselines", "logreg_l2_lambda", float("-inf"),
         "baselines.logreg_l2_lambda must be a finite number, got -inf"),
    ])
    def test_a_section_field_fault_names_its_section(self, corpus, tmp_path, section, key, value, says):
        data = base_config(corpus, tmp_path)
        data[section] = {**data.get(section, {}), key: value}
        with pytest.raises(ConfigError) as refused:
            experiment_config_from_dict(data)
        assert str(refused.value) == says

    def test_duplicate_models_rejected(self, corpus, tmp_path):
        data = base_config(corpus, tmp_path, models=["cnn", "cnn"])
        with pytest.raises(ConfigError, match="duplicate"):
            experiment_config_from_dict(data)

    def test_concept_model_requires_dictionary(self, corpus, tmp_path):
        data = base_config(corpus, tmp_path, models=["ctakes-rf"])
        data.pop("dictionary_path")
        with pytest.raises(ConfigError, match="dictionary_path"):
            experiment_config_from_dict(data)

    def test_file_roundtrip(self, corpus, tmp_path):
        data = base_config(corpus, tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        config = load_experiment_config(path)
        assert config.phenotypes == ["pheno0", "pheno1"]
        assert config.cnn.filter_widths == (2, 3)

    def test_tuple_filter_widths_accepted(self, corpus, tmp_path):
        data = base_config(corpus, tmp_path)
        data["cnn"] = dict(data.get("cnn", {}), filter_widths=(2, 4))
        assert experiment_config_from_dict(data).cnn.filter_widths == (2, 4)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_experiment_config(path)


class TestMultilabel:
    def test_joint_head_covers_all_phenotypes(self, corpus, tmp_path):
        cfg = experiment_config_from_dict(
            base_config(corpus, tmp_path / "ml", multilabel=True)
        )
        result = run_experiment(cfg)
        ckpt = tmp_path / "ml" / "checkpoints" / "cnn__multilabel.json"
        assert ckpt.exists()
        loaded = checkpoint.load(ckpt)
        assert loaded.phenotypes == ["pheno0", "pheno1"]
        assert loaded.model.config.n_heads == 2
        assert ("pheno0", "cnn") in result.metrics
        assert ("pheno1", "cnn") in result.metrics

    def test_per_phenotype_default_trains_separate_models(self, corpus, tmp_path):
        cfg = experiment_config_from_dict(base_config(corpus, tmp_path / "sep"))
        run_experiment(cfg)
        assert (tmp_path / "sep" / "checkpoints" / "cnn__pheno0.json").exists()
        assert (tmp_path / "sep" / "checkpoints" / "cnn__pheno1.json").exists()


class TestDataValidation:
    def test_empty_labeled_corpus_rejected(self, corpus, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        cfg = experiment_config_from_dict(
            base_config(corpus, tmp_path, labeled_path=str(empty), models=["2gram-lr"])
        )
        with pytest.raises(DataError, match="empty"):
            run_experiment(cfg)

    def test_split_leakage_is_structurally_impossible(self, corpus, tmp_path):
        cfg = experiment_config_from_dict(
            base_config(corpus, tmp_path / "leak", models=["2gram-lr"])
        )
        result = run_experiment(cfg)
        out = tmp_path / "leak"
        train_ids = set((out / "split" / "train.ids").read_text().splitlines())
        test_ids = set((out / "split" / "test.ids").read_text().splitlines())
        assert not train_ids & test_ids
        echo = json.loads((out / "config_resolved.json").read_text())
        assert echo["split_manifest_sha256"] == result.split_hash


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """run-experiment in a fresh process writes the same checkpoints and
    reports with no BLAS thread variable set as with OPENBLAS_NUM_THREADS=1:
    importing notepheno pins one thread before numpy loads. On a host with
    one CPU both runs use one thread either way, and this cannot fail."""
    spec = SyntheticSpec(n_notes=80, vocab_size=300, n_phenotypes=1, phrases_per_phenotype=4,
                         phrase_length=3, noise_rate=0.0, seed=21)
    paths = generate_synthetic_corpus(spec, tmp_path / "corpus")
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in blas}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(notepheno.__file__).parents[1]), env.get("PYTHONPATH", "")])
    outputs = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"out{len(threads)}"
        # 100 filters per width over 50-note batches: GEMMs that a two-thread
        # OpenBLAS rounds differently from one thread
        config = base_config(paths, out, phenotypes=["pheno0"], seed=2, pretrain={"dim": 24, "epochs": 1},
                             cnn={"filters_per_width": 100, "epochs": 1, "batch_size": 50})
        (tmp_path / "config.json").write_text(json.dumps(config))
        subprocess.run([sys.executable, "-m", "notepheno.cli", "run-experiment", "--config",
                        str(tmp_path / "config.json")], env={**env, **threads}, check=True, capture_output=True)
        outputs.append({path.relative_to(out): path.read_bytes()
                        for sub in ("checkpoints", "reports") for path in (out / sub).iterdir()})
    assert outputs[0] == outputs[1]
