import json

import pytest

from notepheno.cnn import load_checkpoint
from notepheno.experiment import (
    ConfigError,
    DataError,
    derive_seed,
    experiment_config_from_dict,
    load_experiment_config,
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


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self, corpus, tmp_path):
        data = base_config(corpus, tmp_path, typo_key=1)
        with pytest.raises(ConfigError, match="unknown config keys"):
            experiment_config_from_dict(data)

    def test_unknown_section_key_rejected(self, corpus, tmp_path):
        data = base_config(corpus, tmp_path)
        data["cnn"] = {"filters": 10}
        with pytest.raises(ConfigError, match="bad cnn section"):
            experiment_config_from_dict(data)

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
        model, _, phenotypes = load_checkpoint(ckpt)
        assert phenotypes == ["pheno0", "pheno1"]
        assert model.config.n_heads == 2
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
