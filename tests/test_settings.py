"""Every settings dataclass is frozen and checked when it is built, so a
dataclasses.replace() copy is held to the same checks as a new instance."""

from dataclasses import FrozenInstanceError, fields, replace

import pytest

from notepheno.cnn import CnnConfig
from notepheno.corpus import SplitSpec
from notepheno.embeddings import PretrainConfig
from notepheno.experiment import BaselineConfig, ConfigError, ExperimentConfig
from notepheno.synthetic import SyntheticSpec

_EXPERIMENT = ExperimentConfig(labeled_path="notes.jsonl", output_dir="out", phenotypes=["pheno0"],
                               models=["cnn"])
# (valid settings, field, a value that field rejects, the error it raises)
_CASES = {
    "split-fraction": (SplitSpec(), "train_fraction", 0.9, ValueError),
    "split-fraction-nan": (SplitSpec(), "val_fraction", float("nan"), ValueError),
    "pretrain-dim": (PretrainConfig(), "dim", 0, ValueError),
    "pretrain-seed": (PretrainConfig(), "seed", -1, ValueError),
    "pretrain-lr-inf": (PretrainConfig(), "learning_rate", float("inf"), ValueError),
    "cnn-dropout": (CnnConfig(), "dropout_p", 1.0, ValueError),
    "cnn-widths": (CnnConfig(), "filter_widths", (2, 2), ValueError),
    "baselines-trees": (BaselineConfig(), "rf_n_trees", 0, ValueError),
    "synthetic-noise": (SyntheticSpec(), "noise_rate", 0.5, ValueError),
    "synthetic-seed": (SyntheticSpec(), "seed", -1, ValueError),
    "experiment-model": (_EXPERIMENT, "models", ["nope"], ConfigError),
    "experiment-phenotypes": (_EXPERIMENT, "phenotypes", [], ConfigError),
}


@pytest.mark.parametrize("settings, name, bad, error", _CASES.values(), ids=_CASES)
def test_a_field_cannot_be_assigned(settings, name, bad, error):
    with pytest.raises(FrozenInstanceError):
        setattr(settings, name, getattr(settings, name))


@pytest.mark.parametrize("settings, name, bad, error", _CASES.values(), ids=_CASES)
def test_replace_runs_the_checks_of_building(settings, name, bad, error):
    values = {f.name: getattr(settings, f.name) for f in fields(settings)}
    with pytest.raises(error) as built:
        type(settings)(**{**values, name: bad})
    with pytest.raises(error) as replaced:
        replace(settings, **{name: bad})
    assert str(replaced.value) == str(built.value)


def test_a_float_is_checked_finite_before_its_range():
    with pytest.raises(ValueError, match="learning_rate must be a finite number, got nan"):
        PretrainConfig(learning_rate=float("nan"), dim=0)


def test_filter_widths_are_stored_as_a_tuple():
    assert CnnConfig(filter_widths=[3, 2]).filter_widths == (3, 2)
    assert replace(CnnConfig(), filter_widths=[4]).filter_widths == (4,)
