"""Every settings dataclass is frozen and checked when it is built, so a
dataclasses.replace() copy is held to the same checks as a new instance; every
range a field declares is held with one message form."""

import math
import typing
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from notepheno.baselines import Forest
from notepheno.cnn import CnnConfig
from notepheno.corpus import SplitSpec, check_ranges
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


# Every declared range, as its message states it. A forest read from a
# checkpoint is checked with check_ranges(forest, "forest ").
_RANGES = {
    (SplitSpec, "train_fraction"): "> 0",
    (SplitSpec, "val_fraction"): "> 0",
    (SplitSpec, "test_fraction"): "> 0",
    (PretrainConfig, "dim"): ">= 1",
    (PretrainConfig, "window"): ">= 1",
    (PretrainConfig, "negatives"): ">= 1",
    (PretrainConfig, "epochs"): ">= 0",
    (PretrainConfig, "learning_rate"): "> 0",
    (PretrainConfig, "seed"): ">= 0",
    (CnnConfig, "filters_per_width"): ">= 1",
    (CnnConfig, "dropout_p"): "in [0, 1)",
    (CnnConfig, "max_norm"): "> 0",
    (CnnConfig, "epochs"): ">= 0",
    (CnnConfig, "batch_size"): ">= 1",
    (CnnConfig, "adadelta_rho"): "in (0, 1)",
    (CnnConfig, "adadelta_eps"): "> 0",
    (CnnConfig, "threshold"): "in (0, 1)",
    (CnnConfig, "n_heads"): ">= 1",
    (CnnConfig, "seed"): ">= 0",
    (BaselineConfig, "logreg_l2_lambda"): ">= 0",
    (BaselineConfig, "rf_n_trees"): ">= 1",
    (BaselineConfig, "rf_max_depth"): ">= 1",
    (BaselineConfig, "rf_n_features_per_split"): ">= 1",
    (ExperimentConfig, "vocab_min_count"): ">= 1",
    (SyntheticSpec, "n_notes"): ">= 1",
    (SyntheticSpec, "vocab_size"): ">= 1",
    (SyntheticSpec, "n_phenotypes"): ">= 1",
    (SyntheticSpec, "phrases_per_phenotype"): ">= 1",
    (SyntheticSpec, "phrase_length"): ">= 1",
    (SyntheticSpec, "noise_rate"): "in [0, 0.5)",
    (SyntheticSpec, "positive_rate"): "in (0, 1)",
    (SyntheticSpec, "decoy_phrases"): ">= 0",
    (SyntheticSpec, "seed"): ">= 0",
    (SyntheticSpec, "n_unlabeled"): ">= 0",
    (Forest, "n_features_per_split"): ">= 1",
    (Forest, "max_depth"): ">= 1",
}
_VALID = {SplitSpec: SplitSpec(), PretrainConfig: PretrainConfig(), CnnConfig: CnnConfig(),
          BaselineConfig: BaselineConfig(), ExperimentConfig: _EXPERIMENT, SyntheticSpec: SyntheticSpec(),
          Forest: Forest(*[np.zeros(0)] * 6, n_features_per_split=1, seed=0)}


def _built(cls, name, value):
    """A valid instance of cls with name set to value, its ranges checked."""
    built = replace(_VALID[cls], **{name: value})
    if cls is Forest:
        check_ranges(built, "forest ")
    return built


def _bounds(cls, name):
    """The field's declared bounds, and whether it holds floats."""
    (f,) = [f for f in fields(cls) if f.name == name]
    return f.metadata, typing.get_type_hints(cls)[name] is float


def _outside():
    """(cls, name, the nearest value outside each end of the range)."""
    for cls, name in _RANGES:
        bounds, is_float = _bounds(cls, name)
        if "ge" in bounds:
            low = bounds["ge"]
            yield cls, name, math.nextafter(float(low), -math.inf) if is_float else low - 1
        else:
            yield cls, name, float(bounds["gt"]) if is_float else bounds["gt"]
        if "lt" in bounds:
            yield cls, name, float(bounds["lt"]) if is_float else bounds["lt"]


def test_the_range_table_lists_every_declared_range():
    declared = {(cls, f.name) for cls in _VALID for f in fields(cls) if f.metadata}
    assert declared == set(_RANGES)


_OUTSIDE = list(_outside())


@pytest.mark.parametrize("cls, name, value", _OUTSIDE,
                         ids=[f"{cls.__name__}.{name}={value}" for cls, name, value in _OUTSIDE])
def test_the_nearest_value_outside_a_range_is_refused(cls, name, value):
    prefix = "forest " if cls is Forest else ""
    with pytest.raises(ValueError) as refused:
        _built(cls, name, value)
    assert str(refused.value) == f"{prefix}{name} must be {_RANGES[cls, name]}, got {value}"


_INCLUSIVE = [(cls, name) for cls, name in _RANGES if "ge" in _bounds(cls, name)[0]]


@pytest.mark.parametrize("cls, name", _INCLUSIVE, ids=[f"{cls.__name__}.{name}" for cls, name in _INCLUSIVE])
def test_an_inclusive_bound_is_accepted(cls, name):
    bounds, is_float = _bounds(cls, name)
    value = float(bounds["ge"]) if is_float else bounds["ge"]
    assert getattr(_built(cls, name, value), name) == value
