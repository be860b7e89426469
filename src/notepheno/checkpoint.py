"""Checkpoint files: the one reader and writer of every trained model.

A checkpoint is one JSON document with sorted keys, so equal models give
equal bytes. A CNN checkpoint holds the config, head phenotypes, vocabulary
and parameters; a baseline checkpoint the pipeline record, feature space and
learner. load() parses a file once and checks it against the model it
describes; a fault is an OSError, LookupError, TypeError, ValueError or
RecursionError.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .baselines import Forest, LinearModel, check_pipeline
from .cnn import CnnConfig, CnnModel
from .corpus import Vocabulary
from .embeddings import EmbeddingMatrix
from .featurize import FeatureKey, FeatureSpace

FORMAT_VERSIONS = {"cnn": 1, "logreg": 2, "random_forest": 2}
# The forest's node arrays and the dtype of each, and its scalar settings.
FOREST_ARRAYS = {"feature": int, "threshold": float, "left": int, "right": int,
                 "fraction": float, "roots": int}
FOREST_SETTINGS = ("n_features_per_split", "seed", "max_depth", "bootstrap")


@dataclass
class Checkpoint:
    """A loaded checkpoint: phenotypes are a CNN's heads or a baseline's one
    phenotype; vocab is set for a CNN, space and pipeline for a baseline."""

    kind: str
    model: CnnModel | LinearModel | Forest
    phenotypes: list[str]
    vocab: Vocabulary | None = None
    space: FeatureSpace | None = None
    pipeline: dict | None = None


def _write(doc: dict, path: str | Path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def save_cnn(model: CnnModel, vocab: Vocabulary, phenotypes: list[str], path: str | Path):
    """Write a CNN checkpoint; save -> load round-trips bit-exactly."""
    widths = model.config.filter_widths
    _write({
        "format_version": FORMAT_VERSIONS["cnn"],
        "kind": "cnn",
        "config": asdict(model.config),
        "phenotypes": list(phenotypes),
        "vocabulary": vocab.to_dict(),
        "vocab_sha256": vocab.sha256(),
        "params": {
            "embeddings": model.embeddings.vectors.tolist(),
            "conv_weights": {str(w): model.conv_weights[w].tolist() for w in widths},
            "conv_biases": {str(w): model.conv_biases[w].tolist() for w in widths},
            "output_weights": model.output_weights.tolist(),
            "output_bias": model.output_bias.tolist(),
        },
    }, path)


def _key_to_json(key: FeatureKey) -> list:
    """Stable JSON encoding for the two key kinds the pipelines use."""
    if len(key) == 2 and isinstance(key[1], bool):
        return ["concept", key[0], key[1]]
    return ["ngram", list(key)]


def _key_from_json(data: list) -> FeatureKey:
    kind = data[0]
    if kind == "concept":
        return (data[1], bool(data[2]))
    if kind == "ngram":
        return tuple(data[1])
    raise ValueError(f"unknown feature key kind {kind!r}")


def save_baseline(
    kind: str, model: LinearModel | Forest, space: FeatureSpace, pipeline: dict, path: str | Path
):
    """Write a baseline checkpoint: the learner, its feature space and pipeline record."""
    if kind == "logreg":
        assert isinstance(model, LinearModel)
        payload = {"weights": model.weights.tolist(), "bias": model.bias, "l2_lambda": model.l2_lambda}
    elif kind == "random_forest":
        assert isinstance(model, Forest)
        payload = {key: getattr(model, key) for key in FOREST_SETTINGS}
        payload.update((key, getattr(model, key).tolist()) for key in FOREST_ARRAYS)
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    _write({
        "format_version": FORMAT_VERSIONS[kind],
        "kind": kind,
        "pipeline": pipeline,
        "feature_space": {
            "features": [_key_to_json(k) for k in space.index_to_feature],
            "idf": space.idf,
            "variant": space.variant,
        },
        "model": payload,
    }, path)


def load(path: str | Path) -> Checkpoint:
    """The checkpoint at path, parsed once and checked against its kind and
    format version and against the model it describes."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in FORMAT_VERSIONS:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    version = doc.get("format_version")
    if version != FORMAT_VERSIONS[kind]:
        raise ValueError(f"{kind} checkpoint format version {version!r}, expected {FORMAT_VERSIONS[kind]}")
    return _load_cnn(doc) if kind == "cnn" else _load_baseline(kind, doc)


def _array(values, name: str, shape: tuple) -> np.ndarray:
    """values as a float array, which must have the given shape and finite entries."""
    array = np.asarray(values, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, but the model needs {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds a value that is not a finite number")
    return array


def _load_cnn(doc: dict) -> Checkpoint:
    config = CnnConfig(**doc["config"])
    config.validate()
    vocab = Vocabulary.from_dict(doc["vocabulary"])
    if vocab.sha256() != doc["vocab_sha256"]:
        raise ValueError("vocabulary hash mismatch inside checkpoint")
    params = doc["params"]
    nf, heads, widths = config.filters_per_width, config.n_heads, config.filter_widths
    embeddings = np.array(params["embeddings"], dtype=float)
    dim = embeddings.shape[-1] if embeddings.ndim == 2 else "D"
    model = CnnModel(
        embeddings=EmbeddingMatrix(vectors=_array(embeddings, "embeddings", (len(vocab), dim))),
        conv_weights={
            w: _array(params["conv_weights"][str(w)], f"width-{w} filters", (nf, w, dim)) for w in widths
        },
        conv_biases={w: _array(params["conv_biases"][str(w)], f"width-{w} biases", (nf,)) for w in widths},
        output_weights=_array(params["output_weights"], "output_weights", (heads, nf * len(widths))),
        output_bias=_array(params["output_bias"], "output_bias", (heads,)),
        config=config,
    )
    phenotypes = doc["phenotypes"]
    if not (isinstance(phenotypes, list) and len(phenotypes) == heads
            and all(isinstance(p, str) for p in phenotypes)):
        raise ValueError(f"phenotypes must be a list of {heads} strings, one per head")
    return Checkpoint("cnn", model, phenotypes, vocab=vocab)


def _forest_arrays(payload: dict, n_features: int) -> dict[str, np.ndarray]:
    """The six node arrays of a forest payload, checked so that routing ends:
    every node is a leaf or a split on a feature of the space whose children
    both come after it, and the roots are non-empty and index nodes."""
    arrays = {}
    for key, dtype in FOREST_ARRAYS.items():
        values = np.array(payload[key])
        kinds = "i" if dtype is int else "if"  # an integer list is a float list too
        if values.ndim != 1 or (values.size and values.dtype.kind not in kinds):
            raise ValueError(f"forest {key} must be a flat list of {dtype.__name__}s")
        arrays[key] = values.astype(dtype)
    feature, left, right, roots = (arrays[key] for key in ("feature", "left", "right", "roots"))
    n = len(feature)
    if len({len(values) for key, values in arrays.items() if key != "roots"}) > 1:
        raise ValueError("forest node arrays differ in length")
    index = np.arange(n)
    leaf = (feature == -1) & (left == -1) & (right == -1)
    split = (feature >= 0) & (feature < n_features) & (index < left) & (index < right)
    split &= (left < n) & (right < n)
    bad = np.flatnonzero(~(leaf | split))
    if len(bad):
        raise ValueError(
            f"forest node {bad[0]} is neither a leaf nor a split on one of {n_features} "
            f"features whose children come after it among the {n} nodes"
        )
    if not len(roots) or not ((roots >= 0) & (roots < n)).all():
        raise ValueError(f"the forest's roots must be one or more of its {n} nodes")
    return arrays


def _load_baseline(kind: str, doc: dict) -> Checkpoint:
    data = doc["feature_space"]
    keys = [_key_from_json(item) for item in data["features"]]
    idf = [float(v) for v in data["idf"]]
    if len(idf) != len(keys):
        raise ValueError("feature space has a different number of idf weights and features")
    space = FeatureSpace({k: i for i, k in enumerate(keys)}, idf, data["variant"], keys)
    payload = doc["model"]
    if kind == "logreg":
        model = LinearModel(
            weights=_array(payload["weights"], "logistic regression weights", (space.n_features,)),
            bias=float(payload["bias"]),
            l2_lambda=float(payload["l2_lambda"]),
        )
    else:
        settings = {key: payload[key] for key in FOREST_SETTINGS}
        model = Forest(**_forest_arrays(payload, space.n_features), **settings)
    pipeline = doc["pipeline"]
    check_pipeline(kind, pipeline)
    return Checkpoint(kind, model, [pipeline["phenotype"]], space=space, pipeline=pipeline)
