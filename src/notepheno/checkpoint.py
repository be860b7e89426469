"""Checkpoint files: the one reader and writer of every trained model.

A checkpoint is one JSON document with sorted keys, so equal models give
equal bytes. A CNN checkpoint holds the config, head phenotypes, vocabulary
and parameters; a baseline checkpoint the pipeline record, feature space and
learner. save() writes a Checkpoint; load() parses a file once and checks it
against the model it describes; a fault is an OSError, LookupError,
TypeError, ValueError or RecursionError.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .baselines import Forest, LinearModel, check_pipeline
from .cnn import CnnConfig, CnnModel
from .corpus import Vocabulary, check_types
from .embeddings import EmbeddingMatrix
from .featurize import FeatureKey, FeatureSpace

FORMAT_VERSIONS = {"cnn": 1, "logreg": 2, "random_forest": 2}
# The forest's node arrays and the dtype of each, and its scalar settings.
FOREST_ARRAYS = {"feature": int, "threshold": float, "left": int, "right": int,
                 "fraction": float, "roots": int}
FOREST_SETTINGS = ("n_features_per_split", "seed", "max_depth", "bootstrap")


@dataclass
class Checkpoint:
    """A trained model, from training through its file to scoring: phenotypes
    are a CNN's heads or a baseline's one phenotype; vocab is set for a CNN,
    space and pipeline for a baseline."""

    kind: str
    model: CnnModel | LinearModel | Forest
    phenotypes: list[str]
    vocab: Vocabulary | None = None
    space: FeatureSpace | None = None
    pipeline: dict | None = None


def save(ckpt: Checkpoint, path: str | Path):
    """Write a checkpoint; save(load(p), q) writes p's bytes. An unknown kind
    raises before the file is opened."""
    if ckpt.kind not in FORMAT_VERSIONS:
        raise ValueError(f"unknown checkpoint kind {ckpt.kind!r}")
    doc = _cnn_doc(ckpt) if ckpt.kind == "cnn" else _baseline_doc(ckpt)
    doc.update(format_version=FORMAT_VERSIONS[ckpt.kind], kind=ckpt.kind)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _cnn_doc(ckpt: Checkpoint) -> dict:
    model = ckpt.model
    widths = model.config.filter_widths
    return {
        "config": asdict(model.config),
        "phenotypes": list(ckpt.phenotypes),
        "vocabulary": ckpt.vocab.to_dict(),
        "vocab_sha256": ckpt.vocab.sha256(),
        "params": {
            "embeddings": model.embeddings.vectors.tolist(),
            "conv_weights": {str(w): model.conv_weights[w].tolist() for w in widths},
            "conv_biases": {str(w): model.conv_biases[w].tolist() for w in widths},
            "output_weights": model.output_weights.tolist(),
            "output_bias": model.output_bias.tolist(),
        },
    }


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


def _baseline_doc(ckpt: Checkpoint) -> dict:
    model, space = ckpt.model, ckpt.space
    if ckpt.kind == "logreg":
        payload = {"weights": model.weights.tolist(), "bias": model.bias, "l2_lambda": model.l2_lambda}
    else:
        payload = {key: getattr(model, key) for key in FOREST_SETTINGS}
        payload.update((key, getattr(model, key).tolist()) for key in FOREST_ARRAYS)
    return {
        "pipeline": ckpt.pipeline,
        "feature_space": {
            "features": [_key_to_json(k) for k in space.index_to_feature],
            "idf": space.idf,
            "variant": space.variant,
        },
        "model": payload,
    }


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
    check_types(CnnConfig, doc["config"], "config.")
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
    _array(arrays["threshold"], "forest threshold", (n,))
    if not ((arrays["fraction"] >= 0) & (arrays["fraction"] <= 1)).all():
        raise ValueError("forest fraction must lie in [0, 1]")
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
    idf = _array(data["idf"], "idf", (len(keys),)).tolist()
    space = FeatureSpace({k: i for i, k in enumerate(keys)}, idf, data["variant"], keys)
    payload = doc["model"]
    if kind == "logreg":
        model = LinearModel(
            weights=_array(payload["weights"], "logistic regression weights", (space.n_features,)),
            bias=float(_array(payload["bias"], "logistic regression bias", ())),
            l2_lambda=float(payload["l2_lambda"]),
        )
    else:
        settings = {key: payload[key] for key in FOREST_SETTINGS}
        model = Forest(**_forest_arrays(payload, space.n_features), **settings)
    pipeline = doc["pipeline"]
    check_pipeline(kind, pipeline)
    return Checkpoint(kind, model, [pipeline["phenotype"]], space=space, pipeline=pipeline)
