"""Checkpoint files: the one reader and writer of every trained model.

A checkpoint is one JSON document with sorted keys, so equal models give
equal bytes. A CNN checkpoint holds the config, head phenotypes, vocabulary
and parameters; a baseline checkpoint the pipeline record, feature space and
learner. Every numeric array is one block, {"dtype", "shape", "data"}, whose
data is the base64 of its little-endian C-order bytes; scalars, the config,
the vocabulary, the pipeline record and the feature keys are plain JSON.
save() writes a Checkpoint; load() parses a file once and checks it against
the model it describes; a fault is an OSError, LookupError, TypeError,
ValueError or RecursionError.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .baselines import Forest, LinearModel, check_pipeline
from .cnn import CnnConfig, CnnModel
from .corpus import Vocabulary, build_settings, check_fields
from .embeddings import EmbeddingMatrix
from .featurize import IDF_VARIANT, FeatureKey, FeatureSpace

FORMAT_VERSIONS = {"cnn": 2, "logreg": 3, "random_forest": 3}
# The forest's node arrays and the dtype of each, and its scalar settings.
FOREST_ARRAYS = {"feature": "int64", "threshold": "float64", "left": "int64", "right": "int64",
                 "fraction": "float64", "roots": "int64"}
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
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def _cnn_doc(ckpt: Checkpoint) -> dict:
    model = ckpt.model
    widths = model.config.filter_widths
    return {
        "config": asdict(model.config),
        "phenotypes": list(ckpt.phenotypes),
        "vocabulary": ckpt.vocab.to_dict(),
        "vocab_sha256": ckpt.vocab.sha256(),
        "params": {
            "embeddings": _pack(model.embeddings.vectors),
            "conv_weights": {str(w): _pack(model.conv_weights[w]) for w in widths},
            "conv_biases": {str(w): _pack(model.conv_biases[w]) for w in widths},
            "output_weights": _pack(model.output_weights),
            "output_bias": _pack(model.output_bias),
        },
    }


def _pack(array, dtype: str = "float64") -> dict:
    """The block of an array: its dtype, shape and the base64 of its
    little-endian C-order bytes. A value that is not finite, which load()
    refuses, is a ValueError."""
    data = np.ascontiguousarray(array, dtype=np.dtype(dtype).newbyteorder("<"))
    if not np.isfinite(data).all():
        raise ValueError("cannot save an array that holds a value that is not a finite number")
    encoded = base64.b64encode(data.tobytes()).decode("ascii")
    return {"dtype": dtype, "shape": list(data.shape), "data": encoded}


def _key_to_json(key: FeatureKey) -> list:
    """Stable JSON encoding for the two key kinds the pipelines use."""
    if len(key) == 2 and isinstance(key[1], bool):
        return ["concept", key[0], key[1]]
    return ["ngram", list(key)]


def _key_from_json(data, pipeline: dict) -> FeatureKey:
    """The key of a ["concept", str, bool] item of a concept pipeline, or of
    an ["ngram", [str, ...]] item of an n-gram pipeline's n tokens."""
    n = pipeline.get("n")
    match data:
        case ["concept", str() as concept, bool() as negated] if n is None:
            return (concept, negated)
        case ["ngram", list() as tokens] if len(tokens) == n and all(isinstance(t, str) for t in tokens):
            return tuple(tokens)
    want = f'["ngram", [{n} strings]]' if n else '["concept", str, bool]'
    raise ValueError(f"feature key {data!r} of a {pipeline['model']} checkpoint is not {want}")


def _baseline_doc(ckpt: Checkpoint) -> dict:
    model, space = ckpt.model, ckpt.space
    if ckpt.kind == "logreg":
        payload = {"weights": _pack(model.weights), "bias": model.bias, "l2_lambda": model.l2_lambda}
    else:
        payload = {key: getattr(model, key) for key in FOREST_SETTINGS}
        payload.update((key, _pack(getattr(model, key), dtype)) for key, dtype in FOREST_ARRAYS.items())
    return {
        "pipeline": ckpt.pipeline,
        "feature_space": {
            "features": [_key_to_json(k) for k in space.index_to_feature],
            "idf": _pack(space.idf),
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


def _array(block, name: str, shape: tuple, dtype: str = "float64") -> np.ndarray:
    """The array of a block written by _pack, as a writable native-endian
    copy. The block is checked before the array is built; the array must have
    the given shape, where an axis of None takes any length, and finite entries."""
    if not (isinstance(block, dict) and block.keys() == {"dtype", "shape", "data"}):
        raise ValueError(f"{name} is not an array block with exactly the keys dtype, shape and data")
    if block["dtype"] != dtype:
        raise ValueError(f"{name} has dtype {block['dtype']!r}, but the model needs {dtype}")
    if not (isinstance(block["shape"], list) and all(type(n) is int and n >= 0 for n in block["shape"])):
        raise ValueError(f"{name} has shape {block['shape']!r}, which is not a list of non-negative ints")
    try:
        raw = base64.b64decode(block["data"], validate=True)
    except (TypeError, ValueError) as exc:  # TypeError: data is not a string
        raise ValueError(f"{name} data is not a base64 string: {exc}") from exc
    size = 8 * math.prod(block["shape"])
    if len(raw) != size:
        raise ValueError(f"{name} data holds {len(raw)} bytes, but shape {block['shape']} needs {size}")
    array = np.frombuffer(raw, np.dtype(dtype).newbyteorder("<")).reshape(block["shape"]).astype(dtype)
    if len(shape) != array.ndim or any(want not in (None, got) for want, got in zip(shape, array.shape)):
        raise ValueError(f"{name} has shape {array.shape}, but the model needs {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds a value that is not a finite number")
    return array


def _load_cnn(doc: dict) -> Checkpoint:
    config = build_settings(CnnConfig, doc["config"], "config")
    vocab = Vocabulary.from_dict(doc["vocabulary"])
    if vocab.sha256() != doc["vocab_sha256"]:
        raise ValueError("vocabulary hash mismatch inside checkpoint")
    params = doc["params"]
    nf, heads, widths = config.filters_per_width, config.n_heads, config.filter_widths
    embeddings = _array(params["embeddings"], "embeddings", (len(vocab), None))
    dim = embeddings.shape[1]
    model = CnnModel(
        embeddings=EmbeddingMatrix(vectors=embeddings),
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
    arrays = {key: _array(payload[key], f"forest {key}", (None,), dtype)
              for key, dtype in FOREST_ARRAYS.items()}
    feature, left, right, roots = (arrays[key] for key in ("feature", "left", "right", "roots"))
    n = len(feature)
    if len({len(values) for key, values in arrays.items() if key != "roots"}) > 1:
        raise ValueError("forest node arrays differ in length")
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
    pipeline = doc["pipeline"]
    check_pipeline(kind, pipeline)
    data = doc["feature_space"]
    keys = [_key_from_json(item, pipeline) for item in data["features"]]
    index = {k: i for i, k in enumerate(keys)}
    if len(index) != len(keys):
        raise ValueError("the feature space lists a feature key twice")
    if data["variant"] != IDF_VARIANT:
        raise ValueError(f"feature space variant {data['variant']!r}, expected {IDF_VARIANT!r}")
    space = FeatureSpace(index, _array(data["idf"], "idf", (len(keys),)), IDF_VARIANT, keys)
    payload = doc["model"]
    if kind == "logreg":
        weights = _array(payload["weights"], "logistic regression weights", (space.n_features,))
        model = LinearModel(weights, payload["bias"], payload["l2_lambda"])
    else:
        settings = {key: payload[key] for key in FOREST_SETTINGS}
        model = Forest(**_forest_arrays(payload, space.n_features), **settings)
    check_fields(model, "logistic regression " if kind == "logreg" else "forest ")
    return Checkpoint(kind, model, [pipeline["phenotype"]], space=space, pipeline=pipeline)
