"""The checkpoint file format: array blocks, round trips, and a fuzzed reader."""

import base64
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from notepheno import checkpoint
from notepheno.cli import main
from notepheno.synthetic import SyntheticSpec, generate_synthetic_corpus

MODELS = ["cnn", "2gram-lr", "3gram-lr", "ctakes-rf", "ctakes-lr", "filter-rf", "filter-lr"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One small run of all seven models, and an eight-note corpus to evaluate
    on. The integer l2 lambda must come back from a load as the same int."""
    root = tmp_path_factory.mktemp("ckpt")
    paths = generate_synthetic_corpus(SyntheticSpec(n_notes=60, vocab_size=40, seed=3), root / "corpus")
    config = {
        "labeled_path": str(paths["labeled"]), "unlabeled_path": str(paths["unlabeled"]),
        "dictionary_path": str(paths["dictionary"]), "output_dir": str(root / "out"),
        "phenotypes": ["pheno0"], "models": MODELS, "seed": 2,
        "pretrain": {"dim": 4, "epochs": 1, "window": 2},
        "baselines": {"rf_n_trees": 3, "logreg_l2_lambda": 1},
        "cnn": {"filter_widths": [2, 3], "filters_per_width": 4, "epochs": 2, "batch_size": 8},
    }
    (root / "config.json").write_text(json.dumps(config))
    assert main(["run-experiment", "--config", str(root / "config.json")]) == 0
    notes = root / "notes.jsonl"
    notes.write_text("".join(paths["labeled"].read_text().splitlines(keepends=True)[:8]))
    return {"root": root, "ckpts": root / "out" / "checkpoints", "notes": notes,
            "dictionary": paths["dictionary"]}


def _blocks(node, path=()):
    """(path, block) for every array block in a parsed checkpoint."""
    if isinstance(node, dict) and "data" in node:
        yield path, node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _blocks(value, (*path, key))


def _loaded_arrays(ckpt: checkpoint.Checkpoint) -> dict[tuple, np.ndarray]:
    """The arrays of a loaded checkpoint, keyed by their path in the document."""
    model = ckpt.model
    if ckpt.kind == "cnn":
        arrays = {("params", "embeddings"): model.embeddings.vectors,
                  ("params", "output_weights"): model.output_weights, ("params", "output_bias"): model.output_bias}
        for w in model.config.filter_widths:
            arrays["params", "conv_weights", str(w)] = model.conv_weights[w]
            arrays["params", "conv_biases", str(w)] = model.conv_biases[w]
        return arrays
    arrays = {("feature_space", "idf"): ckpt.space.idf}
    if ckpt.kind == "logreg":
        return {**arrays, ("model", "weights"): model.weights}
    return {**arrays, **{("model", key): getattr(model, key) for key in checkpoint.FOREST_ARRAYS}}


@pytest.mark.parametrize("name", MODELS)
def test_every_array_is_a_block_that_loads_bit_exactly(run, name):
    """Each array of the model is one base64 block of its little-endian bytes,
    and load returns exactly those bits as a writable native-endian array."""
    path = run["ckpts"] / f"{name}__pheno0.json"
    doc = json.loads(path.read_text())
    loaded = _loaded_arrays(checkpoint.load(path))
    blocks = dict(_blocks(doc))
    assert blocks.keys() == loaded.keys()
    for key, block in blocks.items():
        array = loaded[key]
        assert array.dtype == np.dtype(block["dtype"]) and array.dtype.isnative and array.flags.writeable
        assert list(array.shape) == block["shape"]
        assert base64.b64decode(block["data"]) == array.astype(array.dtype.newbyteorder("<")).tobytes()


@pytest.mark.parametrize("name", MODELS)
def test_save_of_a_loaded_checkpoint_writes_its_bytes(run, name, tmp_path):
    path = run["ckpts"] / f"{name}__pheno0.json"
    checkpoint.save(checkpoint.load(path), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name", ["cnn", "2gram-lr", "ctakes-rf"])
def test_an_array_that_is_not_finite_is_never_saved(run, name, tmp_path):
    """save() refuses what load() refuses, before it opens the file."""
    ckpt = checkpoint.load(run["ckpts"] / f"{name}__pheno0.json")
    array = {"cnn": lambda: ckpt.model.embeddings.vectors, "2gram-lr": lambda: ckpt.model.weights,
             "ctakes-rf": lambda: ckpt.model.threshold}[name]()
    array[-1] = np.nan
    with pytest.raises(ValueError, match="cannot save an array that holds a value that is not a finite number"):
        checkpoint.save(ckpt, tmp_path / "bad.json")
    assert not (tmp_path / "bad.json").exists()


def test_an_integer_logistic_regression_bias_loads_like_any_float_field(run, tmp_path):
    doc = json.loads((run["ckpts"] / "2gram-lr__pheno0.json").read_text())
    doc["model"]["bias"] = -2
    (tmp_path / "int_bias.json").write_text(json.dumps(doc))
    assert checkpoint.load(tmp_path / "int_bias.json").model.bias == -2


# Values a parsed node is replaced with: every JSON type, a NaN, and an
# integer too large for a float.
_RETYPES = [None, True, 0, -1, 1.5, float("nan"), 10**400, "x", "", [], [1], {}, {"a": 1}]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _parsed_mutation(draw, doc):
    """doc after one structural edit: a node dropped or retyped, or a block's
    data, shape or dtype corrupted."""
    blocks = [path for path, _ in _blocks(doc)]
    kind = draw(st.sampled_from(["drop", "retype", "data", "shape", "dtype"]))
    if kind in ("drop", "retype"):
        # a walk down from the root, so that a long list does not drown its siblings
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            parent = node
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        if kind == "drop":
            del parent[key]
        else:
            parent[key] = draw(st.sampled_from(_RETYPES))
        return doc
    block = _at(doc, draw(st.sampled_from(blocks)))
    if kind == "data":
        data = block["data"]
        at = draw(st.integers(0, len(data)))
        block["data"] = draw(st.sampled_from([
            data[:at], data[:at] + draw(st.sampled_from(["A", "=", "!", "é", "AAAA", "/+/+"])) + data[at + 1:],
            data + "AAAAAAAA", data[::-1]]))
    elif kind == "shape":
        shape = block["shape"]
        block["shape"] = draw(st.sampled_from([
            shape[:-1], [*shape, 1], [*shape, 0], [-n for n in shape], [float(n) for n in shape],
            [n + 1 for n in shape], [0, *shape], [sum(shape)], [10**400]]))
    else:
        block["dtype"] = draw(st.sampled_from(["float64", "int64", "float32", "<f8", "object", "", None, 8]))
    return doc


@st.composite
def _raw_mutation(draw, raw: bytes):
    """raw with a few bytes flipped, or cut short."""
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    flipped = bytearray(raw)
    for _ in range(draw(st.integers(1, 4))):
        flipped[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
    return bytes(flipped)


@pytest.mark.parametrize("name", ["cnn", "2gram-lr", "ctakes-rf"])
@settings(max_examples=450, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_checkpoint_never_escapes_the_cli(run, name, data, tmp_path, capsys):
    """evaluate of a byte-flipped, truncated or structurally edited checkpoint
    exits 0, 2, 3 or 4: it never raises."""
    raw = (run["ckpts"] / f"{name}__pheno0.json").read_bytes()
    if data.draw(st.booleans()):
        mutated = data.draw(_raw_mutation(raw))
    else:
        mutated = json.dumps(data.draw(_parsed_mutation(json.loads(raw)))).encode()
    path = tmp_path / "mutated.json"
    path.write_bytes(mutated)
    code = main(["evaluate", "--checkpoint", str(path), "--corpus", str(run["notes"]),
                 "--dictionary", str(run["dictionary"])])
    capsys.readouterr()
    assert code in (0, 2, 3, 4)
