"""Note ingestion, tokenization, vocabulary construction, and dataset splits."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import random
import re
import types
import typing
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# Maximal alphanumeric runs, else any single non-space character (underscore
# counts as punctuation, not as part of a word).
_TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_")


@dataclass
class Note:
    """A single clinical note with optional binary phenotype labels.

    A label must be a number equal to 0 or 1 and is stored as an int; a bool,
    a string or any other value is a ValueError, never rounded.
    """

    note_id: str
    text: str
    labels: dict[str, int] | None = None

    def __post_init__(self):
        if not self.note_id:
            raise ValueError("note_id must be non-empty")
        if self.labels is not None:
            for name, value in self.labels.items():
                if isinstance(value, bool) or not isinstance(value, numbers.Real) or value not in (0, 1):
                    raise ValueError(
                        f"label {name!r} of note {self.note_id!r} is {value!r}, expected 0 or 1"
                    )
            self.labels = {name: int(value) for name, value in self.labels.items()}


def tokenize(text: str) -> list[str]:
    """Lowercase and split text into alphanumeric runs and punctuation singletons.

    Whitespace separates tokens and never appears in the output. Total and
    deterministic; the empty string yields an empty list.
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    """Token <-> id map with reserved PAD (0) and UNK (1) slots."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(repr=False)
    min_count: int = 1

    @classmethod
    def from_tokens(cls, kept_tokens: list[str], min_count: int) -> "Vocabulary":
        id_to_token = [PAD_TOKEN, UNK_TOKEN] + list(kept_tokens)
        token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
        return cls(id_to_token=id_to_token, token_to_id=token_to_id, min_count=min_count)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def resolve(self, tokens: list[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(tok, UNK_ID) for tok in tokens]

    def sha256(self) -> str:
        payload = "\n".join(self.id_to_token) + f"\nmin_count={self.min_count}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {"tokens": self.id_to_token, "min_count": self.min_count}

    @classmethod
    def from_dict(cls, data: dict) -> "Vocabulary":
        tokens = list(data["tokens"])
        if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError("vocabulary file does not start with PAD/UNK rows")
        return cls(
            id_to_token=tokens,
            token_to_id={tok: i for i, tok in enumerate(tokens)},
            min_count=int(data["min_count"]),
        )


def build_vocabulary(corpus: list[list[str]], min_count: int = 2) -> Vocabulary:
    """Build a vocabulary keeping tokens with corpus frequency >= min_count.

    Kept tokens receive ids >= 2 in descending-frequency order, ties broken
    lexicographically; everything else resolves to UNK at lookup time.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts = Counter()
    for tokens in corpus:
        counts.update(tokens)
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary.from_tokens(kept, min_count)


def require_finite(cfg) -> None:
    """ValueError naming the first float field of a config dataclass that is NaN
    or infinite; a range check such as `x <= 0` lets NaN through."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be a finite number, got {value}")


def _has_type(value, annotation) -> bool:
    """Whether a config value fits a field annotation (int, float, str, bool,
    X | None, and list[X] / tuple[X, ...] given as a list or a tuple)."""
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        return any(_has_type(value, arg) for arg in typing.get_args(annotation))
    if origin in (list, tuple):
        item = typing.get_args(annotation)[0]
        return isinstance(value, (list, tuple)) and all(_has_type(v, item) for v in value)
    if annotation is type(None):
        return value is None
    if isinstance(value, bool):
        return annotation is bool
    if annotation is float:
        return isinstance(value, (int, float))
    return isinstance(value, annotation)


def _type_name(annotation) -> str:
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(_type_name(arg) for arg in args)
    if origin in (list, tuple):
        return f"a list of {_type_name(args[0])}"
    return "null" if annotation is type(None) else annotation.__name__


def check_types(cls, body: dict, where: str) -> None:
    """ValueError naming the first field of body, the fields of a config
    dataclass as parsed JSON, whose value does not fit its annotation."""
    hints = typing.get_type_hints(cls)
    for key, value in body.items():
        if key in hints and not _has_type(value, hints[key]):
            raise ValueError(
                f"{where}{key} must be {_type_name(hints[key])}, got {json.dumps(value)}"
            )


@dataclass
class SplitSpec:
    """Train/validation/test fractions plus the shuffle seed."""

    train_fraction: float = 0.7
    val_fraction: float = 0.1
    test_fraction: float = 0.2
    seed: int = 0

    def validate(self):
        require_finite(self)
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(f <= 0 for f in fracs):
            raise ValueError(f"split fractions must be positive, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {fracs}")


def split_dataset(
    notes: list[Note], spec: SplitSpec
) -> tuple[list[Note], list[Note], list[Note]]:
    """Deterministically partition notes into train/val/test lists.

    Val and test get floor(N * fraction) notes each; train takes the rest
    (its floor share plus any remainder). The shuffle is a seeded uniform
    permutation, so identical inputs and seeds give identical partitions.
    """
    spec.validate()
    if not notes:
        raise ValueError("cannot split an empty note list")
    ids = [n.note_id for n in notes]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate note_id in corpus")

    shuffled = list(notes)
    random.Random(spec.seed).shuffle(shuffled)

    n = len(notes)
    # The tiny epsilon compensates for float error in N * fraction when the
    # exact product is an integer (e.g. 1610 * 0.7).
    n_val = math.floor(n * spec.val_fraction + 1e-9)
    n_test = math.floor(n * spec.test_fraction + 1e-9)
    n_train = n - n_val - n_test

    if n_val == 0 or n_test == 0:
        warnings.warn(
            f"degenerate split for N={n}: sizes ({n_train}, {n_val}, {n_test})"
        )

    train = shuffled[:n_train]
    val = shuffled[n_train : n_train + n_val]
    test = shuffled[n_train + n_val :]
    return train, val, test


def load_notes_jsonl(path: str | Path) -> list[Note]:
    """Read newline-delimited note records (note_id, text, optional labels).

    A record that is not an object with a note_id, a string text and an object
    (or null) of 0/1 labels is a ValueError naming path:line. A label must be
    a JSON number equal to 0 or 1 (so 1.0 reads as 1); a bool, a string or
    any other number is rejected, never rounded.
    """
    notes = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON record: {exc}") from exc
            if not isinstance(record, dict) or "note_id" not in record:
                raise ValueError(f"{path}:{lineno}: a note record must be a JSON object with a note_id")
            text, labels = record.get("text"), record.get("labels")
            if not isinstance(text, str):
                raise ValueError(f"{path}:{lineno}: text must be a string, got {type(text).__name__}")
            if labels is not None and not isinstance(labels, dict):
                raise ValueError(f"{path}:{lineno}: labels must be a JSON object, got {type(labels).__name__}")
            try:
                note = Note(note_id=str(record["note_id"]), text=text, labels=labels)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if note.note_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate note_id {note.note_id!r}")
            seen.add(note.note_id)
            notes.append(note)
    return notes


def save_notes_jsonl(notes: list[Note], path: str | Path):
    with open(path, "w", encoding="utf-8") as fh:
        for note in notes:
            record: dict = {"note_id": note.note_id, "text": note.text}
            if note.labels is not None:
                record["labels"] = note.labels
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_split_manifest(
    out_dir: str | Path,
    train: list[Note],
    val: list[Note],
    test: list[Note],
) -> str:
    """Write train.ids/val.ids/test.ids under out_dir; return the manifest hash."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name, part in (("train", train), ("val", val), ("test", test)):
        body = "".join(note.note_id + "\n" for note in part)
        (out_dir / f"{name}.ids").write_text(body, encoding="utf-8")
        digest.update(name.encode("utf-8"))
        digest.update(body.encode("utf-8"))
    return digest.hexdigest()
