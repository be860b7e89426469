"""Note ingestion, tokenization, vocabulary construction, and dataset splits."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import random
import re
import sys
import types
import typing
import warnings
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# Maximal alphanumeric runs, else any single non-space character (underscore
# counts as punctuation, not as part of a word).
_TOKEN_RE = re.compile(r"[^\W_]+|\S")


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
        # a note id is one line of a split manifest
        if self.note_id.splitlines() != [self.note_id]:
            raise ValueError(f"note_id {self.note_id!r} must be non-empty and hold no line break")
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
        """Inverse of to_dict: distinct string tokens from PAD and UNK, an int min_count >= 1."""
        tokens, min_count = data["tokens"], data["min_count"]
        if not (isinstance(tokens, list) and all(isinstance(tok, str) for tok in tokens)):
            raise ValueError("vocabulary tokens must be a list of strings")
        if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError("vocabulary file does not start with PAD/UNK rows")
        token_to_id = {tok: i for i, tok in enumerate(tokens)}
        if len(token_to_id) != len(tokens):
            raise ValueError("vocabulary lists a token twice")
        if type(min_count) is not int or min_count < 1:
            raise ValueError(f"vocabulary min_count must be an int >= 1, got {min_count!r}")
        return cls(id_to_token=tokens, token_to_id=token_to_id, min_count=min_count)


def build_vocabulary(corpus: list[list[str]], min_count: int) -> Vocabulary:
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


class FieldError(ValueError):
    """A dataclass field whose value does not fit its type, is not a finite
    number, or lies outside the range its in_range() declares."""


def in_range(default=MISSING, **bounds):
    """A dataclass field whose value must lie in a range: ge or gt a lower
    bound, then optionally lt an upper one. check_fields holds it there."""
    return field(default=default, metadata=bounds)


def _has_type(value, annotation) -> bool:
    """Whether a value fits a field annotation (int, float, str, bool, a
    class, X | None, and list[X] / tuple[X, ...] given as a list or a tuple)."""
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


def check_fields(obj, where: str = "") -> None:
    """FieldError naming the first field of a dataclass whose value does not
    fit its annotation; else the first float field that is NaN, infinite or
    an int past the float range (a range check such as `x <= 0` lets NaN
    through); else the first value outside the range its in_range()
    declares, where None passes. where, say "forest ", prefixes the field name."""
    hints = typing.get_type_hints(type(obj))
    values = [(f.name, getattr(obj, f.name), f.metadata) for f in fields(obj)]
    for name, value, _ in values:
        if not _has_type(value, hints[name]):
            try:
                shown = json.dumps(value)
            except (TypeError, ValueError):  # a value built in code, such as a numpy scalar
                shown = repr(value)
            raise FieldError(f"{where}{name} must be {_type_name(hints[name])}, got {shown}")
    for name, value, _ in values:
        if hints[name] is float and not abs(value) <= sys.float_info.max:
            raise FieldError(f"{where}{name} must be a finite number, got {value}")
    for name, value, bounds in values:
        if not bounds or value is None:
            continue
        closed = "ge" in bounds
        low = bounds["ge"] if closed else bounds["gt"]
        high = bounds.get("lt")
        if (value < low if closed else value <= low) or (high is not None and value >= high):
            if high is None:
                text = f"{'>=' if closed else '>'} {low}"
            else:
                text = f"in {'[' if closed else '('}{low}, {high})"
            raise FieldError(f"{where}{name} must be {text}, got {value}")


@dataclass(frozen=True)
class Settings:
    """A frozen settings dataclass, checked by check_fields and then its own
    validate() whenever one is built, a dataclasses.replace() copy included."""

    def __post_init__(self):
        check_fields(self)
        self.validate()

    def validate(self):
        """The rules a field's type and declared range cannot express; none by default."""


def build_settings(cls, values, section: str = ""):
    """The Settings subclass cls built from values, a parsed JSON object; a
    field annotated with a Settings subclass is built from its own object,
    as the section of that name. An unknown or missing key, or a FieldError,
    is a ValueError; validate()'s own errors pass through. section, say "cnn",
    prefixes the field names it reports."""
    what = f"{section} section" if section else "config"
    if not isinstance(values, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    missing = [f.name for f in fields(cls)
               if f.name not in values and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {what} keys: {missing}")
    hints = typing.get_type_hints(cls)
    values = {key: build_settings(hints[key], value, key)
              if isinstance(hints[key], type) and issubclass(hints[key], Settings) else value
              for key, value in values.items()}
    try:
        return cls(**values)
    except FieldError as exc:
        raise FieldError(f"{section}.{exc}" if section else str(exc)) from exc


@dataclass(frozen=True)
class SplitSpec(Settings):
    """Train/validation/test fractions plus the shuffle seed."""

    train_fraction: float = in_range(0.7, gt=0)
    val_fraction: float = in_range(0.1, gt=0)
    test_fraction: float = in_range(0.2, gt=0)
    seed: int = 0

    def validate(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
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
    (or null) of 0/1 labels is a ValueError naming path:line. A note_id is a
    non-empty string without a line break, or an integer (not a bool) read as
    its decimal string. A label must be a JSON number equal to 0 or 1 (so 1.0
    reads as 1); a bool, a string or any other number is rejected, never rounded.
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
            note_id = record["note_id"]
            if type(note_id) not in (str, int):  # a bool is not an int here
                raise ValueError(f"{path}:{lineno}: note_id must be a string or an integer, "
                                 f"got {type(note_id).__name__}")
            try:
                note = Note(note_id=str(note_id), text=text, labels=labels)
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
