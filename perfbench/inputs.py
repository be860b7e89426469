"""Seeded planted-phrase corpora for the benchmark workloads.

The generator lives here, not in the program under test, so that the inputs
of a workload stay byte-for-byte the same when the program changes. It follows
the design of notepheno's synthetic corpus: notes are random pool words; a
note is positive for a phenotype exactly when it holds one of that
phenotype's planted variants (a synonym head ``syn{j}v{i}`` in front of a
shared tail ``cue{j}t{t}``). The concept dictionary lists the canonical
variant of each phenotype only.

The seed draws the text of every note: its length, its filler words and
where the phrase goes. Which phrase a note gets (a variant or none) comes
from a stream that does not depend on the seed, so every seed has the
same label pattern, and the split the program draws puts the same positives
and the same variants in each part. Otherwise, on corpora this small, whether
a heavily regularised learner predicts any positive at all, and how many test
positives the one-variant dictionary can match, flip from seed to seed, and
the quality metric would measure the draw instead of the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

MIN_NOTE_TOKENS = 20
MAX_NOTE_TOKENS = 40
POSITIVE_RATE = 0.5


@dataclass(frozen=True)
class CorpusSpec:
    n_labeled: int
    n_unlabeled: int
    pool: int  # distinct filler words
    n_phenotypes: int = 1
    variants: int = 1
    phrase_length: int = 3

    def phenotypes(self) -> list[str]:
        return [f"pheno{j}" for j in range(self.n_phenotypes)]

    def planted(self, j: int) -> list[tuple[str, ...]]:
        tail = tuple(f"cue{j}t{t}" for t in range(self.phrase_length - 1))
        return [(f"syn{j}v{i}",) + tail for i in range(self.variants)]


def _contains(tokens: list[str], phrase: tuple[str, ...]) -> bool:
    m = len(phrase)
    return any(tuple(tokens[i : i + m]) == phrase for i in range(len(tokens) - m + 1))


def _note_tokens(spec: CorpusSpec, rng: random.Random, pattern: random.Random) -> list[str]:
    length = rng.randint(MIN_NOTE_TOKENS, MAX_NOTE_TOKENS)
    tokens = [f"w{rng.randrange(spec.pool):05d}" for _ in range(length)]
    for j in range(spec.n_phenotypes):
        if pattern.random() >= POSITIVE_RATE:
            continue
        phrase = pattern.choice(spec.planted(j))
        pos = rng.randrange(length - len(phrase) + 1)
        tokens[pos : pos + len(phrase)] = list(phrase)
    return tokens


def _write_jsonl(records: list[dict], path: Path):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def labeled_records(spec: CorpusSpec, seed: int, stream: str, n: int) -> list[dict]:
    """n labeled notes; labels are the planted-phrase indicator, no noise."""
    rng = random.Random(f"{seed}:{stream}")
    pattern = random.Random(f"pattern:{stream}")
    records = []
    for k in range(n):
        tokens = _note_tokens(spec, rng, pattern)
        labels = {
            name: int(any(_contains(tokens, p) for p in spec.planted(j)))
            for j, name in enumerate(spec.phenotypes())
        }
        records.append({"note_id": f"{stream}{k:05d}", "text": " ".join(tokens), "labels": labels})
    return records


def write_corpus(spec: CorpusSpec, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write labeled.jsonl, unlabeled.jsonl and dictionary.tsv under out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "labeled": out_dir / "labeled.jsonl",
        "unlabeled": out_dir / "unlabeled.jsonl",
        "dictionary": out_dir / "dictionary.tsv",
    }
    _write_jsonl(labeled_records(spec, seed, "n", spec.n_labeled), paths["labeled"])
    rng = random.Random(f"{seed}:u")
    pattern = random.Random("pattern:u")
    _write_jsonl(
        [
            {"note_id": f"u{k:05d}", "text": " ".join(_note_tokens(spec, rng, pattern))}
            for k in range(spec.n_unlabeled)
        ],
        paths["unlabeled"],
    )
    with open(paths["dictionary"], "w", encoding="utf-8") as fh:
        for j, name in enumerate(spec.phenotypes()):
            fh.write(f"cui{j:03d}\t{' '.join(spec.planted(j)[0])}\t{name}\n")
    return paths


def write_heldout(spec: CorpusSpec, seed: int, n: int, path: Path) -> Path:
    """A labeled corpus from the same spec on a separate random stream."""
    _write_jsonl(labeled_records(spec, seed, "h", n), path)
    return path
