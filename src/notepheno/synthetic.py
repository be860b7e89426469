"""Synthetic labeled/unlabeled corpora with planted phenotype phrases.

Stands in for restricted clinical data: notes are random token sequences, and
a note is positive for a phenotype exactly when it contains one of that
phenotype's planted phrase variants (before label noise). Variants share a
fixed tail and differ in one leading synonym slot, so pretraining sees the
synonyms in interchangeable contexts. The matching concept dictionary lists
only the canonical (first) variant of each phenotype.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concepts import ConceptDictionary, ConceptEntry, save_dictionary
from .corpus import Note, Settings, in_range, save_notes_jsonl


@dataclass(frozen=True)
class SyntheticSpec(Settings):
    n_notes: int = in_range(200, ge=1)
    vocab_size: int = in_range(100, ge=1)
    n_phenotypes: int = in_range(1, ge=1)
    phrases_per_phenotype: int = in_range(1, ge=1)  # synonym variants per phenotype
    phrase_length: int = in_range(3, ge=1)
    noise_rate: float = in_range(0.0, ge=0, lt=0.5)
    positive_rate: float = in_range(0.5, gt=0, lt=1)
    decoy_phrases: int = in_range(0, ge=0)  # near-miss phrases planted without the label
    min_note_tokens: int = 20
    max_note_tokens: int = 40
    seed: int = in_range(0, ge=0)
    n_unlabeled: int | None = in_range(None, ge=0)  # defaults to n_notes

    def validate(self):
        if self.decoy_phrases and self.phrase_length < 2:
            raise ValueError("decoy phrases need phrase_length >= 2")
        if self.min_note_tokens < self.phrase_length:
            raise ValueError("min_note_tokens must be >= phrase_length")
        if self.max_note_tokens < self.min_note_tokens:
            raise ValueError("max_note_tokens must be >= min_note_tokens")


def phenotype_names(spec: SyntheticSpec) -> list[str]:
    return [f"pheno{j}" for j in range(spec.n_phenotypes)]


def planted_phrases(spec: SyntheticSpec) -> dict[str, list[tuple[str, ...]]]:
    """Per-phenotype phrase variants: a synonym slot plus a shared tail."""
    phrases = {}
    for j, name in enumerate(phenotype_names(spec)):
        tail = tuple(f"cue{j}t{t}" for t in range(spec.phrase_length - 1))
        phrases[name] = [
            (f"syn{j}v{i}",) + tail for i in range(spec.phrases_per_phenotype)
        ]
    return phrases


def decoy_phrases(spec: SyntheticSpec) -> dict[str, list[tuple[str, ...]]]:
    """Near-miss phrases that never flip the label: the shared tail behind a
    decoy head, and the canonical head in front of a corrupted tail. They make
    every slot of the planted phrase informative, so no proper sub-phrase is
    predictive on its own."""
    decoys: dict[str, list[tuple[str, ...]]] = {}
    for j, name in enumerate(phenotype_names(spec)):
        tail = tuple(f"cue{j}t{t}" for t in range(spec.phrase_length - 1))
        head = f"syn{j}v0"
        entries = []
        for i in range(spec.decoy_phrases):
            entries.append((f"dk{j}h{i}",) + tail)
            entries.append((head,) + tail[:-1] + (f"dk{j}t{i}",))
        decoys[name] = entries
    return decoys


def _contains(tokens: list[str], phrase: tuple[str, ...]) -> bool:
    m = len(phrase)
    return any(tuple(tokens[i : i + m]) == phrase for i in range(len(tokens) - m + 1))


def _generate_tokens(spec: SyntheticSpec, rng: np.random.Generator) -> list[str]:
    phrases = planted_phrases(spec)
    decoys = decoy_phrases(spec)
    length = int(rng.integers(spec.min_note_tokens, spec.max_note_tokens + 1))
    tokens = [f"w{int(i):04d}" for i in rng.integers(0, spec.vocab_size, size=length)]
    for name in phenotype_names(spec):
        coin = rng.random()
        if coin < spec.positive_rate:
            variants = phrases[name]
            planted = variants[int(rng.integers(0, len(variants)))]
        elif decoys[name] and coin < spec.positive_rate + (1.0 - spec.positive_rate) / 2:
            # a near-miss in a would-be-negative note, never next to the real
            # phrase, so no sub-phrase of the planted phrase is predictive
            planted = decoys[name][int(rng.integers(0, len(decoys[name])))]
        else:
            continue
        pos = int(rng.integers(0, length - len(planted) + 1))
        tokens[pos : pos + len(planted)] = list(planted)
    return tokens


def generate_labeled_notes(spec: SyntheticSpec) -> list[Note]:
    """Notes whose pre-noise label is exactly the planted-phrase indicator.

    Labels are recomputed by scanning the finished token sequence, so phrases
    overwritten by a later phenotype's insertion stay consistent. Noise flips
    use a separate random stream, so the same seed with and without noise
    produces the same underlying notes.
    """
    rng_text = np.random.default_rng([spec.seed, 1])
    rng_noise = np.random.default_rng([spec.seed, 2])
    phrases = planted_phrases(spec)
    notes = []
    for n in range(spec.n_notes):
        tokens = _generate_tokens(spec, rng_text)
        labels = {}
        for name in phenotype_names(spec):
            label = int(any(_contains(tokens, v) for v in phrases[name]))
            if rng_noise.random() < spec.noise_rate:
                label = 1 - label
            labels[name] = label
        notes.append(Note(note_id=f"n{n:05d}", text=" ".join(tokens), labels=labels))
    return notes


def generate_unlabeled_notes(spec: SyntheticSpec) -> list[Note]:
    """Pretraining notes from the same distribution, labels omitted."""
    rng_text = np.random.default_rng([spec.seed, 3])
    count = spec.n_unlabeled if spec.n_unlabeled is not None else spec.n_notes
    return [
        Note(note_id=f"u{n:05d}", text=" ".join(_generate_tokens(spec, rng_text)))
        for n in range(count)
    ]


def build_planted_dictionary(spec: SyntheticSpec) -> ConceptDictionary:
    """One entry per phenotype: the canonical variant, tagged with the phenotype."""
    entries = []
    phrases = planted_phrases(spec)
    for j, name in enumerate(phenotype_names(spec)):
        entries.append(
            ConceptEntry(
                concept_id=f"cui{j:03d}",
                phrase=phrases[name][0],
                phenotypes=frozenset({name}),
            )
        )
    return ConceptDictionary(entries=entries)


def generate_synthetic_corpus(spec: SyntheticSpec, out_dir: str | Path) -> dict[str, Path]:
    """Write labeled.jsonl, unlabeled.jsonl, and dictionary.tsv under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "labeled": out_dir / "labeled.jsonl",
        "unlabeled": out_dir / "unlabeled.jsonl",
        "dictionary": out_dir / "dictionary.tsv",
    }
    save_notes_jsonl(generate_labeled_notes(spec), paths["labeled"])
    save_notes_jsonl(generate_unlabeled_notes(spec), paths["unlabeled"])
    save_dictionary(build_planted_dictionary(spec), paths["dictionary"])
    return paths
