"""Concept-dictionary matching over token sequences with negation detection.

This is the stand-in for a full clinical concept extractor: exact phrase
matching against a curated dictionary, plus a trigger/scope negation rule, so
downstream baselines receive (concept, negated) count features.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import tokenize

# Trigger phrases, stored pre-tokenized by the corpus rules ("r/o" splits into
# three tokens). A mention is negated when a trigger lies entirely within the
# window of tokens preceding it and no scope breaker intervenes.
NEGATION_TRIGGERS: tuple[tuple[str, ...], ...] = (
    ("no",),
    ("not",),
    ("denies",),
    ("denied",),
    ("without",),
    ("negative", "for"),
    ("ruled", "out"),
    ("r", "/", "o"),
)
SCOPE_BREAKERS = frozenset({".", ",", "but", "however"})
NEGATION_WINDOW = 5


@dataclass(frozen=True)
class ConceptEntry:
    concept_id: str
    phrase: tuple[str, ...]
    phenotypes: frozenset[str] = frozenset()


@dataclass
class ConceptDictionary:
    """Dictionary entries plus their phrase index, compiled once on construction.

    by_phrase maps each phrase to its sorted concept ids; by_first_token maps
    each token that starts a phrase to the lengths of the phrases it starts,
    longest first. Neither takes part in == or repr.
    """

    entries: list[ConceptEntry] = field(default_factory=list)
    by_phrase: dict[tuple[str, ...], list[str]] = field(init=False, repr=False, compare=False)
    by_first_token: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        self.by_phrase = {}
        for entry in self.entries:
            if not entry.phrase:
                raise ValueError(f"concept {entry.concept_id!r} has an empty phrase")
            key = (entry.concept_id, entry.phrase)
            if key in seen:
                raise ValueError(f"duplicate dictionary entry {key!r}")
            seen.add(key)
            self.by_phrase.setdefault(entry.phrase, []).append(entry.concept_id)
        lengths: dict[str, set[int]] = {}
        for phrase, concept_ids in self.by_phrase.items():
            concept_ids.sort()
            lengths.setdefault(phrase[0], set()).add(len(phrase))
        self.by_first_token = {tok: tuple(sorted(ls, reverse=True)) for tok, ls in lengths.items()}

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ConceptMention:
    concept_id: str
    start: int
    end: int
    negated: bool


def detect_negation(tokens: list[str], span: tuple[int, int]) -> bool:
    """True when a negation trigger governs the span.

    The trigger must lie entirely within the NEGATION_WINDOW tokens before
    span start, with no scope breaker between the trigger and the span.
    """
    start, end = span
    if not (0 <= start < end <= len(tokens)):
        raise ValueError(f"invalid span {span} for sequence of length {len(tokens)}")
    window_start = max(0, start - NEGATION_WINDOW)
    for trigger in NEGATION_TRIGGERS:
        m = len(trigger)
        for pos in range(window_start, start - m + 1):
            if tuple(tokens[pos : pos + m]) != trigger:
                continue
            between = tokens[pos + m : start]
            if not any(tok in SCOPE_BREAKERS for tok in between):
                return True
    return False


def match_concepts(tokens: list[str], dictionary: ConceptDictionary) -> list[ConceptMention]:
    """Longest-match-first, left-to-right, non-overlapping dictionary scan.

    At each position the longest matching phrase wins and the scan resumes
    after it; entries of different concepts sharing that phrase each get a
    mention. Every mention carries its negation flag.
    """
    by_phrase, by_first_token = dictionary.by_phrase, dictionary.by_first_token
    mentions: list[ConceptMention] = []
    i = 0
    n = len(tokens)
    while i < n:
        concept_ids = None
        for length in by_first_token.get(tokens[i], ()):
            if length <= n - i:
                concept_ids = by_phrase.get(tuple(tokens[i : i + length]))
                if concept_ids is not None:
                    break
        if concept_ids is None:
            i += 1
            continue
        negated = detect_negation(tokens, (i, i + length))
        for cid in concept_ids:
            mentions.append(ConceptMention(cid, i, i + length, negated))
        i += length
    return mentions


def count_concepts(mentions: list[ConceptMention]) -> dict[tuple[str, bool], int]:
    """Multiset count keyed by (concept_id, negated)."""
    counts: dict[tuple[str, bool], int] = {}
    for m in mentions:
        key = (m.concept_id, m.negated)
        counts[key] = counts.get(key, 0) + 1
    return counts


def filter_dictionary(dictionary: ConceptDictionary, phenotype: str) -> ConceptDictionary:
    """Keep only entries tagged with the given phenotype."""
    if not phenotype:
        raise ValueError("phenotype name must be non-empty")
    kept = [e for e in dictionary.entries if phenotype in e.phenotypes]
    if not kept:
        warnings.warn(f"no dictionary entries tagged with phenotype {phenotype!r}")
    return ConceptDictionary(entries=kept)


def load_dictionary(path: str | Path) -> ConceptDictionary:
    """Read a tab-separated dictionary file: concept_id, phrase, comma-separated tags.

    The tags column may be empty or missing; '#' lines are comments. Phrases
    are tokenized with the corpus rules on load.
    """
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected at least 2 tab-separated columns")
            concept_id, phrase_text = parts[0], parts[1]
            tags = parts[2] if len(parts) > 2 else ""
            phrase = tuple(tokenize(phrase_text))
            if not phrase:
                raise ValueError(f"{path}:{lineno}: phrase tokenizes to nothing")
            phenotypes = frozenset(t.strip() for t in tags.split(",") if t.strip())
            entries.append(ConceptEntry(concept_id, phrase, phenotypes))
    return ConceptDictionary(entries=entries)


def save_dictionary(dictionary: ConceptDictionary, path: str | Path):
    with open(path, "w", encoding="utf-8") as fh:
        for entry in dictionary.entries:
            tags = ",".join(sorted(entry.phenotypes))
            fh.write(f"{entry.concept_id}\t{' '.join(entry.phrase)}\t{tags}\n")
