"""Salient-phrase extraction from the convolutional layer.

Every width-w window of a document gets a score. The default "weighted"
scorer approximates how much the window contributed to the prediction:
activation times the head's output weight, summed over the filters whose
pooling argmax is this window. The alternative "norm" scorer is the plain L2
norm of the w-width filter bank's activations at the position; it is local to
the window but blind to what the output layer actually uses. Reports
aggregate the top-scoring phrases globally over positively-predicted
documents or locally per document.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cnn import BatchActivations, CnnModel, activate, classify, forward, forward_groups
from .corpus import PAD_TOKEN, Vocabulary

VARIANTS = ("weighted", "norm")


@dataclass
class PhraseScore:
    phrase: tuple[str, ...]
    width: int
    position: int
    score: float
    note_id: str = ""
    doc_index: int = 0  # the document's place in a global report's input; breaks full ties

    @property
    def text(self) -> str:
        return " ".join(self.phrase)


@dataclass
class SaliencyReport:
    scope: str  # "global" or "local"
    phenotype: str
    entries: list[PhraseScore] = field(default_factory=list)
    flagged_negative: bool = False  # local scope only: prediction was negative


def _window_values(
    model: CnnModel, acts: BatchActivations, variant: str, head: int
) -> dict[int, np.ndarray]:
    """Per width, a (notes, windows) score grid for every note of a group.

    "weighted": each filter adds activation times the head's output weight at
    its argmax window (accumulated in filter order), clipped at zero. "norm":
    the L2 norm of the width's filter activations at each window.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    nf = model.config.filters_per_width
    values = {}
    for k, w in enumerate(model.config.filter_widths):
        grid = acts.grids[w]  # (notes, windows, filters) pre-bias
        n_notes, n_windows, _ = grid.shape
        if variant == "norm":
            values[w] = np.linalg.norm(activate(model, grid, w), axis=2)
            continue
        contrib = acts.pooled[:, k * nf : (k + 1) * nf] * model.output_weights[head, k * nf : (k + 1) * nf]
        rows = np.arange(n_notes)[:, None] * n_windows + acts.argmax[w]
        summed = np.bincount(rows.ravel(), contrib.ravel(), minlength=n_notes * n_windows)
        values[w] = np.maximum(summed.reshape(n_notes, n_windows), 0.0)
    return values


# Candidate windows as parallel arrays: score, width, start position and
# document index (into the report's document list).
Windows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _windows(values: dict[int, np.ndarray], rows: np.ndarray, docs: np.ndarray,
             n_tokens: np.ndarray) -> Windows:
    """Every window of the group's notes `rows` (documents `docs`, n_tokens
    real tokens each) that lies within the note's own tokens."""
    parts = []
    for w, grid in values.items():
        note, position = np.nonzero(np.arange(grid.shape[1]) <= (n_tokens - w)[:, None])
        parts.append((grid[rows[note], position], np.full(note.size, w), position, docs[note]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _top_k(windows: Windows, documents: list[tuple[str, list[str]]], doc_rank: np.ndarray,
           k: int) -> Windows:
    """The first k windows of distinct phrase text in report order.

    Report order is score descending, then width, position, note id and
    document index ascending; doc_rank ranks the documents by (note id,
    index). Phrases holding a literal PAD token are skipped. Only the
    windows visited are turned into text.
    """
    score, width, position, doc = windows
    kept, texts = [], set()
    for i in np.lexsort((doc_rank[doc], position, width, -score)).tolist():
        start = int(position[i])
        phrase = documents[doc[i]][1][start : start + int(width[i])]
        text = " ".join(phrase)
        if PAD_TOKEN in phrase or text in texts:
            continue
        texts.add(text)
        kept.append(i)
        if len(kept) == k:
            break
    return tuple(column[kept] for column in windows)


def _entries(windows: Windows, documents: list[tuple[str, list[str]]]) -> list[PhraseScore]:
    entries = []
    for score, w, start, doc in zip(*(column.tolist() for column in windows)):
        note_id, tokens = documents[doc]
        entries.append(PhraseScore(phrase=tuple(tokens[start : start + w]), width=w, position=start,
                                   score=score, note_id=note_id, doc_index=doc))
    return entries


def _doc_rank(documents: list[tuple[str, list[str]]]) -> np.ndarray:
    """Each document's rank in (note id, input order) order."""
    order = sorted(range(len(documents)), key=lambda i: documents[i][0])
    rank = np.empty(len(documents), dtype=np.intp)
    rank[order] = np.arange(len(documents))
    return rank


def global_top_phrases(
    model: CnnModel,
    vocab: Vocabulary,
    documents: list[tuple[str, list[str]]],
    phenotype: str,
    head: int,
    k: int,
    variant: str = "weighted",
) -> SaliencyReport:
    """Top-k deduplicated phrases pooled over positively-predicted documents.

    documents holds (note_id, tokens) pairs; empty documents are skipped, and
    only documents the model labels positive for the given head contribute,
    scored from the same forward pass that predicted them. Duplicate phrase
    strings keep their maximum score; entries that tie on score, width,
    position and note id rank in the order of their documents in the input.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    documents = [(note_id, tokens) for note_id, tokens in documents if tokens]
    n_tokens = np.array([len(tokens) for _, tokens in documents], dtype=np.intp)
    doc_rank = _doc_rank(documents)
    # The deduplicated top k of the documents seen so far (groups arrive in
    # length order). A phrase of the overall top k has fewer than k better
    # distinct phrases among any subset of the documents, so it survives
    # every cut, and memory stays bounded.
    kept = (np.empty(0),) + (np.empty(0, dtype=np.intp),) * 3
    any_positive = False
    for rows, acts in forward_groups(model, [vocab.resolve(tokens) for _, tokens in documents]):
        _, labels = classify(model, acts.probs)
        positives = np.flatnonzero(labels[:, head] == 1)
        if positives.size == 0:
            continue
        any_positive = True
        docs = rows[positives]
        found = _windows(_window_values(model, acts, variant, head), positives, docs, n_tokens[docs])
        kept = _top_k(tuple(np.concatenate(pair) for pair in zip(kept, found)), documents, doc_rank, k)
    if not any_positive:
        warnings.warn(
            f"no document was predicted positive for {phenotype!r}; empty saliency report"
        )
    entries = _entries(kept, documents)
    if entries and entries[0].score == 0.0:
        warnings.warn(f"all phrase scores for {phenotype!r} are zero")
    return SaliencyReport(scope="global", phenotype=phenotype, entries=entries)


def local_salient_phrases(
    model: CnnModel,
    vocab: Vocabulary,
    note_id: str,
    tokens: list[str],
    phenotype: str,
    head: int,
    k: int,
    variant: str = "weighted",
) -> SaliencyReport:
    """Top-k deduplicated phrases of a single document, whatever its prediction."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    acts = forward(model, vocab.resolve(tokens))
    _, labels = classify(model, acts.probs)
    flagged = bool(labels[0, head] != 1)
    if flagged:
        warnings.warn(
            f"note {note_id!r} is predicted negative for {phenotype!r}; "
            "report flagged accordingly"
        )
    documents = [(note_id, tokens)]
    one = np.zeros(1, dtype=np.intp)
    found = _windows(_window_values(model, acts, variant, head), one, one, np.array([len(tokens)]))
    entries = _entries(_top_k(found, documents, one, k), documents)
    if entries and entries[0].score == 0.0:
        warnings.warn(f"all phrase scores for {phenotype!r} are zero")
    return SaliencyReport(
        scope="local",
        phenotype=phenotype,
        entries=entries,
        flagged_negative=flagged,
    )


def report_to_tsv(report: SaliencyReport) -> str:
    lines = ["rank\tphrase\twidth\tscore"]
    for rank, entry in enumerate(report.entries, start=1):
        lines.append(f"{rank}\t{entry.text}\t{entry.width}\t{entry.score!r}")
    return "\n".join(lines) + "\n"


def report_to_json(report: SaliencyReport) -> dict:
    return {
        "format_version": 1,
        "scope": report.scope,
        "phenotype": report.phenotype,
        "flagged_negative": report.flagged_negative,
        "entries": [
            {
                "rank": rank,
                "phrase": entry.text,
                "width": entry.width,
                "position": entry.position,
                "score": entry.score,
                "note_id": entry.note_id,
            }
            for rank, entry in enumerate(report.entries, start=1)
        ],
    }


def save_report(report: SaliencyReport, tsv_path: str | Path, json_path: str | Path | None = None):
    Path(tsv_path).write_text(report_to_tsv(report), encoding="utf-8")
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report_to_json(report), fh, sort_keys=True, indent=2)
            fh.write("\n")
