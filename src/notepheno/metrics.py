"""Confusion-matrix accounting and the PPV / sensitivity / F1 scores.

Undefined ratios (empty denominators) are reported as None rather than 0 or
NaN so that degenerate evaluations stay visible downstream.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class MetricTriple:
    ppv: float | None
    sensitivity: float | None
    f1: float | None


def confusion(predictions: list[int], labels: list[int]) -> ConfusionMatrix:
    """Exact TP/FP/TN/FN counts for binary predictions against binary labels."""
    if len(predictions) != len(labels):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels"
        )
    if not predictions:
        raise ValueError("cannot build a confusion matrix from zero examples")
    cm = ConfusionMatrix()
    for pred, label in zip(predictions, labels):
        if pred not in (0, 1) or label not in (0, 1):
            raise ValueError(f"predictions and labels must be 0/1, got ({pred}, {label})")
        if pred == 1 and label == 1:
            cm.tp += 1
        elif pred == 1 and label == 0:
            cm.fp += 1
        elif pred == 0 and label == 0:
            cm.tn += 1
        else:
            cm.fn += 1
    return cm


def ppv(cm: ConfusionMatrix) -> float | None:
    """TP / (TP + FP); None when nothing was predicted positive."""
    denom = cm.tp + cm.fp
    return cm.tp / denom if denom else None


def sensitivity(cm: ConfusionMatrix) -> float | None:
    """TP / (TP + FN); None when no example is actually positive."""
    denom = cm.tp + cm.fn
    return cm.tp / denom if denom else None


def f1_from_ppv_sensitivity(p: float | None, s: float | None) -> float | None:
    """Harmonic mean of PPV and sensitivity; 0 when both are 0, None if either is undefined."""
    if p is None or s is None:
        return None
    if p + s == 0:
        return 0.0
    return 2.0 * p * s / (p + s)


def f1(cm: ConfusionMatrix) -> float | None:
    return f1_from_ppv_sensitivity(ppv(cm), sensitivity(cm))


def metric_triple(cm: ConfusionMatrix) -> MetricTriple:
    return MetricTriple(ppv=ppv(cm), sensitivity=sensitivity(cm), f1=f1(cm))


def _fmt(value: float | None, as_percent: bool) -> str:
    if value is None:
        return "NA"
    if as_percent:
        return str(round(value * 100))
    return repr(value)


# The column line above report_row lines, in metrics.csv and evaluate reports.
REPORT_HEADER = "phenotype,model,ppv_pct,sensitivity_pct,f1_pct,ppv,sensitivity,f1"


def report_row(phenotype: str, model_name: str, triple: MetricTriple) -> str:
    """One comma-separated report line: integer percentages plus full precision."""
    fields = [phenotype, model_name]
    fields += [_fmt(v, True) for v in (triple.ppv, triple.sensitivity, triple.f1)]
    fields += [_fmt(v, False) for v in (triple.ppv, triple.sensitivity, triple.f1)]
    return ",".join(fields)
