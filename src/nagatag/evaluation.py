"""Tagging evaluation at the token level, and transition-weight inspection.

Produces a gold-rows confusion matrix, per-tag precision/recall/F1 with
supports, accuracy, and macro plus support-weighted aggregates. Weighted
recall is computed as trace/total, which is algebraically the support-
weighted mean of per-tag recalls, so it equals accuracy exactly rather
than merely within rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from nagatag.corpus import TaggedCorpus, TagSet, tag_pairs
from nagatag.crf import ModelParameters


@dataclass(frozen=True)
class ConfusionMatrix:
    tagset: TagSet
    counts: np.ndarray  # (K, K) ints, rows = gold, columns = predicted

    def __post_init__(self):
        K = len(self.tagset)
        if self.counts.shape != (K, K):
            raise ValueError(f"counts must be {(K, K)}, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_csv(self) -> str:
        names = self.tagset.names
        lines = ["," + ",".join(names)]
        for i, name in enumerate(names):
            lines.append(name + "," + ",".join(str(int(c)) for c in self.counts[i]))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TagMetrics:
    precision: float
    recall: float
    f1: float
    support: int

    def __post_init__(self):
        for value in (self.precision, self.recall, self.f1):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"metric out of [0,1]: {value}")
        if self.support < 0:
            raise ValueError("support must be nonnegative")


@dataclass(frozen=True)
class EvalReport:
    tagset: TagSet
    per_tag: dict[str, TagMetrics]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    total: int

    def as_dict(self) -> dict:
        """Exact (unrounded) values for machine consumption."""
        return {
            "per_tag": {
                name: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                }
                for name, m in self.per_tag.items()
            },
            "accuracy": self.accuracy,
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "weighted": {
                "precision": self.weighted_precision,
                "recall": self.weighted_recall,
                "f1": self.weighted_f1,
            },
            "total": self.total,
        }


def confusion(gold: TaggedCorpus, predicted: TaggedCorpus, tagset: TagSet) -> ConfusionMatrix:
    """Count (gold tag, predicted tag) pairs over structurally identical corpora."""
    K = len(tagset)
    counts = np.zeros((K, K), dtype=np.int64)
    for (g, p), n in tag_pairs(gold, predicted).items():
        counts[g, p] = n
    return ConfusionMatrix(tagset, counts)


def _safe_ratio(num: int, den: int, tag: str, metric: str) -> float:
    if den == 0:
        warnings.warn(
            f"{tag}: {metric} is 0/0, reporting 0", RuntimeWarning, stacklevel=3
        )
        return 0.0
    return num / den


def report(cm: ConfusionMatrix) -> EvalReport:
    if cm.total == 0:
        raise ValueError("cannot report on an empty confusion matrix")
    names = cm.tagset.names
    tp = np.diag(cm.counts)
    row_sums = cm.counts.sum(axis=1)  # TP + FN
    col_sums = cm.counts.sum(axis=0)  # TP + FP

    per_tag = {}
    for k, name in enumerate(names):
        precision = _safe_ratio(int(tp[k]), int(col_sums[k]), name, "precision")
        recall = _safe_ratio(int(tp[k]), int(row_sums[k]), name, "recall")
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        per_tag[name] = TagMetrics(precision, recall, f1, int(row_sums[k]))

    total = cm.total
    accuracy = int(tp.sum()) / total
    K = len(names)
    macro_p = sum(m.precision for m in per_tag.values()) / K
    macro_r = sum(m.recall for m in per_tag.values()) / K
    macro_f = sum(m.f1 for m in per_tag.values()) / K
    weighted_p = sum(m.precision * m.support for m in per_tag.values()) / total
    # support-weighted recall telescopes to trace/total; computing it that
    # way keeps the equality with accuracy exact in floating point
    weighted_r = int(tp.sum()) / total
    weighted_f = sum(m.f1 * m.support for m in per_tag.values()) / total
    return EvalReport(
        tagset=cm.tagset,
        per_tag=per_tag,
        accuracy=accuracy,
        macro_precision=macro_p,
        macro_recall=macro_r,
        macro_f1=macro_f,
        weighted_precision=weighted_p,
        weighted_recall=weighted_r,
        weighted_f1=weighted_f,
        total=total,
    )


def format_report_text(rep: EvalReport) -> str:
    """Fixed-point table: one row per tag in tagset order, then aggregates."""
    width = max(12, max(len(n) for n in rep.tagset.names) + 2)
    header = f"{'':<{width}}{'precision':>10}{'recall':>10}{'f1-score':>10}{'support':>10}"
    lines = [header, ""]
    for name in rep.tagset.names:
        m = rep.per_tag[name]
        lines.append(
            f"{name:<{width}}{m.precision:>10.2f}{m.recall:>10.2f}"
            f"{m.f1:>10.2f}{m.support:>10d}"
        )
    lines.append("")
    lines.append(f"{'accuracy':<{width}}{'':>10}{'':>10}{rep.accuracy:>10.2f}{rep.total:>10d}")
    lines.append(
        f"{'macro avg':<{width}}{rep.macro_precision:>10.2f}{rep.macro_recall:>10.2f}"
        f"{rep.macro_f1:>10.2f}{rep.total:>10d}"
    )
    lines.append(
        f"{'weighted avg':<{width}}{rep.weighted_precision:>10.2f}{rep.weighted_recall:>10.2f}"
        f"{rep.weighted_f1:>10.2f}{rep.total:>10d}"
    )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TransitionRanking:
    top: tuple[tuple[str, str, float], ...]
    bottom: tuple[tuple[str, str, float], ...]
    begin: tuple[tuple[str, float], ...]
    end: tuple[tuple[str, float], ...]


def top_transitions(model: ModelParameters, n: int) -> TransitionRanking:
    """Most likely and most unlikely tag transitions by learned weight.

    Boundary begin/end weights are listed separately (in tagset order)
    rather than mixed into the transition ranking.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n}")
    names = model.tagset.names
    entries = [
        (i, j, float(model.transition_weights[i, j]))
        for i in range(len(names))
        for j in range(len(names))
    ]
    by_desc = sorted(entries, key=lambda e: (-e[2], e[0], e[1]))
    by_asc = sorted(entries, key=lambda e: (e[2], e[0], e[1]))
    as_named = lambda es: tuple((names[i], names[j], w) for i, j, w in es)
    return TransitionRanking(
        top=as_named(by_desc[:n]),
        bottom=as_named(by_asc[:n]),
        begin=tuple((name, float(w)) for name, w in zip(names, model.begin_weights)),
        end=tuple((name, float(w)) for name, w in zip(names, model.end_weights)),
    )
