"""Tagging evaluation at the token level, and transition-weight inspection.

`report` turns a gold-rows confusion matrix into plain records: per-tag
precision, recall, F1 and support, accuracy, and macro and support-weighted
precision, recall and F1, all exact. `dataclasses.asdict` of the report is
the JSON of `nagatag eval --format json` less its confusion matrix. Weighted
recall is taken as trace/total, which is algebraically the support-weighted
mean of per-tag recalls, so it equals accuracy exactly, not within rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from nagatag._lazy import lazy
from nagatag.corpus import TaggedCorpus, TagSet, tag_pairs
from nagatag.crf import ModelParameters

np = lazy("numpy")


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
class Scores:
    precision: float
    recall: float
    f1: float

    def __post_init__(self):
        for value in (self.precision, self.recall, self.f1):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"metric out of [0,1]: {value}")


@dataclass(frozen=True)
class TagMetrics(Scores):
    support: int

    def __post_init__(self):
        super().__post_init__()
        if self.support < 0:
            raise ValueError("support must be nonnegative")


@dataclass(frozen=True)
class EvalReport:
    per_tag: dict[str, TagMetrics]
    accuracy: float
    macro: Scores
    weighted: Scores
    total: int


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
    rows = per_tag.values()
    macro = Scores(
        sum(m.precision for m in rows) / len(rows),
        sum(m.recall for m in rows) / len(rows),
        sum(m.f1 for m in rows) / len(rows),
    )
    # support-weighted recall telescopes to trace/total, which is accuracy;
    # taking it as that keeps the equality exact in floating point
    weighted = Scores(
        sum(m.precision * m.support for m in rows) / total,
        accuracy,
        sum(m.f1 * m.support for m in rows) / total,
    )
    return EvalReport(per_tag, accuracy, macro, weighted, total)


def format_report_text(rep: EvalReport) -> str:
    """Fixed-point table: one row per tag in tagset order, then aggregates."""
    width = max(12, max(len(n) for n in rep.per_tag) + 2)

    def row(label: str, s: Scores, support: int) -> str:
        return f"{label:<{width}}{s.precision:>10.2f}{s.recall:>10.2f}{s.f1:>10.2f}{support:>10d}"

    lines = [f"{'':<{width}}{'precision':>10}{'recall':>10}{'f1-score':>10}{'support':>10}", ""]
    lines += [row(name, m, m.support) for name, m in rep.per_tag.items()]
    lines += ["", f"{'accuracy':<{width}}{'':>20}{rep.accuracy:>10.2f}{rep.total:>10d}"]
    lines += [row("macro avg", rep.macro, rep.total), row("weighted avg", rep.weighted, rep.total)]
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
        (prev, nxt, float(w))
        for prev, weights in zip(names, model.transition_weights)
        for nxt, w in zip(names, weights)
    ]
    # sorted is stable: ties keep their (previous, next) index order
    return TransitionRanking(
        top=tuple(sorted(entries, key=lambda e: -e[2])[:n]),
        bottom=tuple(sorted(entries, key=lambda e: e[2])[:n]),
        begin=tuple((name, float(w)) for name, w in zip(names, model.begin_weights)),
        end=tuple((name, float(w)) for name, w in zip(names, model.end_weights)),
    )
