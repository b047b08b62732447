"""Spans around nagatag's public layer functions, recorded from outside.

The program is never edited. `patched` rebinds every global of a loaded
`nagatag` module that refers to a given function, so each caller that
resolves the name at call time (the CLI, crf's own helpers) goes through
the wrapper, and it restores the originals on exit. Only public names are
wrapped, so refactors of private helpers do not break the trace.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# (span name, module, public function); a span name may cover several functions
LAYER_FUNCTIONS = (
    ("features", "nagatag.features", "sentence_attributes"),
    ("crf.train_model", "nagatag.crf", "train_model"),
    ("crf.viterbi", "nagatag.crf", "viterbi"),
    ("crf.save_model", "nagatag.crf", "save_model"),
    ("crf.load_model", "nagatag.crf", "load_model"),
    ("corpus.read", "nagatag.corpus", "read_corpus"),
    ("corpus.read", "nagatag.corpus", "read_raw_sentences"),
    ("corpus.write", "nagatag.corpus", "write_corpus"),
    ("datagen.generate", "nagatag.datagen", "generate"),
    ("evaluation.report", "nagatag.evaluation", "confusion"),
    ("evaluation.report", "nagatag.evaluation", "report"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    size: int = 0  # work count carried by the span, e.g. tokens featurized
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span list; each span knows the span open when it began."""

    def __init__(self):
        self.spans: list[Span] = []
        self.minimize_results: list = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, size: int = 0):
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent, size)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, size: Callable = lambda args: 0) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name, size(args)):
                return fn(*args, **kwargs)

        return traced

    def wrap_minimize(self, minimize: Callable) -> Callable:
        """The minimizer's span, plus one span per call of the objective it receives."""

        def traced(objective, *args, **kwargs):
            with self.span("optim.minimize"):
                result = minimize(self.wrap("crf.objective", objective), *args, **kwargs)
            self.minimize_results.append(result)
            return result

        return traced

    def replacements(self) -> dict[tuple[str, str], Callable]:
        """Wrappers for every layer function, keyed by (module, name)."""
        out = {("nagatag.optim", "minimize"): self.wrap_minimize}
        for span_name, module, name in LAYER_FUNCTIONS:
            size = (lambda args: len(args[0])) if span_name == "features" else (lambda args: 0)
            out[(module, name)] = lambda fn, n=span_name, s=size: self.wrap(n, fn, s)
        return out

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the time their direct children cover."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.duration
        return sum(s.duration - children[i] for i, s in enumerate(self.spans) if s.name == name)


@contextmanager
def patched(wrappers: dict[tuple[str, str], Callable]):
    """Rebind each (module, name) function, wherever nagatag modules hold it,
    to wrappers[(module, name)](current function); undo on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "nagatag" or n.startswith("nagatag."))]
    swaps = []
    for (module, name), make in wrappers.items():
        original = getattr(sys.modules[module], name, None)
        if original is None:
            print(f"bench: {module}.{name} not found; its span is not recorded", file=sys.stderr)
            continue
        wrapper = make(original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    swaps.append((mod, attr, original))
    try:
        yield
    finally:
        for mod, attr, original in reversed(swaps):
            setattr(mod, attr, original)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def rep_layer_metrics(tracer: Tracer, train_path_s: float) -> dict[str, float]:
    """Per-layer figures of one measured repetition (see bench/README.md)."""
    features_s = tracer.total("features")
    tokens = sum(s.size for s in tracer.spans if s.name == "features")
    objective_calls = tracer.count("crf.objective")
    objective_s = tracer.total("crf.objective")
    iterations = sum(r[1].iterations for r in tracer.minimize_results)
    viterbi_ms = [s.duration * 1e3 for s in tracer.spans if s.name == "crf.viterbi"]
    last = tracer.minimize_results[-1] if tracer.minimize_results else None
    return {
        "features.calls": tracer.count("features"),
        "features.tokens": tokens,
        "features.s": features_s,
        "features.us_per_token": features_s / tokens * 1e6 if tokens else 0.0,
        "crf.encode_s": tracer.self_time("crf.train_model"),
        "crf.objective_calls": objective_calls,
        "crf.objective_s": objective_s,
        "crf.objective_ms_per_call": objective_s / objective_calls * 1e3 if objective_calls else 0.0,
        "crf.objective_share": objective_s / train_path_s if train_path_s else 0.0,
        "optim.iterations": iterations,
        "optim.objective_calls_per_iteration": objective_calls / iterations if iterations else 0.0,
        "optim.self_s": tracer.self_time("optim.minimize"),
        "optim.nonzero": int((last[0] != 0).sum()) if last else 0,
        "optim.converged": float(last[1].converged) if last else 0.0,
        "crf.viterbi_calls": len(viterbi_ms),
        "crf.viterbi_s": sum(viterbi_ms) / 1e3,
        "crf.viterbi_ms_p50": percentile(viterbi_ms, 50),
        "crf.viterbi_ms_p99": percentile(viterbi_ms, 99),
        "crf.save_model_s": tracer.total("crf.save_model"),
        "crf.load_model_s": tracer.total("crf.load_model"),
        "corpus.read_s": tracer.total("corpus.read"),
        "evaluation.report_s": tracer.total("evaluation.report"),
        "cli.other_s": tracer.self_time("cli"),
    }


def median_metrics(reps: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in reps) for key in reps[0]}
