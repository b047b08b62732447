"""Helpers that only the tests use.

Among them are the CRF's single-sentence entry points, which the acceptance
gate and tests/test_crf.py check against exhaustive enumeration and finite
differences: zero_model, build_lattice, posterior_marginals,
sequence_log_score, viterbi and nll_and_gradient. They live here, not in
nagatag.crf, and call the same private engine that trains and tags
(crf._encode, _prepare, _decode, _forward_backward, _nll_prepared and
_check_spread), so what they check is that engine.
"""

import math
import os
import tracemalloc
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

import numpy as np

from nagatag.corpus import TaggedCorpus, TagSet
from nagatag.crf import (
    ModelParameters,
    _check_spread,
    _decode,
    _encode,
    _forward_backward,
    _nll_prepared,
    _prepare,
)
from nagatag.features import FeatureConfig, Family

# The feature template's per-token oracle: one feature map per token, which
# the tests hold features.attribute_families, the features command and
# crf.build_attribute_index to.
FeatureMap = dict[str, "bool | str"]


def extract_token_features(sentence: Sequence[str], t: int) -> FeatureMap:
    """Feature map for the token at position t. Pure function."""
    if not 0 <= t < len(sentence):
        raise IndexError(f"position {t} out of range for sentence of length {len(sentence)}")
    word = sentence[t]
    last = len(sentence) - 1
    fm: FeatureMap = {
        "word": word,
        "is_first": t == 0,
        "is_last": t == last,
        "is_capitalized": word[:1].isupper(),
        "is_all_caps": word.isupper(),
        "is_all_lower": word.islower(),
        "capitals_inside": any(c.isupper() for c in word[1:]),
        "has_hyphen": "-" in word,
        "is_numeric": word.isdecimal(),
        "prev_word": sentence[t - 1] if t > 0 else "",
        "next_word": sentence[t + 1] if t < last else "",
    }
    # prefix-k only when the word actually has k characters
    for k in range(1, min(FeatureConfig.prefix_max, len(word)) + 1):
        fm[f"prefix-{k}"] = word[:k]
    for k in range(1, min(FeatureConfig.suffix_max, len(word)) + 1):
        fm[f"suffix-{k}"] = word[-k:]
    return fm


def binarize(fm: FeatureMap) -> tuple[str, ...]:
    """Render every entry as "key=value", booleans as true/false, sorted
    for a deterministic iteration order. Keys are unique and hold no "=",
    so the rendered attributes are unique too."""
    return tuple(sorted(
        f"{key}={'true' if value is True else 'false' if value is False else value}"
        for key, value in fm.items()
    ))


def sentence_attributes(sentence: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """Binarized attribute sets for every position of a sentence, each sorted:
    the oracle, one feature map per token."""
    return tuple(binarize(extract_token_features(sentence, t))
                 for t in range(len(sentence)))


def attribute_index_oracle(corpus: TaggedCorpus) -> dict[str, int]:
    """Sorted vocabulary of every attribute occurring in the corpus."""
    seen: set[str] = set()
    for sentence in corpus:
        for attrs in sentence_attributes(sentence.words()):
            seen.update(attrs)
    return {attr: i for i, attr in enumerate(sorted(seen))}


# One sentence as generic attribute sets, a collection of attribute strings
# per position, which _columns turns into the families crf._encode reads.
Attrs = Sequence[Collection[str]]


def zero_model(tagset: TagSet, attribute_index: dict[str, int]) -> ModelParameters:
    A, K = len(attribute_index), len(tagset)
    return ModelParameters(tagset, dict(attribute_index), np.zeros((A + 2 + K, K)))


@dataclass(frozen=True)
class Lattice:
    state_scores: np.ndarray  # (T, K)
    log_alpha: np.ndarray  # (T, K)
    log_beta: np.ndarray  # (T, K)
    log_Z: float


def _columns(attrs_list: Iterable[Attrs]) -> tuple[list[int], list[Family]]:
    """Generic attribute sets as _encode's input: the sentence lengths, and
    each attribute split at its first "=" into its family's key (the part up
    to and including the "=", or the whole attribute where it has none) and
    its value, coded by its place among the family's distinct values, with
    -1 at the tokens that hold none of the family. A family holds one code
    per token, so two attributes of one family at one position raise
    ValueError."""
    lengths: list[int] = []
    by_key: dict[str, tuple[dict[int, int], dict[str, int]]] = {}
    t = 0
    for attrs in attrs_list:
        for position in attrs:
            for a in position:
                key, eq, value = a.partition("=")
                codes, values = by_key.setdefault(key + eq, ({}, {}))
                if t in codes:
                    raise ValueError(f"two attributes of family {key + eq!r} at one position")
                codes[t] = values.setdefault(value, len(values))
            t += 1
        lengths.append(len(attrs))
    return lengths, [(key, [codes.get(i, -1) for i in range(t)], list(values))
                     for key, (codes, values) in sorted(by_key.items())]


def build_lattice(model: ModelParameters, attrs: Attrs) -> Lattice:
    """Forward-backward for one sentence: the batched engine with N = T rows.
    The lattice keeps begin in log_alpha[0] and end in log_beta[-1]."""
    theta, K = model.weights, model.n_tags
    _check_spread(theta, K)
    X, packing = _encode(model.vocabulary, *_columns([attrs]))
    a, c, backward = _forward_backward(X @ theta[:-K], theta[-K:], packing)
    b, _ = backward()
    C = np.cumsum(c)
    log_Z = float(C[-1])
    with np.errstate(divide="ignore"):  # an underflowed a or b is log 0 = -inf
        log_alpha = np.log(a) + C[:, None]
        log_beta = np.log(b) + (log_Z - C)[:, None]
    log_alpha[-1] -= model.end_weights
    log_beta[-1] += model.end_weights
    # cross-check: the backward recursion must reproduce the same mass,
    # sum_k a[0] * b[0] = 1
    backward_Z = log_Z + float(np.log(a[0] @ b[0]))
    if not abs(backward_Z - log_Z) <= 1e-9 * max(1.0, abs(log_Z)):
        raise ArithmeticError(f"forward/backward disagree on log_Z: {log_Z} vs {backward_Z}")
    return Lattice(X[:, :-2] @ model.state_weights, log_alpha, log_beta, log_Z)


def sequence_log_score(model: ModelParameters, attrs: Attrs, tags: Sequence[int]) -> float:
    """The score of one tag path, correctly rounded: the fsum of its observed
    counts times their weights, which, unlike a dot product, gives the same
    bits wherever Θ holds zero rows."""
    *_, (index, count) = _prepare(model.vocabulary, model.n_tags, *_columns([attrs]), [tags])
    return math.fsum(count * model.weights.ravel()[index])


def posterior_marginals(lattice: Lattice, model: ModelParameters):
    """(T,K) unary and (T-1,K,K) pairwise posterior probabilities."""
    la, lb, log_Z = lattice.log_alpha, lattice.log_beta, lattice.log_Z
    unary = np.exp(la + lb - log_Z)
    pairwise = np.exp(
        la[:-1, :, None] + model.transition_weights
        + (lattice.state_scores + lb)[1:, None, :] - log_Z
    )
    return unary, pairwise


def viterbi(model: ModelParameters, attrs: Attrs) -> tuple[list[int], float]:
    """Best tag sequence and its log score: the batched decoder on one sentence.
    Ties pick the lowest tag index."""
    ((path, score),) = _decode(model, *_columns([attrs]))
    return path.tolist(), float(score)


def nll_and_gradient(
    model: ModelParameters,
    batch: list[tuple[Attrs, Sequence[int]]],
    c2: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Regularized negative conditional log-likelihood of a batch and its
    gradient: expected counts minus observed counts plus 2*c2*w. The gradient
    has model.weights' shape and row order, so dataclasses.replace(model,
    weights=gradient) reads its blocks through the same views."""
    K = model.n_tags
    prepared = _prepare(model.vocabulary, K, *_columns(attrs for attrs, _ in batch),
                        [tags for _, tags in batch])
    value, gradient = _nll_prepared(model.weights.ravel(), K, *prepared, c2)
    return value, gradient().reshape(model.weights.shape)


def recover_tag(word: str, suffix_rule: dict[str, str]) -> str:
    """Tag by the longest marker that suffixes the word."""
    best = None
    for marker, tag in suffix_rule.items():
        if word.endswith(marker) and (best is None or len(marker) > len(best[0])):
            best = (marker, tag)
    if best is None:
        raise ValueError(f"no suffix marker matches {word!r}")
    return best[1]


def refuse_to_replace(monkeypatch, path: str):
    """Make os.replace onto path raise, so that a write that would put a
    regular file in place of a device such as /dev/null fails the test
    instead of replacing the device."""
    replace = os.replace

    def guarded(src, dst, **kwargs):
        if os.path.realpath(dst) == os.path.realpath(path):
            raise AssertionError(f"os.replace onto {path}")
        return replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", guarded)


def traced_peak(fn, *args) -> int:
    """The most bytes that tracemalloc saw allocated at once while fn(*args)
    ran, counting only what was allocated after the call began."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
