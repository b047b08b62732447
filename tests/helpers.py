"""Helpers that only the tests use."""

import os
import tracemalloc
from typing import Sequence

from nagatag.corpus import TaggedCorpus
from nagatag.features import FeatureConfig

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
