"""Per-token feature template and its expansion into binary attributes.

Each token yields an ordered map of word-shape and context features
(the word itself, positional flags, casing predicates, affixes up to a
configurable length, neighbouring words). The CRF consumes these as
"key=value" indicator strings, so a token's observable content is exactly
its attribute set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

FeatureMap = dict[str, "bool | str"]


@dataclass(frozen=True)
class FeatureConfig:
    """Which template items to emit. Field names match feature keys."""

    prefix_max: int = 3
    suffix_max: int = 4
    word: bool = True
    is_first: bool = True
    is_last: bool = True
    is_capitalized: bool = True
    is_all_caps: bool = True
    is_all_lower: bool = True
    capitals_inside: bool = True
    has_hyphen: bool = True
    is_numeric: bool = True
    prev_word: bool = True
    next_word: bool = True
    prefixes: bool = True
    suffixes: bool = True

    def __post_init__(self):
        for name in ("prefix_max", "suffix_max"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an int >= 1: {value!r}")


def extract_token_features(
    sentence: Sequence[str], t: int, config: FeatureConfig = FeatureConfig()
) -> FeatureMap:
    """Feature map for the token at position t. Pure function."""
    if not 0 <= t < len(sentence):
        raise IndexError(f"position {t} out of range for sentence of length {len(sentence)}")
    word = sentence[t]
    last = len(sentence) - 1
    fm: FeatureMap = {}
    if config.word:
        fm["word"] = word
    if config.is_first:
        fm["is_first"] = t == 0
    if config.is_last:
        fm["is_last"] = t == last
    if config.is_capitalized:
        fm["is_capitalized"] = word[:1].isupper()
    if config.is_all_caps:
        fm["is_all_caps"] = word.isupper()
    if config.is_all_lower:
        fm["is_all_lower"] = word.islower()
    if config.capitals_inside:
        fm["capitals_inside"] = any(c.isupper() for c in word[1:])
    if config.has_hyphen:
        fm["has_hyphen"] = "-" in word
    if config.is_numeric:
        fm["is_numeric"] = word.isdecimal()
    if config.prev_word:
        fm["prev_word"] = sentence[t - 1] if t > 0 else ""
    if config.next_word:
        fm["next_word"] = sentence[t + 1] if t < last else ""
    if config.prefixes:
        # prefix-k only when the word actually has k characters
        for k in range(1, config.prefix_max + 1):
            if len(word) >= k:
                fm[f"prefix-{k}"] = word[:k]
    if config.suffixes:
        for k in range(1, config.suffix_max + 1):
            if len(word) >= k:
                fm[f"suffix-{k}"] = word[-k:]
    return fm


def binarize(fm: FeatureMap) -> tuple[str, ...]:
    """Render every entry as "key=value", booleans as true/false,
    deduplicated and sorted for a deterministic iteration order."""
    attrs = {
        f"{key}={'true' if value is True else 'false' if value is False else value}"
        for key, value in fm.items()
    }
    return tuple(sorted(attrs))


def sentence_attributes(
    sentence: Sequence[str], config: FeatureConfig = FeatureConfig()
) -> tuple[tuple[str, ...], ...]:
    """Binarized attribute sets for every position of a sentence."""
    return tuple(
        binarize(extract_token_features(sentence, t, config))
        for t in range(len(sentence))
    )


def format_feature_map(fm: FeatureMap) -> str:
    """Human-readable one-line rendering for debug output."""
    inner = ", ".join(f"{k!r}: {v!r}" for k, v in fm.items())
    return "{" + inner + "}"
