"""Per-token feature template and its expansion into binary attributes.

Every token yields the same ordered template: the word itself, whether it
is first or last in the sentence, six shape predicates (capitalized, all
caps, all lower, capitals inside, hyphen, numeric), the previous and next
words, then its prefixes and suffixes up to ``prefix_max``/``suffix_max``
characters. The affix lengths are the only settings; the model file records
them. The CRF consumes these as "key=value" indicator strings, so a token's
observable content is exactly its attribute set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

FeatureMap = dict[str, "bool | str"]


@dataclass(frozen=True)
class FeatureConfig:
    """Longest prefix and suffix, in characters, that the template emits."""

    prefix_max: int = 3
    suffix_max: int = 4

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
    for k in range(1, config.prefix_max + 1):
        if len(word) >= k:
            fm[f"prefix-{k}"] = word[:k]
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
