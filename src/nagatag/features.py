"""Per-token feature template and its expansion into binary attributes.

Every token yields the same ordered template: the word itself, whether it
is first or last in the sentence, six shape predicates (capitalized, all
caps, all lower, capitals inside, hyphen, numeric), the previous and next
words, then its prefixes and suffixes up to ``prefix_max``/``suffix_max``
characters. The affix lengths are the only settings; the model file records
them. The CRF consumes these as "key=value" indicator strings, so a token's
observable content is exactly its attribute set.

There is one template, written twice: extract_token_features builds the
feature map of one token, which binarize renders, and attribute_lists writes
every position's "key=value" strings directly, in template order, with no
per-token dict, rendering or sort. The first is the oracle the tests hold the
second to; training and tagging read the second. sentence_attributes is its
sorted form.
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
    for k in range(1, min(config.prefix_max, len(word)) + 1):
        fm[f"prefix-{k}"] = word[:k]
    for k in range(1, min(config.suffix_max, len(word)) + 1):
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


def attribute_lists(
    sentence: Sequence[str], config: FeatureConfig = FeatureConfig()
) -> list[list[str]]:
    """Every position's attributes as "key=value" strings in template order,
    unsorted and duplicate-free: the same set as
    binarize(extract_token_features(sentence, t, config)) at each position t,
    written without building the feature map."""
    last = len(sentence) - 1
    # keys only up to the longest word: a model file may ask for 10**12
    longest = max(map(len, sentence), default=0)
    prefixes = [f"prefix-{k}=" for k in range(1, min(config.prefix_max, longest) + 1)]
    suffixes = [f"suffix-{k}=" for k in range(1, min(config.suffix_max, longest) + 1)]
    out = []
    for t, word in enumerate(sentence):
        attrs = [
            "word=" + word,
            "is_first=true" if t == 0 else "is_first=false",
            "is_last=true" if t == last else "is_last=false",
            "is_capitalized=true" if word[:1].isupper() else "is_capitalized=false",
            "is_all_caps=true" if word.isupper() else "is_all_caps=false",
            "is_all_lower=true" if word.islower() else "is_all_lower=false",
            "capitals_inside=true" if any(map(str.isupper, word[1:]))
            else "capitals_inside=false",
            "has_hyphen=true" if "-" in word else "has_hyphen=false",
            "is_numeric=true" if word.isdecimal() else "is_numeric=false",
            "prev_word=" + sentence[t - 1] if t > 0 else "prev_word=",
            "next_word=" + sentence[t + 1] if t < last else "next_word=",
        ]
        # prefix-k only when the word actually has k characters
        attrs += [key + word[:k] for k, key in enumerate(prefixes, 1) if k <= len(word)]
        attrs += [key + word[-k:] for k, key in enumerate(suffixes, 1) if k <= len(word)]
        out.append(attrs)
    return out


def sentence_attributes(
    sentence: Sequence[str], config: FeatureConfig = FeatureConfig()
) -> tuple[tuple[str, ...], ...]:
    """Binarized attribute sets for every position of a sentence, each sorted:
    the sorted form of attribute_lists."""
    return tuple(tuple(sorted(attrs)) for attrs in attribute_lists(sentence, config))
