"""Per-token feature template and its expansion into binary attributes.

Every token yields the same ordered template: the word itself, whether it
is first or last in the sentence, six shape predicates (capitalized, all
caps, all lower, capitals inside, hyphen, numeric), the previous and next
words, then its prefixes and suffixes up to ``prefix_max``/``suffix_max``
characters. The affix lengths are the only settings; the model file records
them. The CRF consumes these as "key=value" indicator strings, so a token's
observable content is exactly its attribute set.

There is one template, written twice. extract_token_features builds the
feature map of one token, which binarize renders; sentence_attributes does so
at every position of a sentence. That is the oracle the tests hold the second
writing to, attribute_families, which training and tagging read. It goes over
a whole input one attribute family at a time. A family is every attribute
that shares a key, the part up to and including the "=" ("word=",
"is_first=", "prefix-2=", ...), and it comes as the tokens that have one and
their values: the words themselves for word=, prev_word= and next_word=, one
shared "true" or "false" object per flag, and the affix slices. No per-token
attribute string is built. Families come in increasing key order and no key
is a prefix of another, so key order, then value order within a family, is
the sorted order of the "key=value" strings.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

FeatureMap = dict[str, "bool | str"]
# (key, tokens, values): every attribute "key" + values[i] of token tokens[i]
Family = tuple[str, Sequence[int], Sequence[str]]
_FLAG = ("false", "true")  # one shared object per flag value


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


def attribute_families(
    sentences: Sequence[Sequence[str]], config: FeatureConfig = FeatureConfig()
) -> Iterator[Family]:
    """The template over a whole input, one family at a time, in increasing
    key order: (key, tokens, values), where tokens counts the input's tokens
    sentence after sentence and values[i] is the value at tokens[i]. A token
    has at most one value per family, so rendered at one position,
    key + value over the families gives the sorted
    binarize(extract_token_features(sentence, t, config)). Each family's
    values are made only when the caller asks for it."""
    words = list(itertools.chain.from_iterable(sentences))
    lengths = np.fromiter(map(len, words), np.intp, len(words))
    every = np.arange(len(words))
    ends = list(itertools.accumulate(map(len, sentences)))
    firsts = [end - len(s) for end, s in zip(ends, sentences) if s]
    lasts = [end - 1 for end, s in zip(ends, sentences) if s]

    def edge(at: list[int], inside: list[str], outside: str) -> tuple[np.ndarray, list[str]]:
        for t in at:
            inside[t] = outside
        return every, inside

    def affix(k: int, cut: slice) -> tuple[np.ndarray, list[str]]:
        # prefix-k and suffix-k only where the word has k characters
        return np.flatnonzero(lengths >= k), [w[cut] for w in words if len(w) >= k]

    families: dict[str, Callable[[], tuple[np.ndarray, list[str]]]] = {
        "word=": lambda: (every, words),
        "is_first=": lambda: edge(firsts, [_FLAG[False]] * len(words), _FLAG[True]),
        "is_last=": lambda: edge(lasts, [_FLAG[False]] * len(words), _FLAG[True]),
        "is_capitalized=": lambda: (every, [_FLAG[w[:1].isupper()] for w in words]),
        "is_all_caps=": lambda: (every, [_FLAG[w.isupper()] for w in words]),
        "is_all_lower=": lambda: (every, [_FLAG[w.islower()] for w in words]),
        # a rest that is all lower holds no capital: the test of each
        # character runs only where it might find one
        "capitals_inside=": lambda: (every, [
            _FLAG[not w[1:].islower() and any(map(str.isupper, w[1:]))] for w in words]),
        "has_hyphen=": lambda: (every, [_FLAG["-" in w] for w in words]),
        "is_numeric=": lambda: (every, [_FLAG[w.isdecimal()] for w in words]),
        "prev_word=": lambda: edge(firsts, ([""] + words)[:len(words)], ""),
        "next_word=": lambda: edge(lasts, (words + [""])[1:], ""),
    }
    # keys only up to the longest word: a model file may ask for 10**12
    longest = int(lengths.max(initial=0))
    for k in range(1, min(config.prefix_max, longest) + 1):
        families[f"prefix-{k}="] = functools.partial(affix, k, slice(k))
    for k in range(1, min(config.suffix_max, longest) + 1):
        families[f"suffix-{k}="] = functools.partial(affix, k, slice(-k, None))
    for key in sorted(families):
        yield key, *families[key]()


def sentence_attributes(
    sentence: Sequence[str], config: FeatureConfig = FeatureConfig()
) -> tuple[tuple[str, ...], ...]:
    """Binarized attribute sets for every position of a sentence, each sorted:
    the oracle, one feature map per token."""
    return tuple(binarize(extract_token_features(sentence, t, config))
                 for t in range(len(sentence)))
