"""Per-token feature template and its expansion into binary attributes.

Every token yields the same ordered template: the word itself, whether it
is first or last in the sentence, six shape predicates (capitalized, all
caps, all lower, capitals inside, hyphen, numeric), the previous and next
words, then its prefixes of up to 3 and suffixes of up to 4 characters. The
template has no settings: the affix lengths are FeatureConfig's constants,
which the model file records. The CRF consumes these as "key=value"
indicator strings, so a token's observable content is exactly its attribute
set.

The template has one writing, attribute_families, which training, tagging
and the features command read. It goes over a whole input one attribute
family at a time. A family is every attribute that shares a key, the part up
to and including the "=" ("word=", "is_first=", "prefix-2=", ...). It comes
as the tokens that have one, a code per token and the distinct values the
codes index, so that each value is encoded once however many tokens hold it.
The template is computed once per word type, not per token: a word that
recurs is featurized once, each flag has two values and each affix family
far fewer values than there are tokens. No per-token attribute string is
built. Families come in increasing key order and no key is a prefix of
another, so key order, then value order within a family, is the sorted order
of the "key=value" strings. The tests hold it to a per-token oracle, one
feature map per token, which the program does not use.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from nagatag._lazy import lazy

np = lazy("numpy")

# (key, tokens, codes, values): every attribute "key" + values[codes[i]] of
# token tokens[i], with values distinct
Family = tuple[str, Sequence[int], Sequence[int], Sequence[str]]
FLAG = ("false", "true")  # the values of every flag family, false coded 0


@dataclass(frozen=True)
class FeatureConfig:
    """Longest prefix and suffix, in characters, that the template emits:
    constants, not settings."""

    prefix_max: ClassVar[int] = 3
    suffix_max: ClassVar[int] = 4


def attribute_families(sentences: Sequence[Sequence[str]]) -> Iterator[Family]:
    """The template over a whole input, one family at a time, in increasing
    key order: (key, tokens, codes, values), where tokens counts the input's
    tokens sentence after sentence, the value at tokens[i] is
    values[codes[i]], and a family's values are distinct. A token has at most
    one value per family: word=, is_first=, is_last=, the six flags,
    prev_word= and next_word= at every token, and prefix-k= and suffix-k=
    where the word has k characters. Rendered at one position, key + value
    over the families is that token's sorted attribute set.

    The words are numbered by type once, and every family is computed per
    type, then spread to the tokens by those numbers: word=, prev_word= and
    next_word= are the type numbers themselves, shifted for the neighbours,
    with the code of "" at sentence edges (a word's own code where "" is a
    word). The flags have the values ("false", "true"). prefix-k and suffix-k
    go longest k first, each shorter one cut from the distinct values of the
    next longer one and the types of exactly k characters. Each family's
    tokens and codes are made only when the caller asks for it."""
    words = list(itertools.chain.from_iterable(sentences))
    types, ids = _factorize(words, len(words))
    type_lengths = np.fromiter(map(len, types), np.intp, len(types))
    lengths = type_lengths[ids]
    lower = list(map(str.islower, types))
    every = np.arange(len(words))
    sizes = np.fromiter(map(len, sentences), np.intp, len(sentences))
    ends = np.cumsum(sizes)
    firsts = (ends - sizes)[sizes > 0]
    lasts = ends[sizes > 0] - 1
    # the neighbours' values: the types, and "" for the sentence edges where it is none
    if 0 in type_lengths:
        neighbours, edge = types, int(np.argmin(type_lengths))
    else:
        neighbours, edge = [*types, ""], len(types)

    def shifted(by: int, at: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[str]]:
        codes = np.roll(ids, by)
        codes[at] = edge
        return every, codes, neighbours

    def edge_flag(at: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[str, str]]:
        codes = np.zeros(len(words), np.intp)
        codes[at] = 1
        return every, codes, FLAG

    def flag(per_type: Iterable[bool]) -> tuple[np.ndarray, np.ndarray, tuple[str, str]]:
        return every, np.fromiter(per_type, np.intp, len(types))[ids], FLAG

    families: dict[str, Callable[[], tuple[np.ndarray, np.ndarray, Sequence[str]]]] = {
        "word=": lambda: (every, ids, types),
        "is_first=": lambda: edge_flag(firsts),
        "is_last=": lambda: edge_flag(lasts),
        "is_capitalized=": lambda: flag(
            map(str.isupper, map(operator.itemgetter(slice(1)), types))),
        "is_all_caps=": lambda: flag(map(str.isupper, types)),
        "is_all_lower=": lambda: flag(lower),
        # a word or rest that is all lower holds no capital: the test of each
        # character runs only where it might find one
        "capitals_inside=": lambda: flag([
            not low and not w[1:].islower() and any(map(str.isupper, w[1:]))
            for w, low in zip(types, lower)]),
        "has_hyphen=": lambda: flag(map(operator.contains, types, itertools.repeat("-"))),
        "is_numeric=": lambda: flag(map(str.isdecimal, types)),
        "prev_word=": lambda: shifted(1, firsts),
        "next_word=": lambda: shifted(-1, lasts),
    }

    def affix(k: int, codes: np.ndarray,
              values: list[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
        # prefix-k and suffix-k only where the word has k characters
        tokens = np.flatnonzero(lengths >= k)
        return tokens, codes[ids[tokens]], values

    # keys only up to the longest word
    longest = int(type_lengths.max(initial=0))
    for name, k_max in (("prefix", FeatureConfig.prefix_max),
                        ("suffix", FeatureConfig.suffix_max)):
        k_max = min(k_max, longest)
        codes, values = np.full(len(types), -1), []  # per type, its affix's code or -1
        for k in range(k_max, 0, -1):
            cut = operator.itemgetter(slice(k) if name == "prefix" else slice(-k, None))
            fresh = type_lengths >= k if k == k_max else type_lengths == k
            n_fresh = int(np.count_nonzero(fresh))
            longer = codes >= 0
            # the longer affixes' values, then the fresh types, cut to k
            values, step = _factorize(itertools.chain(
                map(cut, values), map(cut, itertools.compress(types, fresh.tolist()))),
                len(values) + n_fresh)
            codes, previous = np.full(len(types), -1), codes
            codes[longer] = step[previous[longer]]
            codes[fresh] = step[len(step) - n_fresh:]
            families[f"{name}-{k}="] = functools.partial(affix, k, codes, values)
    for key in sorted(families):
        yield key, *families[key]()


def _factorize(items: Iterable[str], n: int) -> tuple[list[str], np.ndarray]:
    """The distinct values among n items, in first-seen order, and each
    item's place among them, from one dict pass: setdefault keeps each
    value's first position, and the first positions are counted in order."""
    first: dict[str, int] = {}
    at = np.fromiter(map(first.setdefault, items, itertools.count()), np.intp, n)
    return list(first), (np.cumsum(at == np.arange(n)) - 1)[at]

