"""Seeded synthetic annotated-corpus generator with a known tagging rule.

Each word is a pronounceable stem (1-3 syllables from the phonotactic
generator, ASCII-transliterated) plus a tag-identifying suffix marker, so
gold tags are recoverable from suffix features alone and a suffix-aware
tagger can learn the task essentially perfectly. Tags follow a fixed
first-order Markov chain that persists across sentence boundaries; every
sentence ends with the SYM punctuation marker. The tagset (the default
15 tags) and the suffix rule (DEFAULT_SUFFIX_RULE, one marker per tag) are
fixed; a config sets only the seed, the sentence count and the length
range. Everything is driven by one seeded rng, so a config maps to exactly
one corpus.

The rng is drawn as `random.Random`'s `randint`, `choice` and `choices`
would draw it, without calling them: each uniform draw (a sentence length, a
stem's syllable count, its template and phonemes) is one `getrandbits` into
a power-of-two table padded with None (phonotactics._draw_parts says why
that is the same draw), and each tag transition bisects the state's
cumulative weights at `random() * total`, as `choices` does. The phoneme
tables hold the ASCII spellings, so a stem is spelt as it is drawn. A
corpus is thus the one those calls would give, byte for byte, and
`tests/test_datagen.py` holds `generate` to the call-by-call version.
"""

from __future__ import annotations

import json
import random
from bisect import bisect
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import ClassVar

from nagatag.corpus import Sentence, TaggedCorpus, TagSet
from nagatag.phonotactics import CONSONANTS, VOWELS, _draw_parts, _table, to_ascii

# One 2-letter marker per non-punctuation tag; equal-length distinct strings
# can never be suffixes of each other, and "." never terminates a stem.
DEFAULT_SUFFIX_RULE = {
    "aj": "ADJ", "av": "ADV", "co": "CONJ", "cm": "CMP", "de": "DET",
    "pi": "PP", "in": "INTJ", "na": "N", "pe": "PN", "qu": "QN",
    "vi": "V", "fo": "FW", ".": "SYM", "uk": "UNK", "nu": "NUM",
}

PUNCT_TAG = "SYM"


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_sentences: int = 100
    min_len: int = 5
    max_len: int = 20
    tagset: ClassVar[TagSet] = TagSet()
    suffix_rule: ClassVar[dict[str, str]] = DEFAULT_SUFFIX_RULE

    def __post_init__(self):
        if self.n_sentences < 1:
            raise ValueError(f"n_sentences must be >= 1: {self.n_sentences}")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError(f"bad length range: {self.min_len}..{self.max_len}")

    def chain_tags(self) -> list[str]:
        """Markov chain states: the non-punctuation tags, in tagset order."""
        return [t for t in self.tagset if t != PUNCT_TAG]

    def marker_for(self) -> dict[str, str]:
        return {tag: marker for marker, tag in self.suffix_rule.items()}


def transition_matrix(k: int) -> list[list[float]]:
    """Fixed chain: every move possible, with boosted i->i+1 and i->i+3."""
    if k < 1:
        raise ValueError("need at least one chain state")
    rows = []
    for i in range(k):
        row = [1.0] * k
        row[(i + 1) % k] += 3.0
        row[(i + 3) % k] += 2.0
        total = sum(row)
        rows.append([w / total for w in row])
    return rows


def generate(config: SynthConfig) -> TaggedCorpus:
    """Deterministic corpus for the config; see the module docstring.

    min_len..max_len bounds the content tokens per sentence; the final
    punctuation token is appended on top of that.
    """
    rng = random.Random(config.seed)
    getrandbits, draw = rng.getrandbits, rng.random
    chain = config.chain_tags()
    marker_for = config.marker_for()
    # Per chain state: the cumulative weights `choices(weights=row)` would
    # accumulate on every draw, their total, the state's marker and its tag index.
    cum_weights = [list(accumulate(row)) for row in transition_matrix(len(chain))]
    totals = [cw[-1] + 0.0 for cw in cum_weights]
    last = len(chain) - 1
    markers = [marker_for[tag_name] for tag_name in chain]
    tag_indices = [config.tagset.index(tag_name) for tag_name in chain]
    punct_word = marker_for[PUNCT_TAG]
    punct_tag = config.tagset.index(PUNCT_TAG)
    # `randint`'s and `choice`'s draws as tables (see phonotactics._draw_parts),
    # the phonemes spelt in ASCII: to_ascii maps one phoneme at a time
    k_length, lengths = _table(range(config.min_len, config.max_len + 1))
    k_count, counts = _table((1, 2, 3))
    vowels, consonants = (_table(to_ascii((p,)) for p in phonemes)
                          for phonemes in (VOWELS, CONSONANTS))

    state: int | None = None
    sentences = []
    for _ in range(config.n_sentences):
        length = lengths[getrandbits(k_length)]
        while length is None:
            length = lengths[getrandbits(k_length)]
        words, tags = [], []
        for _ in range(length):
            if state is None:
                state = rng.randrange(len(chain))
            else:  # choices(range(len(chain)), cum_weights=cum_weights[state])[0]
                state = bisect(cum_weights[state], draw() * totals[state], 0, last)
            count = counts[getrandbits(k_count)]
            while count is None:
                count = counts[getrandbits(k_count)]
            parts = _draw_parts(rng, count, vowels, consonants)
            parts.append(markers[state])
            words.append("".join(parts))
            tags.append(tag_indices[state])
        sentences.append(Sentence((*words, punct_word), (*tags, punct_tag)))
    return TaggedCorpus(tuple(sentences))


def config_header(config: SynthConfig) -> str:
    """One-line JSON echo of the config, for the corpus file's # header."""
    fixed = {"tagset": list(config.tagset.names), "suffix_rule": config.suffix_rule}
    return json.dumps(asdict(config) | fixed, ensure_ascii=False)
