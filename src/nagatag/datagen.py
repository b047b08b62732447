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
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import ClassVar

from nagatag.corpus import Sentence, TaggedCorpus, TagSet
from nagatag.phonotactics import draw_word, to_ascii

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


def recover_tag(word: str, suffix_rule: dict[str, str]) -> str:
    """Tag by the longest marker that suffixes the word."""
    best = None
    for marker, tag in suffix_rule.items():
        if word.endswith(marker) and (best is None or len(marker) > len(best[0])):
            best = (marker, tag)
    if best is None:
        raise ValueError(f"no suffix marker matches {word!r}")
    return best[1]


def generate(config: SynthConfig) -> TaggedCorpus:
    """Deterministic corpus for the config; see the module docstring.

    min_len..max_len bounds the content tokens per sentence; the final
    punctuation token is appended on top of that.
    """
    rng = random.Random(config.seed)
    chain = config.chain_tags()
    marker_for = config.marker_for()
    probs = transition_matrix(len(chain))
    states = list(range(len(chain)))
    punct_word = marker_for[PUNCT_TAG]
    punct_tag = config.tagset.index(PUNCT_TAG)

    state: int | None = None
    sentences = []
    for _ in range(config.n_sentences):
        length = rng.randint(config.min_len, config.max_len)
        words, tags = [], []
        for _ in range(length):
            if state is None:
                state = rng.randrange(len(chain))
            else:
                state = rng.choices(states, weights=probs[state])[0]
            tag_name = chain[state]
            stem = to_ascii(draw_word(rng, rng.randint(1, 3)))
            words.append(stem + marker_for[tag_name])
            tags.append(config.tagset.index(tag_name))
        sentences.append(Sentence((*words, punct_word), (*tags, punct_tag)))
    return TaggedCorpus(tuple(sentences))


def config_header(config: SynthConfig) -> str:
    """One-line JSON echo of the config, for the corpus file's # header."""
    fixed = {"tagset": list(config.tagset.names), "suffix_rule": config.suffix_rule}
    return json.dumps(asdict(config) | fixed, ensure_ascii=False)
