"""Annotated corpus handling: the word/TAG file format, tagsets, splits,
tag statistics and inter-annotator agreement.

A corpus file is UTF-8 text with one sentence per line and tokens separated
by whitespace. Each token is ``word/TAG``; the *last* slash separates word
from tag so words may themselves contain slashes. Blank lines separate
sentences and lines starting with ``#`` are comments (the synthetic
generator writes its config as such a header). Every tag must belong to the
tagset: an unknown tag is always a CorpusError, never relabelled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The 15-tag Nagamese tagset, in canonical order. Indices into this list are
# the integer tags used everywhere downstream.
DEFAULT_TAG_NAMES = (
    "ADJ", "ADV", "CONJ", "CMP", "DET", "PP", "INTJ", "N",
    "PN", "QN", "V", "FW", "SYM", "UNK", "NUM",
)


class CorpusError(ValueError):
    """Malformed corpus input; carries the 1-based line number."""

    def __init__(self, line_no: int, token: str, message: str):
        super().__init__(f"line {line_no}: {message} (token {token!r})")
        self.line_no = line_no
        self.token = token


@dataclass(frozen=True)
class TagSet:
    """Ordered, immutable inventory of tag names."""

    names: tuple[str, ...] = DEFAULT_TAG_NAMES

    def __post_init__(self):
        if not self.names:
            raise ValueError("tagset is empty")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate tag names")
        for name in self.names:
            if not name or not all("A" <= c <= "Z" for c in name):
                raise ValueError(f"tag name must be uppercase ASCII letters: {name!r}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        return self._index[name]

    def name(self, idx: int) -> str:
        return self.names[idx]

    @classmethod
    def from_file(cls, path: str) -> "TagSet":
        """One tag name per line; order defines indices."""
        with open(path, encoding="utf-8") as fh:
            names = [line.strip() for line in fh if line.strip()]
        return cls(tuple(names))


@dataclass(frozen=True)
class Token:
    word: str
    tag: int

    def __post_init__(self):
        if not self.word or any(c.isspace() for c in self.word):
            raise ValueError(f"token word must be non-empty without whitespace: {self.word!r}")
        if self.tag < 0:
            raise ValueError(f"negative tag index: {self.tag}")


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    def words(self) -> tuple[str, ...]:
        return tuple(t.word for t in self.tokens)

    def tags(self) -> tuple[int, ...]:
        return tuple(t.tag for t in self.tokens)


@dataclass(frozen=True)
class TaggedCorpus:
    sentences: tuple[Sentence, ...] = ()

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


@dataclass(frozen=True)
class AgreementReport:
    """Token-level disagreement between two annotations of the same text.

    ``rate_excluding`` removes disagreements whose *reference* tag is the
    excluded tag, but keeps the full token count as denominator.
    """

    total_tokens: int
    disagreed: int
    disagreed_on_excluded_tag: int

    def __post_init__(self):
        if not 0 <= self.disagreed_on_excluded_tag <= self.disagreed <= self.total_tokens:
            raise ValueError("inconsistent agreement counts")

    @property
    def rate(self) -> float:
        return self.disagreed / self.total_tokens

    @property
    def rate_excluding(self) -> float:
        return (self.disagreed - self.disagreed_on_excluded_tag) / self.total_tokens


def parse_tagged(text: str, tagset: TagSet) -> TaggedCorpus:
    """Parse word/TAG text into a corpus; a tag outside the tagset raises."""
    sentences = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        tokens = []
        for raw in line.split():
            word, sep, tag_name = raw.rpartition("/")
            if not sep:
                raise CorpusError(line_no, raw, "token has no '/' separator")
            if not word:
                raise CorpusError(line_no, raw, "empty word part")
            if not tag_name:
                raise CorpusError(line_no, raw, "empty tag part")
            if tag_name not in tagset:
                raise CorpusError(line_no, raw, f"tag {tag_name!r} not in tagset")
            tokens.append(Token(word, tagset.index(tag_name)))
        sentences.append(Sentence(tuple(tokens)))
    return TaggedCorpus(tuple(sentences))


def serialize_tagged(corpus: TaggedCorpus, tagset: TagSet) -> str:
    """Inverse of parse_tagged: one sentence per line, single spaces."""
    lines = [
        " ".join(f"{t.word}/{tagset.name(t.tag)}" for t in sentence.tokens)
        for sentence in corpus.sentences
    ]
    return "\n".join(lines) + "\n" if lines else ""


def tag_frequencies(corpus: TaggedCorpus, tagset: TagSet) -> dict[str, int]:
    """Count tokens per tag; every tagset tag is present, absent ones at 0."""
    counts = dict.fromkeys(tagset.names, 0)
    for sentence in corpus.sentences:
        for token in sentence.tokens:
            counts[tagset.name(token.tag)] += 1
    return counts


def split_corpus(
    corpus: TaggedCorpus, train_fraction: float, seed: int
) -> tuple[TaggedCorpus, TaggedCorpus]:
    """Sentence-level split after a seeded shuffle.

    floor(train_fraction * n) sentences go to train, the rest to test.
    The same seed always yields the same partition.
    """
    if not corpus.sentences:
        raise ValueError("cannot split an empty corpus")
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError(f"train_fraction must be in (0, 1]: {train_fraction}")
    order = list(range(len(corpus.sentences)))
    random.Random(seed).shuffle(order)
    n_train = int(train_fraction * len(order))
    train = tuple(corpus.sentences[i] for i in order[:n_train])
    test = tuple(corpus.sentences[i] for i in order[n_train:])
    return TaggedCorpus(train), TaggedCorpus(test)


def check_aligned(reference: TaggedCorpus, other: TaggedCorpus):
    """Raise ValueError unless both corpora hold the same words in the same
    sentences, so that token positions correspond one to one."""
    if len(reference.sentences) != len(other.sentences):
        raise ValueError(
            f"sentence count mismatch: {len(reference.sentences)} vs {len(other.sentences)}"
        )
    for i, (r, o) in enumerate(zip(reference.sentences, other.sentences)):
        if len(r) != len(o):
            raise ValueError(f"sentence {i}: length mismatch")
        for j, (rt, ot) in enumerate(zip(r.tokens, o.tokens)):
            if rt.word != ot.word:
                raise ValueError(
                    f"sentence {i}, token {j}: word mismatch {rt.word!r} vs {ot.word!r}"
                )


def agreement(
    reference: TaggedCorpus, other: TaggedCorpus, excluded_tag: int
) -> AgreementReport:
    """Compare two annotations of structurally identical text.

    Raises ValueError if the two corpora differ in sentence count, sentence
    length or any word, since token positions must correspond one to one.
    """
    check_aligned(reference, other)
    total = 0
    disagreed = 0
    disagreed_excluded = 0
    for ref_sent, other_sent in zip(reference.sentences, other.sentences):
        for ref_tok, other_tok in zip(ref_sent.tokens, other_sent.tokens):
            total += 1
            if ref_tok.tag != other_tok.tag:
                disagreed += 1
                if ref_tok.tag == excluded_tag:
                    disagreed_excluded += 1
    return AgreementReport(total, disagreed, disagreed_excluded)


def read_corpus(path: str, tagset: TagSet) -> TaggedCorpus:
    with open(path, encoding="utf-8") as fh:
        return parse_tagged(fh.read(), tagset)


def write_corpus(path: str, corpus: TaggedCorpus, tagset: TagSet):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_tagged(corpus, tagset))


def read_raw_sentences(path: str) -> list[tuple[str, ...]]:
    """Untagged input: one sentence per line, whitespace-tokenized."""
    with open(path, encoding="utf-8") as fh:
        return [
            tuple(line.split())
            for line in fh.read().splitlines()
            if line.strip() and not line.startswith("#")
        ]
