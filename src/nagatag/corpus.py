"""Annotated corpus handling: the word/TAG file format, tagsets, splits,
tag statistics and inter-annotator agreement.

A corpus file is UTF-8 text with one sentence per line and tokens separated
by whitespace. Each token is ``word/TAG``; the *last* slash separates word
from tag so words may themselves contain slashes. Blank lines separate
sentences, and a line whose first non-blank character is ``#`` is a comment
(the synthetic generator writes its config as such a header). Every tag must
belong to the tagset: an unknown tag is always a CorpusError, never
relabelled.

In memory a Sentence is two tuples of equal length, its words and their
integer tags (indices into the tagset), and a TaggedCorpus is a tuple of
sentences; no object is made per token.
"""

from __future__ import annotations

import os
import random
import secrets
import stat
from collections import Counter
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
class Sentence:
    """A sentence is its words and their tags, two tuples of equal length
    given positionally: Sentence(words, tags)."""

    _words: tuple[str, ...]
    _tags: tuple[int, ...]

    def __post_init__(self):
        if not self._words:
            raise ValueError("sentence must contain at least one token")
        if len(self._tags) != len(self._words):
            raise ValueError(f"{len(self._words)} words for {len(self._tags)} tags")
        # Splitting the space-joined words gives the words back exactly when
        # none is empty or holds whitespace; the loop only names the first
        # word that does not.
        if " ".join(self._words).split() != list(self._words):
            for word in self._words:
                if not word or word.split() != [word]:
                    raise ValueError(f"token word must be non-empty without whitespace: {word!r}")
        if min(self._tags) < 0:
            raise ValueError(f"negative tag index: {min(self._tags)}")

    def __len__(self) -> int:
        return len(self._words)

    def words(self) -> tuple[str, ...]:
        return self._words

    def tags(self) -> tuple[int, ...]:
        return self._tags


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
    """Disagreement at the token level between two annotations of the same text.

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


def _is_comment(line: str) -> bool:
    """A line of a corpus or raw file is a comment when its first non-blank
    character is '#'. Words hold no whitespace, so these are exactly the
    lines whose first word starts with '#'."""
    return line.lstrip().startswith("#")


def parse_tagged(text: str, tagset: TagSet) -> TaggedCorpus:
    """Parse word/TAG text into a corpus; a tag outside the tagset raises."""
    sentences = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or _is_comment(line):
            continue
        words, tags = [], []
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
            words.append(word)
            tags.append(tagset.index(tag_name))
        sentences.append(Sentence(tuple(words), tuple(tags)))
    return TaggedCorpus(tuple(sentences))


def serialize_tagged(corpus: TaggedCorpus, tagset: TagSet) -> str:
    """Inverse of parse_tagged: one sentence per line, single spaces. A
    sentence whose first word starts with '#' would read back as a comment
    line, so it raises ValueError rather than being lost."""
    lines = []
    for i, sentence in enumerate(corpus.sentences):
        words = sentence.words()
        if _is_comment(words[0]):
            raise ValueError(
                f"sentence {i}: first word {words[0]!r} starts with '#' and would read as a comment"
            )
        lines.append(" ".join(f"{w}/{tagset.name(t)}" for w, t in zip(words, sentence.tags())))
    return "\n".join(lines) + "\n" if lines else ""


def tag_frequencies(corpus: TaggedCorpus, tagset: TagSet) -> dict[str, int]:
    """Count tokens per tag; every tagset tag is present, absent ones at 0."""
    counts = dict.fromkeys(tagset.names, 0)
    for sentence in corpus.sentences:
        for tag in sentence.tags():
            counts[tagset.name(tag)] += 1
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


def tag_pairs(reference: TaggedCorpus, other: TaggedCorpus) -> Counter[tuple[int, int]]:
    """Count the (reference tag, other tag) pair at every token position of
    two annotations of the same text; agreement and confusion read this one
    table. Raises ValueError unless both hold the same words in the same
    sentences, so that token positions correspond one to one."""
    if len(reference.sentences) != len(other.sentences):
        raise ValueError(
            f"sentence count mismatch: {len(reference.sentences)} vs {len(other.sentences)}"
        )
    pairs: Counter[tuple[int, int]] = Counter()
    for i, (r, o) in enumerate(zip(reference.sentences, other.sentences)):
        if len(r) != len(o):
            raise ValueError(f"sentence {i}: length mismatch")
        rw, ow = r.words(), o.words()
        if rw != ow:
            j = next(j for j in range(len(rw)) if rw[j] != ow[j])
            raise ValueError(f"sentence {i}, token {j}: word mismatch {rw[j]!r} vs {ow[j]!r}")
        pairs.update(zip(r.tags(), o.tags()))
    return pairs


def agreement(
    reference: TaggedCorpus, other: TaggedCorpus, excluded_tag: int
) -> AgreementReport:
    """Compare two annotations of structurally identical text.

    Raises ValueError if the two corpora differ in sentence count, sentence
    length or any word, since token positions must correspond one to one,
    and if they hold no tokens, since the rates would divide by zero.
    """
    pairs = tag_pairs(reference, other)
    if not pairs:
        raise ValueError("cannot report agreement on corpora with no tokens")
    disagreed = {(r, o): n for (r, o), n in pairs.items() if r != o}
    return AgreementReport(
        pairs.total(),
        sum(disagreed.values()),
        sum(n for (r, _), n in disagreed.items() if r == excluded_tag),
    )


def read_corpus(path: str, tagset: TagSet) -> TaggedCorpus:
    with open(path, encoding="utf-8") as fh:
        return parse_tagged(fh.read(), tagset)


def write_corpus(path: str, corpus: TaggedCorpus, tagset: TagSet):
    """Write the corpus with write_text, so a corpus that cannot be written
    leaves the file as it was."""
    write_text(path, serialize_tagged(corpus, tagset))


def write_text(path: str, text: str):
    """Write text to path as UTF-8 so that the file holds the old text or
    the new, never part of one: the text goes to a temporary file in the
    target's directory, which os.replace then puts in the target's place. The
    temporary file is removed if the write fails. A symlink is followed, so
    the file it names is replaced and the link stays. An existing target
    keeps its permission bits, which the temporary file has from its
    creation; a new one gets those open would give it. The replaced file is a
    new inode, owned by the writer: the old file's owner, group, ACLs and
    other hard links are not carried over. A target that is not a regular
    file, such as /dev/null, a FIFO or a pipe named by /dev/fd/N, is written
    in place, since os.replace would put a regular file in its stead; it is
    told apart by stat on the path itself, which follows /proc's links to
    pipes that realpath cannot. Nothing is fsynced: this guards against a
    failed write, not against a crash of the machine."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    target = os.path.realpath(path)
    temp = os.path.join(os.path.dirname(target), f".nagatag-{secrets.token_hex(8)}.tmp")
    permissions = 0o666 if mode is None else stat.S_IMODE(mode)
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, permissions)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        if mode is not None:
            os.chmod(temp, permissions)  # undo the umask
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def read_raw_sentences(path: str) -> list[tuple[str, ...]]:
    """Untagged input: one sentence per line, whitespace-tokenized."""
    with open(path, encoding="utf-8") as fh:
        return [
            tuple(line.split())
            for line in fh.read().splitlines()
            if line.strip() and not _is_comment(line)
        ]
