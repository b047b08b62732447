import random
import string

from nagatag.corpus import Sentence, TaggedCorpus, TagSet


def make_random_corpus(
    rng: random.Random,
    tagset: TagSet,
    n_sentences: int,
    max_len: int = 8,
) -> TaggedCorpus:
    """Small random corpus for round-trip and split tests."""
    sentences = []
    for _ in range(n_sentences):
        n = rng.randint(1, max_len)
        words, tags = [], []
        for _ in range(n):
            words.append("".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 6))))
            tags.append(rng.randrange(len(tagset)))
        sentences.append(Sentence(tuple(words), tuple(tags)))
    return TaggedCorpus(tuple(sentences))
