import hashlib
import json
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nagatag.corpus import Sentence, TaggedCorpus, TagSet, read_corpus, serialize_tagged
from nagatag.datagen import (
    CHAIN_TAGS,
    DEFAULT_SUFFIX_RULE,
    PUNCT_TAG,
    SynthConfig,
    config_header,
    generate,
    transition_matrix,
)
from nagatag.phonotactics import draw_word, to_ascii
from tests.helpers import recover_tag

TAGSET = TagSet()


def test_default_rule_covers_all_tags_without_overlap():
    assert sorted(DEFAULT_SUFFIX_RULE.values()) == sorted(TAGSET.names)
    markers = list(DEFAULT_SUFFIX_RULE)
    for a in markers:
        for b in markers:
            if a != b:
                assert not a.endswith(b)


def test_generate_is_byte_deterministic():
    config = SynthConfig(seed=42, n_sentences=30)
    first = serialize_tagged(generate(config), TAGSET)
    second = serialize_tagged(generate(config), TAGSET)
    assert first == second
    other = serialize_tagged(generate(SynthConfig(seed=43, n_sentences=30)), TAGSET)
    assert first != other


def test_sentence_shape():
    config = SynthConfig(seed=7, n_sentences=40, min_len=5, max_len=20)
    corpus = generate(config)
    assert len(corpus) == 40
    sym = TAGSET.index("SYM")
    for sentence in corpus:
        content = sentence.tags()[:-1]
        assert 5 <= len(content) <= 20
        assert sentence.words()[-1] == "." and sentence.tags()[-1] == sym
        # punctuation only at the end under the default rule
        for tag in content:
            assert tag != sym


def test_tags_recoverable_from_longest_marker():
    config = SynthConfig(seed=11, n_sentences=50)
    corpus = generate(config)
    for sentence in corpus:
        for word, tag in zip(sentence.words(), sentence.tags()):
            assert recover_tag(word, config.suffix_rule) == TAGSET.name(tag)


def test_recover_tag_errors_without_match():
    with pytest.raises(ValueError):
        recover_tag("xyz", {"na": "N"})


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_sentences=0)
    with pytest.raises(ValueError):
        SynthConfig(min_len=0)
    with pytest.raises(ValueError):
        SynthConfig(min_len=10, max_len=5)


def test_transition_matrix_is_stochastic():
    for k in (1, 2, 5, 14):
        rows = transition_matrix(k)
        for row in rows:
            assert len(row) == k
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
            assert all(p > 0 for p in row)
    with pytest.raises(ValueError):
        transition_matrix(0)


def test_tag_distribution_approaches_stationary():
    # 4200 sentences x 12 content tokens = 50,400 chain draws
    config = SynthConfig(seed=5, n_sentences=4200, min_len=12, max_len=12)
    corpus = generate(config)
    counts = dict.fromkeys(CHAIN_TAGS, 0)
    total = 0
    for sentence in corpus:
        for tag in sentence.tags()[:-1]:
            counts[TAGSET.name(tag)] += 1
            total += 1
    assert total >= 50_000
    empirical = np.array([counts[t] / total for t in CHAIN_TAGS])

    P = np.array(transition_matrix(len(CHAIN_TAGS)))
    eigvals, eigvecs = np.linalg.eig(P.T)
    idx = int(np.argmin(np.abs(eigvals - 1.0)))
    stationary = np.real(eigvecs[:, idx])
    stationary /= stationary.sum()

    total_variation = 0.5 * float(np.abs(empirical - stationary).sum())
    assert total_variation <= 0.05


def test_config_header_round_trips(tmp_path):
    config = SynthConfig(seed=9, n_sentences=15)
    header = config_header(config)
    doc = json.loads(header)
    assert doc["seed"] == 9
    assert doc["n_sentences"] == 15
    assert doc["tagset"] == list(TAGSET.names)
    assert doc["suffix_rule"] == config.suffix_rule

    corpus = generate(config)
    path = str(tmp_path / "synth.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n" + serialize_tagged(corpus, TAGSET))
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().startswith("# {")
    assert read_corpus(path, TAGSET) == corpus


# sha256 of serialize_tagged(generate(config)). A change to the generator
# that is meant to leave its output alone must keep these; one that changes
# the output on purpose updates them and says so.
PINNED_DIGESTS = [
    pytest.param(
        SynthConfig(seed=7, n_sentences=1000),
        "d7f010d2a3ee4160127abab018a4618495bfde4548ea894aab7def3aa9acd654",
        id="seed7-len5-20",
    ),
    pytest.param(
        SynthConfig(seed=11, n_sentences=2300, min_len=19, max_len=19),
        "db4b4b8a00a979cd8823bc0b655001039f66baa3e953407aa8daa5803fc9b239",
        id="seed11-len19",
    ),
    pytest.param(
        SynthConfig(seed=3, n_sentences=200, min_len=1, max_len=1),
        "cd31e93415f85721696b4a473698f85e2d30164baa5f62b36df31cfc9ede180a",
        id="seed3-len1",
    ),
    pytest.param(
        SynthConfig(seed=5, n_sentences=200, min_len=1, max_len=40),
        "3ab5a5251a9f8030a0f0b97614d195628d8db51bb254fee3e28fbf9be4ba1b4d",
        id="seed5-len1-40",
    ),
]


@pytest.mark.parametrize("config, digest", PINNED_DIGESTS)
def test_generated_corpus_is_pinned(config, digest):
    text = serialize_tagged(generate(config), TAGSET)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _generate_oracle(config: SynthConfig) -> TaggedCorpus:
    """The reference for generate: every draw through random.Random's own
    randint, randrange and choices, and every stem through draw_word and
    to_ascii."""
    rng = random.Random(config.seed)
    chain = [t for t in config.tagset if t != PUNCT_TAG]
    marker_for = {tag: marker for marker, tag in DEFAULT_SUFFIX_RULE.items()}
    states = list(range(len(chain)))
    cum_weights = [list(accumulate(row)) for row in transition_matrix(len(chain))]
    markers = [marker_for[tag_name] for tag_name in chain]
    tag_indices = [config.tagset.index(tag_name) for tag_name in chain]
    punct_word = marker_for[PUNCT_TAG]
    punct_tag = config.tagset.index(PUNCT_TAG)
    randint, choices = rng.randint, rng.choices

    state: int | None = None
    sentences = []
    for _ in range(config.n_sentences):
        length = randint(config.min_len, config.max_len)
        words, tags = [], []
        for _ in range(length):
            if state is None:
                state = rng.randrange(len(chain))
            else:
                state = choices(states, cum_weights=cum_weights[state])[0]
            stem = to_ascii(draw_word(rng, randint(1, 3)))
            words.append(stem + markers[state])
            tags.append(tag_indices[state])
        sentences.append(Sentence((*words, punct_word), (*tags, punct_tag)))
    return TaggedCorpus(tuple(sentences))


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**64),
    n_sentences=st.integers(1, 30),
    lengths=st.lists(st.integers(1, 25), min_size=2, max_size=2).map(sorted),
)
@example(seed=0, n_sentences=1, lengths=[1, 1])
@example(seed=3, n_sentences=30, lengths=[25, 25])
@example(seed=2**64, n_sentences=30, lengths=[1, 25])
def test_generate_draws_what_the_call_by_call_oracle_draws(seed, n_sentences, lengths):
    config = SynthConfig(seed=seed, n_sentences=n_sentences, min_len=lengths[0],
                         max_len=lengths[1])
    assert generate(config) == _generate_oracle(config)
