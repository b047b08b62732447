import json

import numpy as np
import pytest

from nagatag.corpus import TagSet, read_corpus, serialize_tagged
from nagatag.datagen import (
    DEFAULT_SUFFIX_RULE,
    SynthConfig,
    config_header,
    generate,
    recover_tag,
    transition_matrix,
)

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
    chain = config.chain_tags()
    counts = dict.fromkeys(chain, 0)
    total = 0
    for sentence in corpus:
        for tag in sentence.tags()[:-1]:
            counts[TAGSET.name(tag)] += 1
            total += 1
    assert total >= 50_000
    empirical = np.array([counts[t] / total for t in chain])

    P = np.array(transition_matrix(len(chain)))
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
