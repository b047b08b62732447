import random

import pytest

from nagatag.corpus import (
    DEFAULT_TAG_NAMES,
    AgreementReport,
    CorpusError,
    Sentence,
    TaggedCorpus,
    TagSet,
    Token,
    agreement,
    parse_tagged,
    serialize_tagged,
    split_corpus,
    tag_frequencies,
)
from tests.conftest import make_random_corpus

TAGSET = TagSet()

# Three Nagamese sentences, hand-tagged. 20 tokens total.
SAMPLE = (
    'Titia/ADV Isor/N koise/V ,/SYM "/SYM Ujala/N hobole/V dibi/V ./SYM "/SYM\n'
    "Aru/CONJ Ujala/N hoise/V ./SYM\n"
    "Itu/ADJ dikhikena/V Isor/N khusi/ADJ lagise/V ./SYM\n"
)


def test_default_tagset_order():
    assert TAGSET.names == (
        "ADJ", "ADV", "CONJ", "CMP", "DET", "PP", "INTJ", "N",
        "PN", "QN", "V", "FW", "SYM", "UNK", "NUM",
    )
    assert len(TAGSET) == 15
    for i, name in enumerate(TAGSET):
        assert TAGSET.index(name) == i
        assert TAGSET.name(i) == name


def test_tagset_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError):
        TagSet(("N", "V", "N"))
    with pytest.raises(ValueError):
        TagSet(("N", "v2"))
    with pytest.raises(ValueError):
        TagSet(("N", ""))


def test_tagset_from_file(tmp_path):
    p = tmp_path / "tags.txt"
    p.write_text("N\nV\nSYM\n\n", encoding="utf-8")
    ts = TagSet.from_file(str(p))
    assert ts.names == ("N", "V", "SYM")


def test_parse_sample_structure():
    corpus = parse_tagged(SAMPLE, TAGSET)
    assert len(corpus) == 3
    assert [len(s) for s in corpus] == [10, 4, 6]
    assert corpus.token_count == 20
    first = corpus.sentences[0]
    assert first.tokens[0] == Token("Titia", TAGSET.index("ADV"))
    assert first.tokens[3] == Token(",", TAGSET.index("SYM"))
    assert first.tokens[4] == Token('"', TAGSET.index("SYM"))
    assert corpus.sentences[1].words() == ("Aru", "Ujala", "hoise", ".")
    assert corpus.sentences[2].tags() == tuple(
        TAGSET.index(t) for t in ("ADJ", "V", "N", "ADJ", "V", "SYM")
    )


def test_parse_splits_on_last_slash():
    corpus = parse_tagged("km/h/N\n", TAGSET)
    assert corpus.sentences[0].tokens[0] == Token("km/h", TAGSET.index("N"))


def test_parse_skips_blank_and_comment_lines():
    text = "# header comment\n\nAru/CONJ\n   \n# another\nItu/ADJ\n"
    corpus = parse_tagged(text, TAGSET)
    assert len(corpus) == 2
    assert corpus.sentences[0].words() == ("Aru",)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CorpusError) as exc:
        parse_tagged("Aru/CONJ\nbroken\n", TAGSET)
    assert exc.value.line_no == 2
    assert exc.value.token == "broken"

    with pytest.raises(CorpusError) as exc:
        parse_tagged("/N\n", TAGSET)
    assert "empty word" in str(exc.value)

    with pytest.raises(CorpusError) as exc:
        parse_tagged("Aru/\n", TAGSET)
    assert "empty tag" in str(exc.value)


def test_unknown_tag_policies():
    text = "Aru/XYZ\n"
    with pytest.raises(CorpusError) as exc:
        parse_tagged(text, TAGSET)
    assert "XYZ" in str(exc.value)


def test_serialize_inverts_parse_on_sample():
    corpus = parse_tagged(SAMPLE, TAGSET)
    assert serialize_tagged(corpus, TAGSET) == SAMPLE


def test_parse_inverts_serialize_on_random_corpora():
    rng = random.Random(11)
    for _ in range(20):
        corpus = make_random_corpus(rng, TAGSET, rng.randint(1, 12))
        text = serialize_tagged(corpus, TAGSET)
        assert parse_tagged(text, TAGSET) == corpus


def test_serialize_empty_corpus():
    assert serialize_tagged(TaggedCorpus(), TAGSET) == ""


def test_tag_frequencies_hand_counted():
    corpus = parse_tagged(SAMPLE, TAGSET)
    freqs = tag_frequencies(corpus, TAGSET)
    # Hand count over the 20 sample tokens.
    assert freqs["ADV"] == 1
    assert freqs["N"] == 4
    assert freqs["V"] == 6
    assert freqs["SYM"] == 6
    assert freqs["CONJ"] == 1
    assert freqs["ADJ"] == 2
    assert sum(freqs.values()) == 20
    # Every tagset tag has an entry, in tagset order, zeros included.
    assert list(freqs) == list(TAGSET.names)
    assert freqs["NUM"] == 0


def test_split_is_deterministic_and_partitions():
    rng = random.Random(5)
    corpus = make_random_corpus(rng, TAGSET, 40)
    train_a, test_a = split_corpus(corpus, 0.7, seed=13)
    train_b, test_b = split_corpus(corpus, 0.7, seed=13)
    assert train_a == train_b and test_a == test_b
    assert len(train_a) == 28 and len(test_a) == 12
    as_tuples = lambda c: sorted(
        tuple((t.word, t.tag) for t in s.tokens) for s in c
    )
    combined = as_tuples(train_a.sentences + test_a.sentences)
    assert combined == as_tuples(corpus.sentences)


def test_split_uses_floor_counts():
    sentences = tuple(Sentence((Token(f"w{i}", 0),)) for i in range(749))
    corpus = TaggedCorpus(sentences)
    train, test = split_corpus(corpus, 0.7, seed=1)
    assert len(train) == 524
    assert len(test) == 225


def test_split_different_seeds_differ():
    rng = random.Random(6)
    corpus = make_random_corpus(rng, TAGSET, 60)
    train_a, _ = split_corpus(corpus, 0.5, seed=1)
    train_b, _ = split_corpus(corpus, 0.5, seed=2)
    assert train_a != train_b


def test_split_validates_arguments():
    corpus = TaggedCorpus((Sentence((Token("a", 0),)),))
    with pytest.raises(ValueError):
        split_corpus(TaggedCorpus(), 0.7, seed=0)
    with pytest.raises(ValueError):
        split_corpus(corpus, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_corpus(corpus, 1.5, seed=0)
    train, test = split_corpus(corpus, 1.0, seed=0)
    assert len(train) == 1 and len(test) == 0


def test_agreement_counts_and_rates():
    ref = parse_tagged("a/N b/V c/FW d/SYM\n", TAGSET)
    other = parse_tagged("a/N b/N c/N d/SYM\n", TAGSET)
    report = agreement(ref, other, excluded_tag=TAGSET.index("FW"))
    assert report.total_tokens == 4
    assert report.disagreed == 2
    assert report.disagreed_on_excluded_tag == 1
    assert report.rate == pytest.approx(0.5)
    # Denominator stays at the full token count.
    assert report.rate_excluding == pytest.approx(0.25)


def test_agreement_rate_arithmetic():
    # 125 of 1864 tokens disagreed, 102 of those on the excluded tag.
    report = AgreementReport(1864, 125, 102)
    assert report.rate == pytest.approx(0.0671, abs=5e-5)
    assert report.rate_excluding == pytest.approx(0.0123, abs=5e-5)


def test_agreement_requires_identical_text():
    ref = parse_tagged("a/N b/V\n", TAGSET)
    with pytest.raises(ValueError):
        agreement(ref, parse_tagged("a/N\n", TAGSET), excluded_tag=0)
    with pytest.raises(ValueError):
        agreement(ref, parse_tagged("a/N b/V\nc/N\n", TAGSET), excluded_tag=0)
    with pytest.raises(ValueError):
        agreement(ref, parse_tagged("a/N x/V\n", TAGSET), excluded_tag=0)


def test_agreement_report_validates_counts():
    with pytest.raises(ValueError):
        AgreementReport(10, 3, 5)
    with pytest.raises(ValueError):
        AgreementReport(10, 11, 0)


def test_token_and_sentence_validation():
    with pytest.raises(ValueError):
        Token("", 0)
    with pytest.raises(ValueError):
        Token("a b", 0)
    with pytest.raises(ValueError):
        Token("a", -1)
    with pytest.raises(ValueError):
        Sentence(())
