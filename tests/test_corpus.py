import os
import random
import stat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nagatag.corpus import (
    DEFAULT_TAG_NAMES,
    AgreementReport,
    CorpusError,
    Sentence,
    TaggedCorpus,
    TagSet,
    agreement,
    parse_tagged,
    read_raw_sentences,
    serialize_tagged,
    split_corpus,
    tag_frequencies,
    write_corpus,
    write_text,
)
from nagatag.crf import tag_corpus
from nagatag.datagen import SynthConfig, generate
from tests.conftest import make_random_corpus
from tests.helpers import refuse_to_replace, zero_model

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
    assert (first.words()[0], first.tags()[0]) == ("Titia", TAGSET.index("ADV"))
    assert (first.words()[3], first.tags()[3]) == (",", TAGSET.index("SYM"))
    assert (first.words()[4], first.tags()[4]) == ('"', TAGSET.index("SYM"))
    assert corpus.sentences[1].words() == ("Aru", "Ujala", "hoise", ".")
    assert corpus.sentences[2].tags() == tuple(
        TAGSET.index(t) for t in ("ADJ", "V", "N", "ADJ", "V", "SYM")
    )


def test_parse_splits_on_last_slash():
    corpus = parse_tagged("km/h/N\n", TAGSET)
    assert corpus.sentences[0] == Sentence(("km/h",), (TAGSET.index("N"),))


def test_token_rejects_exactly_the_words_holding_whitespace():
    def rejected(word):
        try:
            Sentence((word,), (0,))
        except ValueError:
            return True
        return False

    characters = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
    space = [c for c in characters if c.isspace()]
    assert [c for c in characters if rejected(c)] == space
    assert [c for c in characters if rejected(f"a{c}b")] == space
    assert rejected("")


def test_parse_skips_blank_and_comment_lines():
    text = "# header comment\n\nAru/CONJ\n   \n# another\nItu/ADJ\n"
    corpus = parse_tagged(text, TAGSET)
    assert len(corpus) == 2
    assert corpus.sentences[0].words() == ("Aru",)


@pytest.mark.parametrize("comment", [" #x korvi .", "\t# note", "   #"])
def test_both_readers_skip_a_comment_after_blanks(tmp_path, comment):
    # a '#' after leading blanks still starts a comment, as serialize_tagged assumes
    corpus = parse_tagged(f"{comment}\nAru/CONJ Itu/ADJ\n", TAGSET)
    assert [sentence.words() for sentence in corpus] == [("Aru", "Itu")]
    raw = tmp_path / "raw.txt"
    raw.write_text(f"{comment}\nAru Itu\n", encoding="utf-8")
    assert read_raw_sentences(str(raw)) == [("Aru", "Itu")]


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


# Words of any non-space characters, with '/' and '#' drawn often.
_words = st.text(
    st.one_of(st.sampled_from("/#a"), st.characters().filter(lambda c: not c.isspace())),
    min_size=1,
)
_corpora = st.lists(
    st.lists(st.tuples(_words, st.integers(0, len(TAGSET) - 1)), min_size=1, max_size=6),
    max_size=5,
).map(lambda sentences: TaggedCorpus(tuple(Sentence(*zip(*s)) for s in sentences)))


@settings(max_examples=300, deadline=None)
@given(_corpora)
@example(TaggedCorpus((Sentence(("#x", "y"), (0, 1)),)))
def test_parse_inverts_serialize_on_arbitrary_tokens(corpus):
    if any(sentence.words()[0].startswith("#") for sentence in corpus):
        # such a line would read back as a comment, and the sentence would be lost
        with pytest.raises(ValueError, match="comment"):
            serialize_tagged(corpus, TAGSET)
    else:
        assert parse_tagged(serialize_tagged(corpus, TAGSET), TAGSET) == corpus


def test_unwritable_corpus_leaves_file_as_it_was(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a/N\n", encoding="utf-8")
    corpus = TaggedCorpus((Sentence(("#x",), (0,)),))
    with pytest.raises(ValueError, match="comment"):
        write_corpus(str(path), corpus, TAGSET)
    assert path.read_text(encoding="utf-8") == "a/N\n"


def test_a_write_that_fails_midway_leaves_the_old_bytes_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "corpus.txt"
    path.write_text("a/N\n", encoding="utf-8")
    # a lone surrogate cannot be encoded: the write raises inside the temp file
    corpus = TaggedCorpus((Sentence(("ok", "\ud800"), (0, 1)),))
    with pytest.raises(UnicodeEncodeError):
        write_corpus(str(path), corpus, TAGSET)
    assert path.read_bytes() == b"a/N\n"
    assert os.listdir(tmp_path) == ["corpus.txt"]

    # the whole text written, then the replace fails
    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        write_text(str(path), "b/V\n" * 100_000)
    assert path.read_bytes() == b"a/N\n"
    assert os.listdir(tmp_path) == ["corpus.txt"]


def test_a_write_keeps_the_targets_mode_and_writes_through_a_symlink(tmp_path, monkeypatch):
    target = tmp_path / "data" / "corpus.txt"
    target.parent.mkdir()
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_corpus(str(link), TaggedCorpus((Sentence(("a",), (0,)),)), TAGSET)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == "a/ADJ\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(os.listdir(target.parent)) == ["corpus.txt"]

    # the temporary file has the target's bits from its creation, not after
    target.chmod(0o600)
    created = []
    chmod = os.chmod

    def record(path, mode, **kwargs):
        created.append(stat.S_IMODE(os.stat(path).st_mode))
        return chmod(path, mode, **kwargs)

    monkeypatch.setattr(os, "chmod", record)
    write_text(str(target), "private\n")
    assert created and created[0] & 0o077 == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o600

    # a new file gets the mode open gives it
    fresh = tmp_path / "fresh.txt"
    write_text(str(fresh), "x\n")
    reference = tmp_path / "reference.txt"
    with open(reference, "w", encoding="utf-8") as fh:
        fh.write("x\n")
    assert stat.S_IMODE(fresh.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_a_write_to_a_device_goes_in_place(monkeypatch):
    refuse_to_replace(monkeypatch, os.devnull)
    write_text(os.devnull, "discarded\n")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_a_write_to_a_pipe_named_by_dev_fd_goes_in_place():
    read_end, write_end = os.pipe()
    try:
        write_text(f"/dev/fd/{write_end}", "a/N\n")
        os.close(write_end)
        write_end = None
        with os.fdopen(read_end, "rb") as fh:
            read_end = None
            assert fh.read() == b"a/N\n"
    finally:
        for fd in (read_end, write_end):
            if fd is not None:
                os.close(fd)


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
        tuple(zip(s.words(), s.tags())) for s in c
    )
    combined = as_tuples(train_a.sentences + test_a.sentences)
    assert combined == as_tuples(corpus.sentences)


def test_split_uses_floor_counts():
    sentences = tuple(Sentence((f"w{i}",), (0,)) for i in range(749))
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
    corpus = TaggedCorpus((Sentence(("a",), (0,)),))
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
    with pytest.raises(ValueError, match="^sentence 0: length mismatch$"):
        agreement(ref, parse_tagged("a/N\n", TAGSET), excluded_tag=0)
    with pytest.raises(ValueError, match="^sentence count mismatch: 1 vs 2$"):
        agreement(ref, parse_tagged("a/N b/V\nc/N\n", TAGSET), excluded_tag=0)
    with pytest.raises(ValueError, match="^sentence 0, token 1: word mismatch 'b' vs 'x'$"):
        agreement(ref, parse_tagged("a/N x/V\n", TAGSET), excluded_tag=0)


def test_agreement_report_validates_counts():
    with pytest.raises(ValueError):
        AgreementReport(10, 3, 5)
    with pytest.raises(ValueError):
        AgreementReport(10, 11, 0)


def test_token_and_sentence_validation():
    with pytest.raises(ValueError):
        Sentence(("",), (0,))
    with pytest.raises(ValueError):
        Sentence(("a b",), (0,))
    with pytest.raises(ValueError):
        Sentence(("a",), (-1,))
    with pytest.raises(ValueError):
        Sentence((), ())
    # every word and every tag is checked, not only the first
    with pytest.raises(ValueError, match="without whitespace: ''$"):
        Sentence(("a", "", "b"), (0, 0, 0))
    with pytest.raises(ValueError, match=r"without whitespace: 'b\\tc'$"):
        Sentence(("a", "b\tc"), (0, 0))
    with pytest.raises(ValueError, match="^negative tag index: -2$"):
        Sentence(("a", "b"), (0, -2))


# Word characters for the sentence check: plain letters, ASCII and Unicode
# whitespace, and the separators str.split() breaks on that are easy to miss.
_CHECK_CHARACTERS = st.one_of(
    st.sampled_from(["a", "b", " ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000"]),
    st.characters(),
)


@settings(max_examples=300)
@given(st.lists(st.text(_CHECK_CHARACTERS, max_size=3), min_size=1, max_size=5))
@example(["a", ""])
@example(["a", "b\x1cc"])
@example(["\u3000", "a"])
def test_sentence_check_is_the_per_word_rule(words):
    bad = [w for w in words if not w or w.split() != [w]]
    if not bad:
        assert Sentence(tuple(words), (0,) * len(words)).words() == tuple(words)
        return
    with pytest.raises(ValueError) as raised:
        Sentence(tuple(words), (0,) * len(words))
    assert str(raised.value) == f"token word must be non-empty without whitespace: {bad[0]!r}"


def test_sentence_words_and_tags_must_have_equal_length():
    with pytest.raises(ValueError, match="^2 words for 1 tags$"):
        Sentence(("a", "b"), (0,))
    with pytest.raises(ValueError, match="^1 words for 2 tags$"):
        Sentence(("a",), (0, 1))
    with pytest.raises(ValueError):
        Sentence((), (0,))
    sentence = Sentence(("a", "b"), (0, 1))
    assert (len(sentence), sentence.words(), sentence.tags()) == (2, ("a", "b"), (0, 1))


def test_every_producer_builds_hashable_sentences_of_int_tags():
    model = zero_model(TagSet(("N", "V")), {"word=a": 0})
    model.state_weights[0, 1] = 1.0
    corpora = [
        parse_tagged(SAMPLE, TAGSET),
        generate(SynthConfig(seed=3, n_sentences=5)),
        tag_corpus(model, [("a", "b"), ["c", "a"]]),
    ]
    for corpus in corpora:
        assert hash(corpus) == hash(TaggedCorpus(corpus.sentences))
        for sentence in corpus:
            assert type(sentence.words()) is tuple and type(sentence.tags()) is tuple
            assert all(type(t) is int for t in sentence.tags())
    assert [s.tags() for s in corpora[2]] == [(1, 0), (0, 1)]
