import random
import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nagatag.features import attribute_families
from tests.helpers import binarize, extract_token_features, sentence_attributes

SENTENCE = ("Titia", "Isor", "koise", ",", '"', "Ujala", "hobole", "dibi", ".", '"')


def test_first_token_feature_map_frozen():
    fm = extract_token_features(SENTENCE, 0)
    assert fm == {
        "word": "Titia",
        "is_first": True,
        "is_last": False,
        "is_capitalized": True,
        "is_all_caps": False,
        "is_all_lower": False,
        "capitals_inside": False,
        "has_hyphen": False,
        "is_numeric": False,
        "prev_word": "",
        "next_word": "Isor",
        "prefix-1": "T",
        "prefix-2": "Ti",
        "prefix-3": "Tit",
        "suffix-1": "a",
        "suffix-2": "ia",
        "suffix-3": "tia",
        "suffix-4": "itia",
    }
    assert len(fm) == 18


def test_single_word_sentence_boundaries():
    fm = extract_token_features(("x",), 0)
    assert fm["is_first"] is True
    assert fm["is_last"] is True
    assert fm["prev_word"] == ""
    assert fm["next_word"] == ""


def test_shape_predicates():
    fm = extract_token_features(("10-taka",), 0)
    assert fm["has_hyphen"] is True
    assert fm["is_numeric"] is False

    fm = extract_token_features(("2024",), 0)
    assert fm["is_numeric"] is True
    # digits carry no case
    assert fm["is_capitalized"] is False
    assert fm["is_all_caps"] is False
    assert fm["is_all_lower"] is False

    fm = extract_token_features(("McDonald",), 0)
    assert fm["capitals_inside"] is True
    assert fm["is_all_caps"] is False

    fm = extract_token_features(("NASA",), 0)
    assert fm["is_all_caps"] is True
    assert fm["is_all_lower"] is False


def test_short_words_omit_long_affixes():
    fm = extract_token_features(("ab",), 0)
    assert "prefix-1" in fm and "prefix-2" in fm
    assert "prefix-3" not in fm
    assert "suffix-1" in fm and "suffix-2" in fm
    assert "suffix-3" not in fm and "suffix-4" not in fm


def test_affixes_reconstruct_word():
    rng = random.Random(3)
    for _ in range(200):
        word = "".join(rng.choices(string.ascii_letters + "-ə", k=rng.randint(1, 9)))
        fm = extract_token_features((word,), 0)
        for k in range(1, 4):
            if len(word) >= k:
                assert fm[f"prefix-{k}"] + word[k:] == word
        for k in range(1, 5):
            if len(word) >= k:
                assert word[: len(word) - k] + fm[f"suffix-{k}"] == word


def test_all_caps_and_all_lower_exclusive():
    rng = random.Random(4)
    for _ in range(200):
        word = "".join(rng.choices(string.ascii_letters + string.digits, k=rng.randint(1, 8)))
        fm = extract_token_features((word,), 0)
        if any(c.isalpha() for c in word):
            assert not (fm["is_all_caps"] and fm["is_all_lower"])


def test_out_of_range_position():
    with pytest.raises(IndexError):
        extract_token_features(("a", "b"), 2)
    with pytest.raises(IndexError):
        extract_token_features(("a", "b"), -1)


def test_binarize_single_boolean():
    assert binarize({"is_first": True}) == ("is_first=true",)
    assert binarize({"is_first": False}) == ("is_first=false",)


def test_binarize_full_map():
    attrs = binarize(extract_token_features(SENTENCE, 0))
    assert len(attrs) == 18
    assert "suffix-4=itia" in attrs
    assert "word=Titia" in attrs
    assert "is_first=true" in attrs
    assert "is_all_caps=false" in attrs
    assert "prev_word=" in attrs
    assert list(attrs) == sorted(attrs)


def test_binarize_deterministic():
    a = extract_token_features(SENTENCE, 2)
    b = extract_token_features(tuple(SENTENCE), 2)
    assert binarize(a) == binarize(b)


def test_sentence_attributes_covers_every_position():
    per_token = sentence_attributes(SENTENCE)
    assert len(per_token) == len(SENTENCE)
    for t, attrs in enumerate(per_token):
        assert attrs == binarize(extract_token_features(SENTENCE, t))


# one-character words, capitals, titlecase letters (ǅ is neither upper nor
# lower), hyphens, digits, "/", "=" and non-ASCII letters
WORDS = st.lists(st.text("aZǅǆǄ-7٣/=əÄ.", min_size=1, max_size=7), min_size=1, max_size=5)


@given(st.lists(WORDS, min_size=1, max_size=4))
@example([["ǅa", "-", "a/b", "12", "X"], ["x"], ["=", "a=b", "aǅ"]])
# "" as a word: the sentence edges' prev_word and next_word share its code
@example([["a", "", "b"], [""]])
# a word that is another word's prefix, and one that is its suffix
@example([["ab", "abc", "b"], ["abcd"]])
def test_attribute_families_give_the_oracle_sets(sentences):
    # several sentences in one pass: prev_word and next_word stop at each edge
    positions = [(words, t) for words in sentences for t in range(len(words))]
    rendered: list[list[str]] = [[] for _ in positions]
    keys = []
    for key, tokens, codes, values in attribute_families(sentences):
        keys.append(key)
        assert len(tokens) == len(codes)
        assert len(set(values)) == len(values)
        assert all(0 <= code < len(values) for code in codes)
        for t, code in zip(tokens, codes):
            rendered[t].append(key + values[code])
    assert keys == sorted(set(keys))
    for (words, t), attrs in zip(positions, rendered):
        assert tuple(attrs) == binarize(extract_token_features(words, t))
