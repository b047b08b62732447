import itertools
import random
from bisect import bisect

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from nagatag.phonotactics import (
    _ACCEPTED_COUNTS,
    CONSONANTS,
    MAX_SYLLABLES,
    TEMPLATES,
    VOWELS,
    SyllableAnalysis,
    SyllableTemplate,
    _table,
    analyze_word,
    classify,
    draw_word,
    enumerate_accepted,
    from_ascii,
    to_ascii,
    to_skeleton,
)


def test_inventory_sizes():
    assert len(VOWELS) == 6
    assert len(CONSONANTS) == 22
    assert set(VOWELS) == {"i", "u", "e", "ə", "o", "a"}
    assert "pʰ" in CONSONANTS and "š" in CONSONANTS and "ṅ" in CONSONANTS
    assert not set(VOWELS) & set(CONSONANTS)


def test_template_invariants():
    for t in TEMPLATES:
        assert sum(s == "V" for s in t.slots) == t.syllable_count
    assert len(TEMPLATES) == 7
    with pytest.raises(ValueError):
        SyllableTemplate("bad", ("V", "V"), 1)
    with pytest.raises(ValueError):
        SyllableTemplate("bad", ("X",), 1)
    with pytest.raises(ValueError):
        SyllableTemplate("bad", ("V",), 5)


def test_to_skeleton_examples():
    assert to_skeleton(("g", "o", "r")) == "CVC"
    assert to_skeleton(("a",)) == "V"
    assert to_skeleton(("m", "o", "y")) == "CVC"
    # aspirates are single phoneme tokens
    assert to_skeleton(("pʰ", "o", "tʰ", "a")) == "CVCV"


def test_to_skeleton_preserves_length():
    rng = random.Random(7)
    pool = VOWELS + CONSONANTS
    for _ in range(100):
        word = tuple(rng.choice(pool) for _ in range(rng.randint(1, 10)))
        assert len(to_skeleton(word)) == len(word)


def test_to_skeleton_rejects_unknown_symbol():
    with pytest.raises(ValueError, match="position 1"):
        to_skeleton(("g", "x7", "r"))
    with pytest.raises(ValueError):
        to_skeleton(())


def test_classify_global_rules():
    assert not classify("V").accepted
    assert not classify("VV").accepted
    # five nuclei is past the four-syllable ceiling
    assert not classify("CVCVCVCVCV").accepted


def test_classify_basic_accepts():
    analysis = classify("CVC")
    assert analysis.accepted
    assert ("mono-1", 1) in analysis.matches
    assert classify("CV").accepted
    assert classify("VC").accepted
    assert classify("VCV").accepted
    assert classify("CVCV").accepted


def test_classify_rejects_without_nucleus():
    assert not classify("C").accepted
    assert not classify("CCC").accepted


def test_classify_validates_skeleton():
    with pytest.raises(ValueError):
        classify("")
    with pytest.raises(ValueError):
        classify("CVX")


def test_classify_reports_all_matching_templates():
    analysis = classify("CVCVC")
    ids = {identifier for identifier, _ in analysis.matches}
    assert {"di-2a", "di-2b"} <= ids


def test_matched_count_equals_nucleus_count():
    for skeleton in enumerate_accepted(12):
        for _, count in classify(skeleton).matches:
            assert count == skeleton.count("V")


def test_analysis_consistency_enforced():
    with pytest.raises(ValueError):
        SyllableAnalysis(True, ())
    with pytest.raises(ValueError):
        SyllableAnalysis(False, (("mono-1", 1),))


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_accepted(0)
    with pytest.raises(ValueError):
        enumerate_accepted(17)


def test_enumerate_short_lengths():
    assert enumerate_accepted(1) == []
    assert enumerate_accepted(2) == ["CV", "VC"]


def test_enumerate_count_at_six_frozen():
    # regression constant fixed at the first verified oracle run
    accepted = enumerate_accepted(6)
    assert len(accepted) == 47
    assert accepted == sorted(accepted)
    assert len(set(accepted)) == 47


def test_enumerate_length_profile_frozen():
    by_len = {}
    for s in enumerate_accepted(12):
        by_len[len(s)] = by_len.get(len(s), 0) + 1
    assert by_len == {2: 2, 3: 6, 4: 8, 5: 13, 6: 18, 7: 22, 8: 23, 9: 18, 10: 9, 11: 2}


def test_classify_agrees_with_oracle_up_to_length_12():
    oracle = set(enumerate_accepted(12))
    for length in range(1, 13):
        for chars in itertools.product("CV", repeat=length):
            skeleton = "".join(chars)
            assert classify(skeleton).accepted == (skeleton in oracle), skeleton


def test_accepted_nucleus_counts_in_range():
    for skeleton in enumerate_accepted(12):
        assert 1 <= skeleton.count("V") <= 4


def test_generate_word_deterministic():
    for seed in (0, 1, 12345, 2**63 - 1):
        assert draw_word(random.Random(seed), 2) == draw_word(random.Random(seed), 2)


def test_generate_word_closure():
    for seed in range(200):
        count = seed % 4 + 1
        word = draw_word(random.Random(seed), count)
        for p in word:
            assert p in VOWELS or p in CONSONANTS
        analysis = analyze_word(word)
        assert analysis.accepted
        assert count in {c for _, c in analysis.matches}


def test_generate_word_validates_count():
    with pytest.raises(ValueError):
        draw_word(random.Random(0), 0)
    with pytest.raises(ValueError):
        draw_word(random.Random(0), 5)


def test_draw_word_advances_shared_rng():
    rng = random.Random(9)
    first = draw_word(rng, 1)
    second = draw_word(rng, 1)
    rng2 = random.Random(9)
    assert draw_word(rng2, 1) == first
    assert draw_word(rng2, 1) == second


def _draw_word_oracle(rng, syllable_count):
    """The reference for draw_word: every draw is classified from scratch,
    through to_skeleton and the regexes."""
    candidates = [t for t in TEMPLATES if t.syllable_count == syllable_count]
    while True:
        template = rng.choice(candidates)
        phonemes = []
        for slot in template.slots:
            if slot == "V":
                phonemes.append(rng.choice(VOWELS))
            elif slot == "C":
                phonemes.append(rng.choice(CONSONANTS))
            elif rng.random() < 0.5:
                phonemes.append(rng.choice(CONSONANTS))
        word = tuple(phonemes)
        analysis = analyze_word(word)
        if analysis.accepted and syllable_count in {c for _, c in analysis.matches}:
            return word


@given(
    seed=st.integers(0, 2**64),
    counts=st.lists(st.integers(1, MAX_SYLLABLES), min_size=1, max_size=6),
)
def test_draw_word_matches_the_classifying_oracle(seed, counts):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for count in counts:
        assert draw_word(rng, count) == _draw_word_oracle(oracle_rng, count)
        assert rng.getstate() == oracle_rng.getstate()


def _table_draw(rng, table):
    """One draw from a `_table`, as draw_word and generate make it."""
    k, entries = table
    entry = entries[rng.getrandbits(k)]
    while entry is None:
        entry = entries[rng.getrandbits(k)]
    return entry


@given(
    seed=st.integers(0, 2**64),
    n=st.one_of(st.integers(1, 70), st.sampled_from([1, 2, 4, 8, 16, 32, 64])),
    start=st.integers(-5, 5),
    weights=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=70),
)
@example(seed=0, n=1, start=0, weights=[1.0])
@example(seed=2**64, n=64, start=1, weights=[0.0, 2.0])
def test_table_draws_are_cpythons_choice_randint_and_choices(seed, n, start, weights):
    assume(sum(weights) > 0)
    rng, reference = random.Random(seed), random.Random(seed)
    population = [f"p{i}" for i in range(n)]
    choice_table, randint_table = _table(population), _table(range(start, start + n))
    assert len(choice_table[1]) == 2 ** n.bit_length()
    cum_weights = list(itertools.accumulate(weights))
    total, last = cum_weights[-1] + 0.0, len(cum_weights) - 1
    for _ in range(4):
        assert _table_draw(rng, choice_table) == reference.choice(population)
        assert rng.getstate() == reference.getstate()
        assert _table_draw(rng, randint_table) == reference.randint(start, start + n - 1)
        assert rng.getstate() == reference.getstate()
        drawn = bisect(cum_weights, rng.random() * total, 0, last)
        assert drawn == reference.choices(range(len(weights)), cum_weights=cum_weights)[0]
        assert rng.getstate() == reference.getstate()


def test_acceptance_table_is_classify_over_every_template_expansion():
    expansions = [s for t in TEMPLATES for s in t.expansions()]
    assert len(expansions) == 135
    assert set(_ACCEPTED_COUNTS) == set(expansions)
    for skeleton in expansions:
        assert _ACCEPTED_COUNTS[skeleton] == {c for _, c in classify(skeleton).matches}
    assert {s for s, counts in _ACCEPTED_COUNTS.items() if not counts} == {"V", "VV"}


def test_from_ascii():
    assert from_ascii("g.o.r") == ("g", "o", "r")
    assert from_ascii("ph.o.t.o.k") == ("pʰ", "o", "t", "o", "k")
    assert from_ascii("@") == ("ə",)
    assert from_ascii("š.a") == ("š", "a")
    with pytest.raises(ValueError, match="position 1"):
        from_ascii("g.zz.r")


def test_ascii_round_trip():
    rng = random.Random(21)
    pool = VOWELS + CONSONANTS
    for _ in range(100):
        word = tuple(rng.choice(pool) for _ in range(rng.randint(1, 8)))
        text = to_ascii(word)
        assert from_ascii(".".join(to_ascii((p,)) for p in word)) == word
        assert text == to_ascii(word)
