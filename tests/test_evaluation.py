import random
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagatag.corpus import Sentence, TaggedCorpus, TagSet, agreement, parse_tagged
from nagatag.evaluation import (
    ConfusionMatrix,
    EvalReport,
    Scores,
    TagMetrics,
    confusion,
    format_report_text,
    report,
    top_transitions,
)
from tests.conftest import make_random_corpus
from tests.helpers import zero_model

TAGSET = TagSet()


def matrix_from(entries):
    counts = np.zeros((len(TAGSET), len(TAGSET)), dtype=np.int64)
    for (g, p), c in entries.items():
        counts[TAGSET.index(g), TAGSET.index(p)] = c
    return ConfusionMatrix(TAGSET, counts)


def test_identity_prediction_is_perfect():
    gold = parse_tagged("a/N b/V c/SYM\nd/N e/ADJ\n", TAGSET)
    cm = confusion(gold, gold, TAGSET)
    assert np.array_equal(np.diag(np.diag(cm.counts)), cm.counts)
    assert cm.total == 5
    with pytest.warns(RuntimeWarning):  # tags absent from this tiny sample
        rep = report(cm)
    for name, m in rep.per_tag.items():
        if m.support > 0:
            assert m.precision == 1.0 and m.recall == 1.0 and m.f1 == 1.0
    assert rep.accuracy == 1.0


def test_single_error_counts():
    gold = parse_tagged("a/N b/V c/N\n", TAGSET)
    predicted = parse_tagged("a/N b/V c/V\n", TAGSET)
    cm = confusion(gold, predicted, TAGSET)
    assert cm.counts[TAGSET.index("N"), TAGSET.index("V")] == 1
    assert int(np.trace(cm.counts)) == 2
    assert cm.total == 3


def test_total_conserves_tokens():
    rng = random.Random(2)
    for _ in range(10):
        gold = make_random_corpus(rng, TAGSET, rng.randint(1, 10))
        predicted = TaggedCorpus(
            tuple(
                Sentence(s.words(), tuple(rng.randrange(len(TAGSET)) for _ in s.tags()))
                for s in gold.sentences
            )
        )
        cm = confusion(gold, predicted, TAGSET)
        assert cm.total == gold.token_count


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, len(TAGSET) - 1))
def test_agreement_reads_the_confusion_counts(rng, excluded):
    reference = make_random_corpus(rng, TAGSET, rng.randint(1, 10))
    # each token keeps its tag or takes a random one, so both counts vary
    other = TaggedCorpus(tuple(
        Sentence(s.words(), tuple(rng.choice((t, rng.randrange(len(TAGSET)))) for t in s.tags()))
        for s in reference
    ))
    counts = confusion(reference, other, TAGSET).counts
    total = int(counts.sum())
    rep = agreement(reference, other, excluded)
    assert (rep.total_tokens, rep.disagreed, rep.disagreed_on_excluded_tag) == (
        total,
        total - int(np.trace(counts)),
        int(counts[excluded].sum() - counts[excluded, excluded]),
    )


def test_structural_mismatch_rejected():
    gold = parse_tagged("a/N b/V\n", TAGSET)
    with pytest.raises(ValueError):
        confusion(gold, parse_tagged("a/N\n", TAGSET), TAGSET)
    with pytest.raises(ValueError):
        confusion(gold, parse_tagged("a/N\nb/V\n", TAGSET), TAGSET)
    with pytest.raises(ValueError):
        confusion(gold, parse_tagged("a/N x/V\n", TAGSET), TAGSET)


def test_report_against_plain_recount():
    rng = random.Random(5)
    gold = make_random_corpus(rng, TAGSET, 25)
    predicted = TaggedCorpus(
        tuple(
            Sentence(s.words(), tuple(rng.randrange(len(TAGSET)) for _ in s.tags()))
            for s in gold.sentences
        )
    )
    cm = confusion(gold, predicted, TAGSET)
    rep = report(cm)

    pairs = [
        (g, p)
        for gs, ps in zip(gold.sentences, predicted.sentences)
        for g, p in zip(gs.tags(), ps.tags())
    ]
    for k, name in enumerate(TAGSET.names):
        tp = sum(1 for g, p in pairs if g == k and p == k)
        fn = sum(1 for g, p in pairs if g == k and p != k)
        fp = sum(1 for g, p in pairs if g != k and p == k)
        m = rep.per_tag[name]
        assert m.support == tp + fn
        assert m.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert m.recall == (tp / (tp + fn) if tp + fn else 0.0)
    assert rep.accuracy == sum(1 for g, p in pairs if g == p) / len(pairs)


def test_weighted_recall_equals_accuracy_exactly():
    rng = random.Random(8)
    for _ in range(10):
        gold = make_random_corpus(rng, TAGSET, rng.randint(2, 12))
        predicted = TaggedCorpus(
            tuple(
                Sentence(s.words(), tuple(rng.randrange(len(TAGSET)) for _ in s.tags()))
                for s in gold.sentences
            )
        )
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", RuntimeWarning)
            rep = report(confusion(gold, predicted, TAGSET))
        assert rep.weighted.recall == rep.accuracy


def test_zero_over_zero_warns_and_reports_zero():
    gold = parse_tagged("a/N b/V\n", TAGSET)
    with pytest.warns(RuntimeWarning) as records:
        rep = report(confusion(gold, gold, TAGSET))
    assert any("NUM" in str(r.message) for r in records)
    m = rep.per_tag["NUM"]
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    assert m.support == 0


def test_macro_is_unweighted_mean():
    gold = parse_tagged("a/N b/V\n", TAGSET)
    with pytest.warns(RuntimeWarning):
        rep = report(confusion(gold, gold, TAGSET))
    # two perfect tags, thirteen empty ones
    assert rep.macro.precision == pytest.approx(2 / 15)
    assert rep.macro.recall == pytest.approx(2 / 15)
    assert rep.macro.f1 == pytest.approx(2 / 15)


PUBLISHED_ROWS = {
    # gold SYM: 8 escaped to FW
    ("SYM", "SYM"): 516, ("SYM", "FW"): 8,
    # gold NUM: errors into FW, N, SYM
    ("NUM", "NUM"): 100, ("NUM", "FW"): 5, ("NUM", "N"): 2, ("NUM", "SYM"): 2,
    # gold CONJ: 21 errors out
    ("CONJ", "CONJ"): 145, ("CONJ", "PP"): 21,
    # gold DET: 20 errors out
    ("DET", "DET"): 31, ("DET", "QN"): 10, ("DET", "PP"): 6, ("DET", "ADJ"): 4,
    # false positives feeding the columns above
    ("FW", "FW"): 80, ("FW", "SYM"): 1, ("FW", "NUM"): 1, ("FW", "CONJ"): 1,
    ("ADJ", "ADJ"): 150, ("ADJ", "CONJ"): 1, ("ADJ", "DET"): 4,
    ("CMP", "CMP"): 20, ("CMP", "CONJ"): 3,
    ("PP", "PP"): 200, ("PP", "CONJ"): 1,
    ("UNK", "UNK"): 50, ("UNK", "CONJ"): 1,
    ("ADV", "ADV"): 40, ("INTJ", "INTJ"): 5, ("N", "N"): 400,
    ("PN", "PN"): 30, ("QN", "QN"): 15, ("V", "V"): 300,
}


def test_published_rows_reproduced():
    rep = report(matrix_from(PUBLISHED_ROWS))

    sym = rep.per_tag["SYM"]
    assert sym.support == 524
    assert sym.precision == 516 / 519
    assert sym.recall == 516 / 524
    assert round(sym.precision, 2) == 0.99
    assert round(sym.recall, 2) == 0.98

    num = rep.per_tag["NUM"]
    assert num.support == 109
    assert num.precision == 100 / 101
    assert num.recall == 100 / 109
    assert round(num.precision, 2) == 0.99
    assert round(num.recall, 2) == 0.92

    conj = rep.per_tag["CONJ"]
    assert conj.support == 166
    assert conj.precision == 145 / 152
    assert conj.recall == 145 / 166
    assert round(conj.precision, 2) == 0.95
    assert round(conj.recall, 2) == 0.87

    det = rep.per_tag["DET"]
    assert det.support == 51
    assert det.precision == 31 / 35
    assert det.recall == 31 / 51
    assert round(det.precision, 2) == 0.89
    assert round(det.recall, 2) == 0.61


def test_report_empty_matrix_rejected():
    cm = ConfusionMatrix(TAGSET, np.zeros((15, 15), dtype=np.int64))
    with pytest.raises(ValueError):
        report(cm)


def test_confusion_matrix_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(TAGSET, np.zeros((3, 3), dtype=np.int64))
    bad = np.zeros((15, 15), dtype=np.int64)
    bad[0, 0] = -1
    with pytest.raises(ValueError):
        ConfusionMatrix(TAGSET, bad)


def test_tag_metrics_validation():
    with pytest.raises(ValueError):
        TagMetrics(1.5, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        TagMetrics(0.5, 0.5, 0.5, -1)
    with pytest.raises(ValueError):
        Scores(0.5, -0.25, 0.5)


def test_csv_layout():
    small = TagSet(("N", "V"))
    counts = np.array([[1, 2], [0, 3]], dtype=np.int64)
    cm = ConfusionMatrix(small, counts)
    assert cm.to_csv() == ",N,V\nN,1,2\nV,0,3\n"


def test_text_report_layout():
    gold = parse_tagged("a/N b/V c/SYM\n", TAGSET)
    with pytest.warns(RuntimeWarning):
        rep = report(confusion(gold, gold, TAGSET))
    text = format_report_text(rep)
    lines = text.splitlines()
    assert "precision" in lines[0] and "support" in lines[0]
    n_row = next(l for l in lines if l.startswith("N "))
    assert "1.00" in n_row
    assert any(l.startswith("accuracy") for l in lines)
    assert any(l.startswith("macro avg") for l in lines)
    assert any(l.startswith("weighted avg") for l in lines)
    # one row per tag, in tagset order
    tag_rows = [l.split()[0] for l in lines[2 : 2 + len(TAGSET)]]
    assert tag_rows == list(TAGSET.names)


def test_report_as_dict_is_exact():
    gold = parse_tagged("a/N b/V c/N\n", TAGSET)
    predicted = parse_tagged("a/N b/V c/V\n", TAGSET)
    with pytest.warns(RuntimeWarning):
        rep = report(confusion(gold, predicted, TAGSET))
    doc = asdict(rep)
    assert doc["per_tag"]["N"]["recall"] == 0.5
    assert doc["accuracy"] == 2 / 3
    assert doc["weighted"]["recall"] == doc["accuracy"]
    assert doc["total"] == 3


def test_top_transitions_tie_break():
    # 0.0 and -0.0 are equal weights: both rankings list them in (previous,
    # next) index order, not name order, each with its sign in the model
    model = zero_model(TagSet(("V", "N", "ADJ")), {})
    model.transition_weights[:] = [[-0.0, 1.0, 0.0], [0.0, -0.0, -2.0], [-0.0, 0.5, 0.0]]
    ranking = top_transitions(model, 9)
    zeros = [("V", "V", "-0.0"), ("V", "ADJ", "0.0"), ("N", "V", "0.0"), ("N", "N", "-0.0"),
             ("ADJ", "V", "-0.0"), ("ADJ", "ADJ", "0.0")]
    top = [(a, b, repr(w)) for a, b, w in ranking.top]
    bottom = [(a, b, repr(w)) for a, b, w in ranking.bottom]
    assert top == [("V", "N", "1.0"), ("ADJ", "N", "0.5"), *zeros, ("N", "ADJ", "-2.0")]
    assert bottom == [("N", "ADJ", "-2.0"), *zeros, ("ADJ", "N", "0.5"), ("V", "N", "1.0")]


def test_top_transitions_extremes():
    model = zero_model(TAGSET, {})
    model.transition_weights[TAGSET.index("UNK"), TAGSET.index("UNK")] = 9.0
    model.transition_weights[TAGSET.index("PP"), TAGSET.index("NUM")] = -7.0
    ranking = top_transitions(model, 1)
    assert ranking.top == (("UNK", "UNK", 9.0),)
    assert ranking.bottom == (("PP", "NUM", -7.0),)


def test_top_and_bottom_disjoint_for_distinct_weights():
    model = zero_model(TagSet(("A", "B", "C")), {})
    rng = np.random.default_rng(3)
    model.transition_weights[:] = rng.permutation(9).reshape(3, 3).astype(float)
    ranking = top_transitions(model, 4)
    assert not set(ranking.top) & set(ranking.bottom)


def test_top_transitions_boundary_sections():
    model = zero_model(TagSet(("A", "B")), {})
    model.begin_weights[:] = [0.5, -0.5]
    model.end_weights[:] = [1.5, 2.5]
    ranking = top_transitions(model, 1)
    assert ranking.begin == (("A", 0.5), ("B", -0.5))
    assert ranking.end == (("A", 1.5), ("B", 2.5))


def test_top_transitions_validates_n():
    with pytest.raises(ValueError):
        top_transitions(zero_model(TAGSET, {}), 0)
