import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import random
import tempfile
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import logsumexp

from nagatag import crf
from nagatag.cli import main
from nagatag.corpus import Sentence, TaggedCorpus, TagSet, parse_tagged
from nagatag.crf import (
    ModelParameters,
    TrainingMeta,
    _FOLD_CHUNK,
    _decode,
    _encode,
    _forward_backward,
    _nll_prepared,
    _Packing,
    _prepare,
    _vocabulary,
    build_attribute_index,
    load_model,
    save_model,
    tag_corpus,
    tag_sentence,
    train_model,
)
from nagatag.datagen import SynthConfig, generate
from nagatag.features import attribute_families
from nagatag.optim import OptimConfig, minimize
from tests.helpers import (
    _columns,
    attribute_index_oracle,
    build_lattice,
    nll_and_gradient,
    posterior_marginals,
    sentence_attributes,
    sequence_log_score,
    traced_peak,
    viterbi,
    zero_model,
)


def small_tagset(k):
    return TagSet(tuple("ABCDEFGH"[:k]))


def model_of(tagset, attribute_index, state, transitions, begin, end, training=None):
    """A model whose four weight blocks hold the given values: zero_model, each
    block written through its view of Θ, then checked as a constructed model is."""
    model = zero_model(tagset, attribute_index)
    model.state_weights[:] = state
    model.transition_weights[:] = transitions
    model.begin_weights[:] = begin
    model.end_weights[:] = end
    return dataclasses.replace(model, training=training)


def random_model(rng, k=4, n_attrs=6, scale=0.8):
    attribute_index = {f"a{i}": i for i in range(n_attrs)}
    npr = np.random.default_rng(rng.randrange(2**32))
    return model_of(
        small_tagset(k),
        attribute_index,
        scale * npr.normal(size=(n_attrs, k)),
        scale * npr.normal(size=(k, k)),
        scale * npr.normal(size=k),
        scale * npr.normal(size=k),
    )


def random_attrs(rng, model, t_len):
    vocab = list(model.attribute_index)
    out = []
    for _ in range(t_len):
        n = rng.randint(0, len(vocab))
        position = set(rng.sample(vocab, n))
        if rng.random() < 0.3:
            position.add("never-seen-attribute")
        out.append(position)
    return out


def oracle_path_scores(model, attrs):
    """Exhaustive path scores, computed without the dynamic program."""
    t_len, k = len(attrs), model.n_tags
    s = np.zeros((t_len, k))
    for t, position in enumerate(attrs):
        for a in position:
            i = model.attribute_index.get(a)
            if i is not None:
                s[t] += model.state_weights[i]
    scores = {}
    for path in itertools.product(range(k), repeat=t_len):
        sc = float(model.begin_weights[path[0]] + model.end_weights[path[-1]])
        sc += sum(float(s[t, y]) for t, y in enumerate(path))
        sc += sum(
            float(model.transition_weights[path[t - 1], path[t]])
            for t in range(1, t_len)
        )
        scores[path] = sc
    return scores


def test_log_z_uniform_models():
    model = zero_model(small_tagset(3), {})
    lattice = build_lattice(model, [set()])
    assert lattice.log_Z == pytest.approx(math.log(3), abs=1e-12)

    model = zero_model(small_tagset(2), {})
    lattice = build_lattice(model, [set(), set()])
    assert lattice.log_Z == pytest.approx(math.log(4), abs=1e-12)


def test_log_z_matches_enumeration():
    rng = random.Random(17)
    for _ in range(30):
        model = random_model(rng, k=rng.randint(2, 5))
        attrs = random_attrs(rng, model, rng.randint(1, 6))
        lattice = build_lattice(model, attrs)
        oracle = logsumexp(list(oracle_path_scores(model, attrs).values()))
        assert lattice.log_Z == pytest.approx(float(oracle), abs=1e-8)


def test_lattice_boundary_identities():
    rng = random.Random(23)
    for _ in range(20):
        model = random_model(rng)
        attrs = random_attrs(rng, model, rng.randint(1, 7))
        lattice = build_lattice(model, attrs)
        forward = logsumexp(lattice.log_alpha[-1] + model.end_weights)
        backward = logsumexp(
            lattice.log_beta[0] + model.begin_weights + lattice.state_scores[0]
        )
        assert forward == pytest.approx(lattice.log_Z, abs=1e-9)
        assert backward == pytest.approx(lattice.log_Z, abs=1e-9)


def test_build_lattice_rejects_empty():
    with pytest.raises(ValueError):
        build_lattice(zero_model(small_tagset(2), {}), [])


def test_sequence_log_score_zero_model():
    model = zero_model(small_tagset(3), {})
    attrs = [set(), set()]
    for path in itertools.product(range(3), repeat=2):
        assert sequence_log_score(model, attrs, path) == 0.0
    lattice = build_lattice(model, attrs)
    # p(y|x) = K^-T for every sequence under zero weights
    assert math.exp(0.0 - lattice.log_Z) == pytest.approx(1 / 9, abs=1e-12)


def test_sequence_probabilities_sum_to_one():
    rng = random.Random(31)
    for _ in range(10):
        model = random_model(rng, k=rng.randint(2, 4))
        attrs = random_attrs(rng, model, rng.randint(1, 5))
        lattice = build_lattice(model, attrs)
        total = sum(
            math.exp(sequence_log_score(model, attrs, path) - lattice.log_Z)
            for path in itertools.product(range(model.n_tags), repeat=len(attrs))
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_single_transition_weight_difference():
    model = zero_model(small_tagset(2), {})
    model.transition_weights[0, 1] = 5.0
    attrs = [set(), set()]
    d = sequence_log_score(model, attrs, (0, 1)) - sequence_log_score(model, attrs, (0, 0))
    assert d == 5.0


def test_sequence_log_score_validation():
    model = zero_model(small_tagset(2), {})
    with pytest.raises(ValueError):
        sequence_log_score(model, [set()], (0, 1))
    with pytest.raises(ValueError):
        sequence_log_score(model, [set()], (7,))


def test_marginals_uniform():
    model = zero_model(small_tagset(4), {})
    lattice = build_lattice(model, [set(), set(), set()])
    unary, pairwise = posterior_marginals(lattice, model)
    assert np.allclose(unary, 0.25, atol=1e-12)
    assert np.allclose(pairwise, 1 / 16, atol=1e-12)


def test_marginals_normalize_and_match_enumeration():
    rng = random.Random(41)
    for _ in range(15):
        model = random_model(rng, k=rng.randint(2, 4))
        t_len = rng.randint(1, 5)
        attrs = random_attrs(rng, model, t_len)
        lattice = build_lattice(model, attrs)
        unary, pairwise = posterior_marginals(lattice, model)

        assert np.all(unary >= 0) and np.all(unary <= 1 + 1e-12)
        assert np.allclose(unary.sum(axis=1), 1.0, atol=1e-9)
        if t_len > 1:
            assert np.allclose(pairwise.sum(axis=(1, 2)), 1.0, atol=1e-9)

        scores = oracle_path_scores(model, attrs)
        log_z = logsumexp(list(scores.values()))
        k = model.n_tags
        oracle_unary = np.zeros((t_len, k))
        oracle_pair = np.zeros((max(t_len - 1, 0), k, k))
        for path, sc in scores.items():
            p = math.exp(sc - log_z)
            for t, y in enumerate(path):
                oracle_unary[t, y] += p
            for t in range(1, t_len):
                oracle_pair[t - 1, path[t - 1], path[t]] += p
        assert np.allclose(unary, oracle_unary, atol=1e-8)
        assert np.allclose(pairwise, oracle_pair, atol=1e-8)


def test_nll_uniform_single_token():
    tagset = small_tagset(4)
    model = zero_model(tagset, {"x": 0, "y": 1})
    batch = [([{"x", "y"}], (2,))]
    value, grad = nll_and_gradient(model, batch, c2=0.0)
    grad = dataclasses.replace(model, weights=grad)
    assert value == pytest.approx(math.log(4), abs=1e-12)
    # both active attributes: expected 1/4 everywhere, observed 1 at gold
    expected = np.full((2, 4), 0.25)
    expected[:, 2] -= 1.0
    assert np.allclose(grad.state_weights, expected, atol=1e-12)
    begin_expected = np.full(4, 0.25)
    begin_expected[2] -= 1.0
    assert np.allclose(grad.begin_weights, begin_expected, atol=1e-12)
    assert np.allclose(grad.end_weights, begin_expected, atol=1e-12)
    assert np.allclose(grad.transition_weights, 0.0, atol=1e-12)


def test_nll_matches_enumeration():
    rng = random.Random(53)
    for c2 in (0.0, 0.3):
        model = random_model(rng, k=3)
        batch = []
        oracle_value = 0.0
        for _ in range(4):
            t_len = rng.randint(1, 5)
            attrs = random_attrs(rng, model, t_len)
            gold = tuple(rng.randrange(3) for _ in range(t_len))
            batch.append((attrs, gold))
            scores = oracle_path_scores(model, attrs)
            log_z = logsumexp(list(scores.values()))
            oracle_value -= scores[gold] - float(log_z)
        if c2:
            oracle_value += c2 * (
                np.sum(model.state_weights**2)
                + np.sum(model.transition_weights**2)
                + np.sum(model.begin_weights**2)
                + np.sum(model.end_weights**2)
            )
        value, _ = nll_and_gradient(model, batch, c2=c2)
        assert value == pytest.approx(oracle_value, abs=1e-8)


def test_nll_nonnegative_without_regularizer():
    rng = random.Random(59)
    for _ in range(10):
        model = random_model(rng, k=3)
        attrs = random_attrs(rng, model, rng.randint(1, 5))
        gold = tuple(rng.randrange(3) for _ in attrs)
        value, _ = nll_and_gradient(model, [(attrs, gold)], c2=0.0)
        assert value >= -1e-12


def test_nll_without_regularizer_ignores_weight_norm():
    # ||w||^2 overflows here although every weight is finite; with c2 = 0 the
    # objective must not depend on it
    model = model_of(
        small_tagset(2),
        {"x": 0, "y": 1},
        np.array([[1e200, -1e200], [-1e200, 1e200]]),
        np.zeros((2, 2)),
        np.zeros(2),
        np.zeros(2),
    )
    value, _ = nll_and_gradient(model, [([{"x"}, {"y"}], (0, 1))], c2=0.0)
    assert value == 0.0


@pytest.mark.parametrize("s, may_raise", [
    (300.0, False), (700.0, True), (745.0, True), (800.0, True), (2000.0, True),
])
def test_wide_score_spread_is_exact_or_raises(s, may_raise):
    # Each attribute and each transition sets the two tags s nats apart.
    # On [{x}, {y}] the paths AA, AB and BB score -s and BA scores -3s, so
    # log Z = log(3 + exp(-2s)) - s and the nll of the gold path AB is log 3.
    # Past 320 nats of transition spread the engine may raise ArithmeticError,
    # but it must never return another number.
    weights = np.array([[0.0, -s], [-s, 0.0]])
    model = model_of(
        TagSet(("A", "B")), {"x": 0, "y": 1}, weights, weights.copy(), np.zeros(2), np.zeros(2)
    )
    batch = [([{"x"}, {"y"}], (0, 1))]
    try:
        value, grad = nll_and_gradient(model, batch)
        log_z = build_lattice(model, batch[0][0]).log_Z
    except ArithmeticError:
        assert may_raise
        return
    assert value == pytest.approx(math.log(3), abs=1e-9)
    assert log_z == pytest.approx(math.log(3) - s, rel=1e-12)
    # each of AA, AB, BB has posterior 1/3; the gold path observes A -> B once
    assert np.allclose(dataclasses.replace(model, weights=grad).transition_weights,
                       [[1 / 3, -2 / 3], [0.0, 1 / 3]], atol=1e-12)


def test_best_path_through_an_underflowing_score_is_not_lost():
    # The best path, AAAA (log Z 1147.8), has a state score 887 nats below
    # the best at position 1, which underflows to 0 in the exp domain; the
    # begin, later state and end scores more than make up for it. Every scale
    # factor stays a normal float, and a check on them alone gave log Z 991.1
    # (the path BBBB). The engine must give the right value or raise.
    model = model_of(
        TagSet(("A", "B")), {f"p{t}": t for t in range(4)},
        np.array([[-157.1, -727.8], [-312.4, 575.1], [119.8, 224.6], [-123.7, -250.7]]),
        np.array([[597.6, -122.8], [-97.9, 597.4]]),
        np.array([-3.8, -4.6]), np.array([-167.8, -617.7]),
    )
    attrs = [{"p0"}, {"p1"}, {"p2"}, {"p3"}]
    oracle = float(logsumexp(list(oracle_path_scores(model, attrs).values())))
    assert oracle == pytest.approx(1147.8, abs=1e-9)
    try:
        log_z = build_lattice(model, attrs).log_Z
    except ArithmeticError:
        return
    assert log_z == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("block", ["transition_weights", "begin_weights", "end_weights"])
def test_spread_guard_raises_on_a_wide_transition_begin_or_end_block(block):
    # Forward-backward sees begin and end only as state scores of the first
    # and last position, yet the guard still bounds their spread: past 320
    # nats in any one of the three blocks both entry points raise, and below
    # it both match the enumeration.
    def model_spanning(spread):
        model = zero_model(TagSet(("A", "B")), {"x": 0})
        model.state_weights[:] = [[0.5, 0.0]]
        getattr(model, block).flat[-1] = -spread
        return model

    attrs, gold = [{"x"}, set(), {"x"}], (0, 0, 1)
    wide = model_spanning(400.0)
    with pytest.raises(ArithmeticError):
        nll_and_gradient(wide, [(attrs, gold)])
    with pytest.raises(ArithmeticError):
        build_lattice(wide, attrs)

    model = model_spanning(300.0)
    scores = oracle_path_scores(model, attrs)
    log_z = float(logsumexp(list(scores.values())))
    value, _ = nll_and_gradient(model, [(attrs, gold)])
    assert value == pytest.approx(log_z - scores[gold], abs=1e-9 * 300)
    assert build_lattice(model, attrs).log_Z == pytest.approx(log_z, abs=1e-12)


def test_training_backtracks_from_a_probe_forward_backward_cannot_evaluate():
    # The first line-search probe is a full step along minus the gradient at
    # zero: transition weights of observed minus expected counts, about a
    # thousand nats apart on 1,000 sentences. Forward-backward raises
    # ArithmeticError there, so the line search must halve the step, not stop.
    tagset = TagSet(("N", "V", "S"))
    corpus = parse_tagged("dora/N ghor/N ase/V ./S\nghor/N dora/N bonaise/V ./S\n" * 500, tagset)
    batch = [(sentence_attributes(s.words()), s.tags()) for s in corpus]
    zero = zero_model(tagset, build_attribute_index(corpus))
    _, grad = nll_and_gradient(zero, batch)
    probe = dataclasses.replace(zero, weights=-grad)
    with pytest.raises(ArithmeticError):
        nll_and_gradient(probe, batch)
    _, trace = train_model(corpus, tagset, OptimConfig(c1=0.0, c2=0.1))
    assert trace.converged
    assert trace.records[0].step_size < 1.0


@st.composite
def wide_weight_batches(draw):
    """(model, batch, scale): a model with K <= 4 and weights uniform in
    [-scale, scale], scale up to 1000, and one to three tagged sentences of
    length T <= 5, lengths repeating or not."""
    k = draw(st.integers(2, 4))
    scale = draw(st.one_of(st.floats(0.1, 50.0), st.floats(50.0, 1000.0)))
    npr = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def weights(*shape):
        return scale * npr.uniform(-1.0, 1.0, size=shape)

    model = model_of(
        small_tagset(k), {"a0": 0, "a1": 1, "a2": 2},
        weights(3, k), weights(k, k), weights(k), weights(k),
    )
    batch = []
    for _ in range(draw(st.integers(1, 3))):
        t_len = draw(st.integers(1, 5))
        attrs = [set(draw(st.lists(st.sampled_from(["a0", "a1", "a2"]), max_size=2)))
                 for _ in range(t_len)]
        gold = tuple(draw(st.lists(st.integers(0, k - 1), min_size=t_len, max_size=t_len)))
        batch.append((attrs, gold))
    return model, batch, scale


@settings(max_examples=100, deadline=None)
@given(wide_weight_batches())
def test_nll_and_transition_gradient_match_enumeration_at_wide_scales(case):
    # Up to scale 50 no spread reaches 320 nats and the values must match the
    # enumeration; past it the engine may raise ArithmeticError instead, but
    # it must never return other values.
    model, batch, scale = case
    k = model.n_tags
    oracle_value, magnitude = 0.0, 1.0
    expected = np.zeros((k, k))
    observed = np.zeros((k, k))
    for attrs, gold in batch:
        scores = oracle_path_scores(model, attrs)
        log_z = float(logsumexp(list(scores.values())))
        oracle_value += log_z - scores[gold]
        magnitude = max(magnitude, abs(log_z), abs(scores[gold]))
        for path, sc in scores.items():
            p = math.exp(sc - log_z)
            for t in range(1, len(path)):
                expected[path[t - 1], path[t]] += p
        for t in range(1, len(gold)):
            observed[gold[t - 1], gold[t]] += 1
    try:
        value, grad = nll_and_gradient(model, batch)
    except ArithmeticError:
        assert scale > 50.0
        return
    # relative to the size of the log Z and gold scores it is the difference of
    assert abs(value - oracle_value) <= 1e-9 * len(batch) * magnitude
    assert np.allclose(dataclasses.replace(model, weights=grad).transition_weights,
                       expected - observed, rtol=0, atol=1e-9)


def test_gradient_matches_finite_differences():
    rng = random.Random(61)
    for _ in range(3):
        model = random_model(rng, k=3, n_attrs=4, scale=0.5)
        batch = []
        for _ in range(3):
            t_len = rng.randint(1, 4)
            attrs = random_attrs(rng, model, t_len)
            gold = tuple(rng.randrange(3) for _ in range(t_len))
            batch.append((attrs, gold))
        c2 = 0.2
        _, grad = nll_and_gradient(model, batch, c2=c2)
        analytic = grad.ravel()
        w0 = model.weights.ravel()

        def value_at(w):
            m = dataclasses.replace(model, weights=w.reshape(model.weights.shape))
            v, _ = nll_and_gradient(m, batch, c2=c2)
            return v

        h = 1e-5
        fd = np.empty_like(w0)
        for i in range(w0.size):
            wp, wm = w0.copy(), w0.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (value_at(wp) - value_at(wm)) / (2 * h)
        assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-7)


def _training_corpus(n_sentences):
    return generate(SynthConfig(seed=0, n_sentences=n_sentences))


def _training_inputs(n_sentences):
    """_nll_prepared's inputs for a generated corpus, as train_model builds them."""
    corpus = _training_corpus(n_sentences)
    K = len(TagSet())
    sentences = [sentence.words() for sentence in corpus]
    prepared = _prepare({}, K, list(map(len, sentences)),
                        attribute_families(sentences),
                        [sentence.tags() for sentence in corpus], grow=True)
    return K, prepared


def _weight_count(X, K):
    """The length of the flat weights w = Θ.ravel() for an encoded matrix X."""
    return (X.shape[1] + K) * K


def _dense(observed, size):
    """_prepare's observed (index, count) pairs scattered into a zero array."""
    dense = np.zeros(size)
    dense[observed.index] = observed.count
    return dense


@pytest.mark.parametrize("c2", [0.0, 0.1])
def test_gradient_has_the_bits_of_the_whole_sum_built_first(c2):
    # the gradient as 2 c2 w - observed, built over all of Θ, then the
    # transition counts and X.T @ U added: _nll_prepared must give it bit for bit,
    # signed zeros included
    K, (X, packing, observed) = _training_inputs(200)
    n = _weight_count(X, K)
    rng = np.random.default_rng(5)
    u = rng.random(n)
    w = np.where(u < 0.4, 0.1 * rng.standard_normal(n), 0.0)
    w[u > 0.9] = -0.0
    assert w.size > 2 * _FOLD_CHUNK  # the fold runs in several chunks
    theta = w.reshape(-1, K)
    a, b, _, transitions = _forward_backward(X @ theta[:-K], theta[-K:], packing)
    expected = np.multiply(w, 2.0 * c2).reshape(-1, K)
    expected -= _dense(observed, n).reshape(-1, K)
    expected[-K:] += transitions
    expected[:-K] += X.T @ np.multiply(a, b, out=a)

    _, G = _nll_prepared(w, K, X, packing, observed, c2)
    assert G.shape == w.shape
    assert G.tobytes() == expected.tobytes()


def test_objective_call_holds_at_most_two_weight_sized_arrays():
    # the gradient is X.T @ U grown in place: no second Θ-sized array, such as
    # 2 c2 w - observed built whole, lives beside it during the call
    K, (X, packing, observed) = _training_inputs(300)
    w = np.zeros(_weight_count(X, K))
    w[np.random.default_rng(0).random(w.size) < 0.05] = 0.01
    peak = traced_peak(_nll_prepared, w, K, X, packing, observed, 0.1)
    assert peak <= 2.0 * w.nbytes


def test_observed_pairs_are_the_bincount_counts():
    # the pairs scatter back to the dense counts of (column, tag) over X's
    # entries and (previous tag, tag) over the rows with a predecessor, as two
    # np.bincount calls over Θ's flat layout count them
    corpus = _training_corpus(300)
    K, (X, packing, observed) = _training_inputs(300)
    tags = np.empty_like(packing.order)  # the tag of each row
    tags[packing.order] = np.concatenate([sentence.tags() for sentence in corpus])
    entry_tags = np.repeat(tags, np.diff(X.indptr))
    later = slice(packing.steps[0].stop, None)
    bincounts = np.concatenate([
        np.bincount(X.indices.astype(np.intp) * K + entry_tags, minlength=X.shape[1] * K),
        np.bincount(tags[packing.prev[later]] * K + tags[later], minlength=K * K),
    ], dtype=np.float64)

    index, count = observed
    assert index.dtype == np.intp and count.dtype == np.float64
    assert (np.diff(index) > 0).all()  # sorted, each index once
    assert (count > 0).all()
    assert index[-1] < _weight_count(X, K)
    assert np.array_equal(_dense(observed, bincounts.size), bincounts)
    # most of Θ is never observed
    assert len(index) < 0.2 * bincounts.size


def test_training_peak_holds_no_dead_gradient_or_dense_counts():
    # c1 = c2 = 0.1 over two iterations, the first with three rejected
    # line-search trials: 7.6 times w.nbytes traced, against 9.7 when a rejected
    # trial's gradient, the dense observed counts, |g| in the active set and
    # the backward vectors during X.T @ U were alive at the peak
    corpus = _training_corpus(300)
    K, (X, _, _) = _training_inputs(300)
    w_nbytes = _weight_count(X, K) * 8
    config = OptimConfig(c1=0.1, c2=0.1, max_iterations=2)
    _, trace = train_model(corpus, TagSet(), config)
    assert trace.records[0].evaluations > 1  # a trial was rejected
    peak = traced_peak(train_model, corpus, TagSet(), config)
    assert peak <= 8.5 * w_nbytes


def test_training_starts_from_an_x0_that_holds_no_weight_sized_buffer(monkeypatch):
    # minimize copies x0 on entry, so a Θ-sized array of zeros would sit idle
    # through the whole of training
    seen = []

    def spy(objective, x0, *args, **kwargs):
        base = x0
        while isinstance(base.base, np.ndarray):
            base = base.base
        seen.append((x0.size, base.nbytes, bool((x0 == 0).all())))
        return minimize(objective, x0, *args, **kwargs)

    monkeypatch.setattr(crf, "minimize", spy)
    train_model(_training_corpus(20), TagSet(), OptimConfig(max_iterations=1))
    [(size, nbytes, zero)] = seen
    assert size > 1000 and zero
    assert nbytes <= 8


def test_one_tag_corpus_trains_and_has_a_gradient():
    # with K = 1 scipy returns X.T @ U as a view, which the gradient must not grow in place
    tagset = TagSet(("N",))
    corpus = parse_tagged("dora/N ase/N\nmoyna/N\n", tagset)
    model, trace = train_model(corpus, tagset, OptimConfig(c1=0.1, c2=0.1))
    assert trace.final_objective == 0.0
    batch = [(sentence_attributes(s.words()), s.tags()) for s in corpus]
    weights = np.linspace(-0.5, 0.5, model.weights.size).reshape(model.weights.shape)
    value, grad = nll_and_gradient(dataclasses.replace(model, weights=weights), batch, c2=0.1)
    # one tag: log Z is the gold score, so only the L2 term is left
    assert value == pytest.approx(0.1 * (weights ** 2).sum(), abs=1e-12)
    assert np.allclose(grad, 2 * 0.1 * weights, rtol=0, atol=1e-12)


def test_nll_additive_over_partitions():
    rng = random.Random(67)
    model = random_model(rng, k=3)
    batch = []
    for _ in range(6):
        t_len = rng.randint(1, 5)
        attrs = random_attrs(rng, model, t_len)
        gold = tuple(rng.randrange(3) for _ in range(t_len))
        batch.append((attrs, gold))
    v_all, g_all = nll_and_gradient(model, batch, c2=0.0)
    v_split = 0.0
    g_split = np.zeros_like(g_all)
    for part in (batch[:3], batch[3:]):
        v, g = nll_and_gradient(model, part, c2=0.0)
        v_split += v
        g_split += g
    assert v_all == pytest.approx(v_split, abs=1e-8)
    assert np.allclose(g_all, g_split, atol=1e-8)
    # singleton partition: batched path equals per-sentence path
    v_single = sum(nll_and_gradient(model, [b], c2=0.0)[0] for b in batch)
    assert v_all == pytest.approx(v_single, abs=1e-8)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.integers(2, 4),
       st.integers(0, 2**32 - 1))
@example([3, 1, 5, 1, 2, 5], 3, 0)  # length-1 sentences between longer ones
@example([1, 1, 1], 2, 1)  # one step only: no transitions to count
def test_batch_value_and_gradient_are_sums_over_singletons(lengths, k, seed):
    # The encoder interleaves the sentences of a batch row by row; pairing a
    # token with another sentence's tag or predecessor shows up as a batch
    # that differs from its sentences taken one at a time.
    rng = random.Random(seed)
    model = random_model(rng, k=k)
    batch = [(random_attrs(rng, model, t_len), tuple(rng.randrange(k) for _ in range(t_len)))
             for t_len in lengths]
    value, grad = nll_and_gradient(model, batch)
    singles = [nll_and_gradient(model, [sentence]) for sentence in batch]
    assert value == pytest.approx(sum(v for v, _ in singles), rel=1e-9)
    summed = sum(g for _, g in singles)
    assert np.allclose(grad, summed, rtol=1e-9, atol=1e-9 * np.abs(summed).max())


def test_nll_validation():
    model = zero_model(small_tagset(2), {"x": 0})
    with pytest.raises(ValueError):
        nll_and_gradient(model, [], c2=0.0)
    with pytest.raises(ValueError):
        nll_and_gradient(model, [([{"x"}], (0, 1))], c2=0.0)
    with pytest.raises(ValueError):
        nll_and_gradient(model, [([{"x"}], (5,))], c2=0.0)


def test_state_score_shift_leaves_marginals_and_path():
    rng = random.Random(71)
    model = random_model(rng, k=3, n_attrs=5)
    # an attribute active only at position 1 shifts that column uniformly
    attrs = [{"a0"}, {"a1"}, {"a2", "a3"}]
    lattice = build_lattice(model, attrs)
    unary, pairwise = posterior_marginals(lattice, model)
    path, _ = viterbi(model, attrs)

    shifted = model_of(
        model.tagset,
        model.attribute_index,
        model.state_weights + np.where(
            np.arange(model.n_attributes)[:, None] == 1, 2.5, 0.0
        ),
        model.transition_weights,
        model.begin_weights,
        model.end_weights,
    )
    lattice2 = build_lattice(shifted, attrs)
    unary2, pairwise2 = posterior_marginals(lattice2, shifted)
    path2, _ = viterbi(shifted, attrs)
    assert lattice2.log_Z == pytest.approx(lattice.log_Z + 2.5, abs=1e-9)
    assert np.allclose(unary, unary2, atol=1e-9)
    assert np.allclose(pairwise, pairwise2, atol=1e-9)
    assert path == path2


def test_viterbi_zero_model_tie_break():
    model = zero_model(small_tagset(4), {})
    path, score = viterbi(model, [set(), set(), set()])
    assert path == [0, 0, 0]
    assert score == 0.0


def test_viterbi_hand_case():
    model = zero_model(small_tagset(2), {"p0": 0})
    model.state_weights[0] = [1.0, 0.0]
    model.transition_weights[0, 1] = 2.0
    path, score = viterbi(model, [{"p0"}, set()])
    assert path == [0, 1]
    assert score == 3.0


def test_viterbi_matches_enumeration():
    rng = random.Random(73)
    for _ in range(25):
        model = random_model(rng, k=rng.randint(2, 4))
        attrs = random_attrs(rng, model, rng.randint(1, 6))
        path, score = viterbi(model, attrs)
        scores = oracle_path_scores(model, attrs)
        best = max(scores.values())
        assert score == pytest.approx(best, abs=1e-9)
        assert scores[tuple(path)] == pytest.approx(best, abs=1e-9)
        assert score == pytest.approx(
            sequence_log_score(model, attrs, path), abs=1e-9
        )


def test_viterbi_rejects_empty():
    with pytest.raises(ValueError):
        viterbi(zero_model(small_tagset(2), {}), [])


def exact_path_scores(model, attrs):
    """Path scores in exact rational arithmetic, so sums of weights near the
    float range neither overflow nor round."""
    k = model.n_tags
    state = [[sum(Fraction(model.state_weights[model.attribute_index[a], y])
                  for a in position if a in model.attribute_index) for y in range(k)]
             for position in attrs]
    return {
        path: Fraction(model.begin_weights[path[0]]) + Fraction(model.end_weights[path[-1]])
        + sum(state[t][y] for t, y in enumerate(path))
        + sum(Fraction(model.transition_weights[y, z]) for y, z in zip(path, path[1:]))
        for path in itertools.product(range(k), repeat=len(attrs))
    }


@st.composite
def huge_weight_models(draw):
    """(model, attrs): K <= 3, three attributes, T <= 4, and weights anywhere
    in [-1e308, 1e308], so that sums of a few of them can overflow."""
    k = draw(st.integers(2, 3))

    def weights(*shape):
        values = draw(st.lists(st.floats(-1e308, 1e308), min_size=math.prod(shape),
                               max_size=math.prod(shape)))
        return np.array(values).reshape(shape)

    model = model_of(small_tagset(k), {"a0": 0, "a1": 1, "a2": 2},
                     weights(3, k), weights(k, k), weights(k), weights(k))
    attrs = [draw(st.sets(st.sampled_from(["a0", "a1", "a2"])))
             for _ in range(draw(st.integers(1, 4)))]
    return model, attrs


@settings(max_examples=200, deadline=None)
@given(huge_weight_models())
@example((model_of(small_tagset(2), {"a0": 0, "a1": 1, "a2": 2},
                   np.array([[1e308, 1e308], [1e308, 1e308], [0.0, 1e308]]),
                   np.zeros((2, 2)), np.zeros(2), np.zeros(2)),
          [{"a0", "a1", "a2"}]))
@example((model_of(small_tagset(2), {"a0": 0, "a1": 1, "a2": 2},
                   np.array([[-1e308, -1e308], [0.0, 0.0], [1e308, 0.0]]),
                   np.zeros((2, 2)), np.array([-1e308, -1e308]), np.array([1e308, 0.0])),
          [{"a0"}, {"a2"}]))  # -inf at every first-token tag meets +inf at the last token
def test_viterbi_matches_exact_enumeration_or_raises(case):
    # Where float sums overflow, inf ties inf and argmax would return the
    # first tag, whatever the exact scores say; the decoder must raise
    # ArithmeticError instead. Where no sum can reach the float range it must
    # not raise.
    model, attrs = case
    scores = exact_path_scores(model, attrs)
    best = max(scores.values())

    def largest(weights):
        return Fraction(np.abs(weights).max())

    # the largest term of every kind at every position: bounds each float sum
    bound = (len(attrs) * (sum(map(largest, model.state_weights)) + largest(model.transition_weights))
             + largest(model.begin_weights) + largest(model.end_weights))
    try:
        path, score = viterbi(model, attrs)
    except ArithmeticError:
        assert bound > Fraction(1e307)
        return
    assert math.isfinite(score)
    tolerance = bound * Fraction(1e-12)
    assert abs(Fraction(score) - best) <= tolerance
    assert best - scores[tuple(path)] <= tolerance


# Property tests: random small models over real feature strings, scored on
# mixed-length batches. Half-integer weights make tied paths common, so the
# tie-break is exercised as well.
PROPERTY_WORDS = ("dora", "ase", "Saki", "loi", "ghor-e", "12", ".")


@st.composite
def models_and_sentences(draw):
    sentences = draw(st.lists(
        st.lists(st.sampled_from(PROPERTY_WORDS), min_size=1, max_size=5).map(tuple),
        min_size=1, max_size=8,
    ))
    vocab = sorted({a for words in sentences
                    for position in sentence_attributes(words) for a in position})
    # leave a third of the attributes out of the model (or none), so some
    # are unseen at decode time
    dropped = draw(st.integers(0, 3))
    vocab = [a for i, a in enumerate(vocab) if i % 3 != dropped]
    k = draw(st.integers(2, 4))
    npr = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def half_integers(*shape):
        return npr.integers(-3, 4, size=shape) / 2.0

    model = model_of(
        small_tagset(k), {a: i for i, a in enumerate(vocab)},
        half_integers(len(vocab), k), half_integers(k, k), half_integers(k), half_integers(k),
    )
    return model, sentences


@settings(max_examples=40, deadline=None)
@given(models_and_sentences())
def test_tag_corpus_matches_per_sentence_viterbi(case):
    model, sentences = case
    tagged = tag_corpus(model, sentences)
    assert [s.words() for s in tagged] == sentences
    for words, sentence in zip(sentences, tagged):
        path, _ = viterbi(model, sentence_attributes(words))
        assert list(sentence.tags()) == path


@settings(max_examples=40, deadline=None)
@given(models_and_sentences(), st.data())
def test_viterbi_score_is_path_score_and_maximal(case, data):
    model, sentences = case
    for words in sentences:
        attrs = sentence_attributes(words)
        path, score = viterbi(model, attrs)
        assert score == pytest.approx(sequence_log_score(model, attrs, path), abs=1e-9)
        for _ in range(3):
            other = data.draw(st.lists(
                st.integers(0, model.n_tags - 1), min_size=len(words), max_size=len(words)
            ))
            assert sequence_log_score(model, attrs, other) <= score + 1e-9


@settings(max_examples=40, deadline=None)
@given(models_and_sentences())
def test_lattice_unary_marginals_sum_to_one(case):
    model, sentences = case
    for words in sentences:
        lattice = build_lattice(model, sentence_attributes(words))
        unary, _ = posterior_marginals(lattice, model)
        assert np.allclose(unary.sum(axis=1), 1.0, atol=1e-9)


def test_tag_corpus_of_no_sentences_is_empty():
    model = zero_model(small_tagset(3), {"a0": 0})
    assert tag_corpus(model, []) == TaggedCorpus(())


def test_tag_sentence_basics():
    model = zero_model(small_tagset(3), {})
    sentence = tag_sentence(model, ("hello",))
    assert len(sentence) == 1
    assert sentence.words()[0] == "hello"
    twice = tag_sentence(model, ("a", "b", "c"))
    again = tag_sentence(model, ("a", "b", "c"))
    assert twice == again
    with pytest.raises(ValueError):
        tag_sentence(model, ())


def test_model_parameter_validation():
    # one attribute and two tags: Θ is (1 + 2 + 2, 2)
    tagset = small_tagset(2)
    ModelParameters(tagset, {"x": 0}, np.zeros((5, 2)))
    with pytest.raises(ValueError, match="bijectively"):
        ModelParameters(tagset, {"x": 0, "y": 0}, np.zeros((6, 2)))
    with pytest.raises(ValueError, match=r"weights must be \(5, 2\)"):
        ModelParameters(tagset, {"x": 0}, np.zeros((6, 2)))  # wrong in A
    with pytest.raises(ValueError, match=r"weights must be \(5, 2\)"):
        ModelParameters(tagset, {"x": 0}, np.zeros((5, 3)))  # wrong in K
    for block in ("state_weights", "begin_weights", "end_weights", "transition_weights"):
        model = zero_model(tagset, {"x": 0})
        getattr(model, block).flat[-1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ModelParameters(tagset, {"x": 0}, model.weights)


def test_a_model_holds_one_contiguous_theta_that_its_blocks_view(tmp_path):
    # The four block names are views of Θ, not copies, so nothing stacks or
    # copies the weights on the way to the objective, a lattice or the decoder.
    _, trained, _ = train_tiny(c1=0.1, c2=0.1, max_iterations=5)
    path = str(tmp_path / "model.json")
    save_model(path, trained)
    loaded, _ = load_model(path)
    for model in (trained, loaded, zero_model(small_tagset(3), {"a0": 0, "a1": 1})):
        A, K = model.n_attributes, model.n_tags
        assert model.weights.shape == (A + 2 + K, K)
        assert model.weights.flags.c_contiguous
        for block in ("state_weights", "begin_weights", "end_weights", "transition_weights"):
            assert np.shares_memory(getattr(model, block), model.weights)


TRAIN_TEXT = (
    "dora/N ase/V ./S\n"
    "moyna/N ghor/N ase/V ./S\n"
    "dora/N ghor/N bonaise/V ./S\n"
    "moyna/N ase/V ./S\n"
    "ghor/N dora/N bonaise/V ./S\n"
)


def train_tiny(c1, c2=0.0, max_iterations=80):
    tagset = TagSet(("N", "V", "S"))
    corpus = parse_tagged(TRAIN_TEXT, tagset)
    config = OptimConfig(
        c1=c1, c2=c2, max_iterations=max_iterations, gradient_tolerance=1e-6
    )
    model, trace = train_model(corpus, tagset, config)
    return corpus, model, trace


def test_train_starts_at_uniform_objective():
    corpus, model, trace = train_tiny(c1=0.0, c2=0.1)
    n_tokens = corpus.token_count
    assert trace.initial_objective == pytest.approx(
        n_tokens * math.log(3), abs=1e-9
    )
    assert trace.final_objective < trace.initial_objective
    assert model.training is not None
    assert model.training.iterations == trace.iterations


def test_train_fits_training_data():
    corpus, model, _ = train_tiny(c1=0.0, c2=0.05)
    for sentence in corpus:
        predicted = tag_sentence(model, sentence.words())
        assert predicted.tags() == sentence.tags()


def test_train_converges_to_small_gradient():
    _, _, trace = train_tiny(c1=0.0, c2=0.1, max_iterations=300)
    assert trace.converged
    assert trace.records[-1].gradient_max_norm <= 1e-6


def test_l1_training_is_sparser():
    _, dense_model, _ = train_tiny(c1=0.0, c2=0.0)
    _, sparse_model, _ = train_tiny(c1=0.5, c2=0.0)
    dense_nnz = np.count_nonzero(dense_model.state_weights)
    sparse_nnz = np.count_nonzero(sparse_model.state_weights)
    assert sparse_nnz < dense_nnz


def test_train_rejects_empty_corpus():
    from nagatag.corpus import TaggedCorpus

    with pytest.raises(ValueError):
        train_model(TaggedCorpus(), small_tagset(2))


def test_build_attribute_index_sorted_and_complete():
    tagset = TagSet(("N", "V", "S"))
    corpus = parse_tagged(TRAIN_TEXT, tagset)
    index = build_attribute_index(corpus)
    attrs = list(index)
    assert attrs == sorted(attrs)
    assert index[attrs[0]] == 0
    assert "word=dora" in index
    assert "is_first=true" in index


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_attribute_index_is_the_oracles_on_generated_corpora(seed):
    corpus = generate(SynthConfig(seed=seed))
    assert list(build_attribute_index(corpus).items()) == list(
        attribute_index_oracle(corpus).items())


# words holding "=", "/", "#", digits, capitals, hyphens and non-ASCII
# letters, many of them prefixes or suffixes of others
INDEX_WORDS = st.text("aZǅ-7٣/=#é.", min_size=1, max_size=7)


@given(st.lists(st.lists(INDEX_WORDS, min_size=1, max_size=6), min_size=1, max_size=5))
@example([["a"]])
# neighbour values no token holds: no prev_word is "a", no next_word is "b"
@example([["b", "a"]])
@example([["ab", "abc", "b"], ["abcd", "=", "a=b"]])
def test_build_attribute_index_is_the_oracles(sentences):
    corpus = TaggedCorpus(tuple(Sentence(tuple(words), (0,) * len(words))
                                for words in sentences))
    assert list(build_attribute_index(corpus).items()) == list(
        attribute_index_oracle(corpus).items())


def test_training_index_and_matrix_match_the_fixed_vocabulary_pass():
    # single-token sentences carry both markers on one row
    tagset = TagSet(("N", "V", "S"))
    corpus = parse_tagged(TRAIN_TEXT + "dora/N\n./S\nMoyna/N ghor-ghor/N 12/N ./S\n", tagset)
    index = attribute_index_oracle(corpus)
    model, _ = train_model(corpus, tagset, OptimConfig(c1=0.1, max_iterations=30))
    # the oracle's vocabulary less the attributes whose rows ended all zero,
    # renumbered in the same order
    kept = [a for a in index if a in model.attribute_index]
    assert list(model.attribute_index.items()) == list(zip(kept, range(len(kept))))
    assert 0 < len(kept) < len(index)
    assert model.state_weights.any(axis=1).all()
    dense, _ = train_model(corpus, tagset, OptimConfig(c1=0.0, max_iterations=3))
    assert list(dense.attribute_index.items()) == list(index.items())

    tags = [s.tags() for s in corpus]
    grown: dict[str, list[str]] = {}
    sentences = [s.words() for s in corpus]
    X_grown, packing_grown, observed_grown = _prepare(
        grown, len(tagset), [len(words) for words in sentences], attribute_families(sentences), tags,
        grow=True)
    # the oracle's attributes, numbered 0..A-1 in first-row order
    grown_index = {key + value: i for key, value, i in _grown_triples(grown)}
    assert sorted(grown_index) == list(index)
    assert sorted(grown_index.values()) == list(range(len(index)))
    # the matrix and counts of the fixed-vocabulary pass under the grown vocabulary
    X, packing, observed = _prepare(_vocabulary(grown_index), len(tagset),
                                    *_columns(sentence_attributes(s.words()) for s in corpus), tags)
    assert X_grown.shape == X.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(X_grown, name), getattr(X, name))
    assert np.array_equal(packing_grown.order, packing.order)
    observed_grown, observed = (_dense(o, _weight_count(X, len(tagset)))
                                for o in (observed_grown, observed))
    assert np.array_equal(observed_grown, observed)


def unpruned(model, index):
    """model with its state rows scattered back into a zero Θ over the full
    vocabulary index: the model training would give without pruning."""
    full = zero_model(model.tagset, index)
    full.state_weights[[index[a] for a in model.attribute_index]] = model.state_weights
    full.weights[-model.n_tags - 2:] = model.weights[-model.n_tags - 2:]
    return dataclasses.replace(full, training=model.training)


def test_pruned_and_full_models_give_bitwise_equal_paths_and_scores():
    tagset = TagSet(("N", "V", "S"))
    corpus = parse_tagged(TRAIN_TEXT, tagset)
    index = attribute_index_oracle(corpus)
    model, _ = train_model(corpus, tagset, OptimConfig(c1=0.1, max_iterations=30))
    full = unpruned(model, index)
    assert model.n_attributes < full.n_attributes

    unseen = parse_tagged("Moyna/N ghor-ghor/N ase/V 12/N ./S\nkolom/N\n", tagset)
    sentences = [s for c in (corpus, unseen) for s in c]
    words = [s.words() for s in sentences]
    lengths = [len(w) for w in words]
    for (path, score), (full_path, full_score) in zip(
            _decode(model, lengths, attribute_families(words)),
            _decode(full, lengths, attribute_families(words)), strict=True):
        assert np.array_equal(path, full_path)
        assert score.hex() == full_score.hex()
    for sentence in sentences:
        attrs = sentence_attributes(sentence.words())
        assert (sequence_log_score(model, attrs, sentence.tags()).hex()
                == sequence_log_score(full, attrs, sentence.tags()).hex())


def test_a_model_without_state_weights_saves_loads_and_tags(tmp_path):
    _, model, _ = train_tiny(c1=100.0, max_iterations=5)
    assert model.attribute_index == {} and model.weights.shape == (5, 3)
    path = str(tmp_path / "model.json")
    save_model(path, model)
    loaded, _ = load_model(path)
    assert loaded == model
    tagged = tag_corpus(loaded, [("dora", "ase", "."), ("kolom",)])
    assert [len(s) for s in tagged] == [3, 1]


def test_a_full_size_model_file_still_loads_and_tags_as_the_pruned_one(tmp_path):
    corpus, model, _ = train_tiny(c1=0.1, c2=0.1, max_iterations=30)
    full = unpruned(model, attribute_index_oracle(corpus))
    assert model.n_attributes < full.n_attributes
    raw = tmp_path / "raw.txt"
    raw.write_text("dora ase .\nMoyna ghor-ghor bonaise 12 .\nkolom\n", encoding="utf-8")
    outputs = []
    for name, saved in (("pruned", model), ("full", full)):
        path = str(tmp_path / f"{name}.json")
        save_model(path, saved)
        assert load_model(path)[0] == saved
        out = tmp_path / f"{name}.txt"
        assert main(["tag", str(raw), "--model", path, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_growing_encoder_rejects_an_empty_sentence_and_encodes_no_sentences():
    grown: dict[str, list[str]] = {}
    with pytest.raises(ValueError):
        _encode(grown, *_columns([[["word=a"]], []]), grow=True)
    assert grown == {}  # checked before the vocabulary is touched
    X, packing = _encode(grown, *_columns([]), grow=True)
    assert X.shape == (0, 2) and packing.steps == []


def test_columns_refuse_two_attributes_of_one_family_at_one_position():
    for position in (["a=1", "a=2"], ["a=1", "a=1"], ["a", "a"], ["=v", "="]):
        with pytest.raises(ValueError, match="two attributes of family"):
            _columns([[["b=1"], position]])
    # one value per family at each position, however many positions hold it
    assert _columns([[["a=1", "a", "b=1"], ["a=1"]], [["a=2"]]]) == (
        [2, 1], [("a", [0, -1, -1], [""]), ("a=", [0, 0, 1], ["1", "2"]),
                 ("b=", [0, -1, -1], ["1"])])


def _grown_triples(grown: dict[str, list[str]]) -> list[tuple[str, str, int]]:
    """(key, value, column) for each attribute of a grown vocabulary: its
    families' values numbered on from each other, in order."""
    columns = itertools.count()
    return [(key, value, next(columns)) for key, values in grown.items() for value in values]


def _encode_oracle(attribute_index: dict[str, int], attrs_list, grow: bool = False):
    """The string-keyed encoder _encode replaced, as the reference it is held
    to: every attribute string looked up whole, with setdefault when growing
    in first-seen order and one renumbering at the end, by family key, then
    by the first packed row that holds the attribute and its place there."""
    get, setdefault = attribute_index.get, attribute_index.setdefault
    steps: list[tuple[array, array]] = []  # per step: column ids, row sizes
    lengths = []
    for attrs in attrs_list:
        if len(attrs) == 0:
            raise ValueError("cannot encode an empty sentence")
        lengths.append(len(attrs))
        steps.extend((array("i"), array("i")) for _ in range(len(attrs) - len(steps)))
        if grow:
            rows = [[setdefault(a, len(attribute_index)) for a in position] for position in attrs]
        else:
            rows = [[i for i in map(get, position) if i is not None] for position in attrs]
        rows[0].append(-2)
        rows[-1].append(-1)
        for (cols, sizes), row in zip(steps, rows):
            cols.extend(row)
            sizes.append(len(row))
    ends = np.cumsum(lengths, dtype=np.intp)
    token = np.argsort(np.arange(sum(lengths)) - np.repeat(ends - lengths, lengths), kind="stable")
    order = np.argsort(token)
    bounds = np.cumsum([0] + [len(sizes) for _, sizes in steps])
    packing = _Packing([slice(*pair) for pair in itertools.pairwise(bounds)],
                       order[token - 1], order, ends)

    cols, sizes = array("i"), array("i")  # in packed row order
    for step_cols, step_sizes in steps:
        cols += step_cols
        sizes += step_sizes
    A = len(attribute_index)
    column = np.arange(A + 2, dtype=np.intc)  # id -> column; -2 and -1 index the markers
    if grow:
        names = list(attribute_index)
        first_seen = [names[i] for i in dict.fromkeys(cols) if i >= 0]
        ranked = sorted(first_seen, key=lambda a: "".join(a.partition("=")[:2]))  # stable
        column[np.fromiter(map(attribute_index.__getitem__, ranked), np.intc, A)] = np.arange(A)
        attribute_index.clear()
        attribute_index.update(zip(ranked, range(A)))
    indptr = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(np.frombuffer(sizes, dtype=np.intc), out=indptr[1:])
    X = sparse.csr_matrix((np.ones(len(cols)), column[np.frombuffer(cols, dtype=np.intc)], indptr),
                          shape=(len(order), A + 2))
    X.sort_indices()
    return X, packing


# Attributes with and without "=", an empty key or value, a second "=", and
# keys that sort differently with and without their "=" ("a-b=" < "a=" but
# "a" < "a-b"). A position holds at most one attribute of each family: a
# family carries one code per token, so it has no room for a second value.
ORACLE_ATTRIBUTES = ("a", "a=", "a=1", "a=1=2", "a=-", "=v", "=", "", "x", "x=", "x=a",
                     "a-b", "a-b=1", "ab=2", "b=a=")
ORACLE_INPUTS = st.lists(st.lists(st.lists(st.sampled_from(ORACLE_ATTRIBUTES), max_size=5,
                                           unique_by=lambda a: "".join(a.partition("=")[:2])),
                                  min_size=1, max_size=4), max_size=4)


def assert_same_encoding(encoded, expected):
    (X, packing), (X_expected, packing_expected) = encoded, expected
    assert X.shape == X_expected.shape
    assert np.array_equal(X.toarray(), X_expected.toarray())
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(X, name), getattr(X_expected, name))
    assert packing.steps == packing_expected.steps
    for name in ("prev", "order", "ends"):
        assert np.array_equal(getattr(packing, name), getattr(packing_expected, name))


@settings(max_examples=300, deadline=None)
@given(ORACLE_INPUTS, st.data())
@example([[["a", "a=1=2", "=v", "", "a-b"], ["x", "x=", "a=1", "b=a="]],
          [["a-b=1", "a=-", "a"], ["a=", "=", "a-b=1"]]], None)
def test_family_encoder_agrees_with_the_string_oracle(attrs_list, data):
    index: dict[str, int] = {}
    expected = _encode_oracle(index, attrs_list, grow=True)
    grown: dict[str, list[str]] = {}
    encoded = _encode(grown, *_columns(attrs_list), grow=True)
    grown_index = [(key + value, i) for key, value, i in _grown_triples(grown)]
    assert grown_index == list(index.items())
    assert sorted(dict(grown_index)) == sorted({a for attrs in attrs_list for position in attrs
                                                for a in position})
    assert_same_encoding(encoded, expected)
    # the fixed-vocabulary encode under the grown vocabulary
    assert_same_encoding(_encode(_vocabulary(dict(grown_index)), *_columns(attrs_list)), expected)

    # a fixed vocabulary: any attributes, seen in the input or not, numbered in any order
    if data is None:
        chosen, ids = ["a=1", "a", "x=", "zz=9", "a=-", "a-b=1"], [3, 5, 0, 1, 4, 2]
    else:
        chosen = data.draw(st.lists(st.sampled_from(ORACLE_ATTRIBUTES + ("zz=9",)), unique=True))
        ids = data.draw(st.permutations(range(len(chosen))))
    fixed = dict(zip(chosen, ids))
    assert_same_encoding(_encode(_vocabulary(fixed), *_columns(attrs_list)),
                         _encode_oracle(fixed, attrs_list))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.text("aAb-1", min_size=1, max_size=5), min_size=1, max_size=6),
                min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_first_row_numbering_keeps_the_products_of_the_sorted_numbering(sentences, seed):
    lengths = [len(words) for words in sentences]
    grown: dict[str, list[str]] = {}
    X, _ = _encode(grown, lengths, attribute_families(sentences), grow=True)
    triples = _grown_triples(grown)
    index = {key + value: i for key, value, i in triples}
    ranked = sorted(index)
    X_sorted, _ = _encode(_vocabulary(dict(zip(ranked, range(len(ranked))))), lengths,
                          attribute_families(sentences))
    A, K = len(index), 3
    perm = np.array([index[a] for a in ranked] + [A, A + 1])  # the grown column of each sorted one
    # weights of many magnitudes, so that summing in another order shows in the bits
    rng = np.random.default_rng(seed)
    theta_sorted = rng.standard_normal((A + 2, K)) * 10.0 ** rng.integers(-8, 9, (A + 2, K))
    theta = np.empty_like(theta_sorted)
    theta[perm] = theta_sorted
    assert (X @ theta).tobytes() == (X_sorted @ theta_sorted).tobytes()
    U = rng.standard_normal((X.shape[0], K)) * 10.0 ** rng.integers(-8, 9, (X.shape[0], K))
    assert (X.T @ U)[perm].tobytes() == (X_sorted.T @ U).tobytes()

    # each family's columns ascend with the first row that holds them
    entries = X.tocoo()
    first_row = np.full(A, X.shape[0])
    np.minimum.at(first_row, entries.col[entries.col < A], entries.row[entries.col < A])
    for family in grown:
        assert np.all(np.diff(first_row[[i for key, _, i in triples if key == family]]) > 0)


# words over three letters, so that an input has far fewer word types than
# tokens, and of 1 to 6 letters, around the affix lengths 3 and 4
FEW_TYPES = st.lists(st.lists(st.text("abc", min_size=1, max_size=6), min_size=1, max_size=5),
                     min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(FEW_TYPES, st.data())
@example([["a"], ["ab", "abc", "a", "abcabc"], ["b"], ["abc", "abc"]], None)
def test_families_encode_as_the_oracle_encodes_their_attribute_strings(sentences, data):
    lengths = [len(words) for words in sentences]
    attrs_list = [sentence_attributes(words) for words in sentences]
    index: dict[str, int] = {}
    expected = _encode_oracle(index, attrs_list, grow=True)
    grown: dict[str, list[str]] = {}
    assert_same_encoding(_encode(grown, lengths, attribute_families(sentences), grow=True),
                         expected)
    assert [(key + value, i) for key, value, i in _grown_triples(grown)] == list(index.items())

    # a fixed vocabulary: seen attributes and unseen ones, numbered in any order
    candidates = sorted(index) + ["word=cab", "prefix-2=cc", "zz=9"]
    if data is None:
        chosen = candidates[::2]
        ids = list(reversed(range(len(chosen))))
    else:
        chosen = data.draw(st.lists(st.sampled_from(candidates), unique=True))
        ids = data.draw(st.permutations(range(len(chosen))))
    fixed = dict(zip(chosen, ids))
    assert_same_encoding(_encode(_vocabulary(fixed), lengths, attribute_families(sentences)),
                         _encode_oracle(fixed, attrs_list))


def test_encoding_and_tagging_keep_their_pinned_bytes(tmp_path):
    """sha256 of the grown-vocabulary X and vocabulary of a seeded corpus, of
    a model file of seeded random weights over its attributes, and of
    `nagatag tag`'s output under that model. None goes through BLAS, so the
    pins hold on any machine."""
    corpus = generate(SynthConfig(seed=7, n_sentences=300))
    sentences = [s.words() for s in corpus]
    grown: dict[str, list[str]] = {}
    X, _ = _encode(grown, [len(words) for words in sentences], attribute_families(sentences),
                   grow=True)
    vocabulary = [[key, value, i] for key, value, i in _grown_triples(grown)]
    digests = [hashlib.sha256(data).hexdigest() for data in (
        X.indptr.astype("<i4").tobytes(), X.indices.astype("<i4").tobytes(),
        json.dumps(vocabulary, ensure_ascii=False).encode())]
    assert digests == ["620d5b991be96a941203b6ff7f6d3748d935f572f6c682805e239444f16c1e43",
                       "383e70c8b9affe43cdf3c1882054e70f6092f48f55f8f6b79fca54ff5bfb76e4",
                       "48304fa7ace3c361dfe11795700e1bdb3ef1ac9115f9df5196c9872be565d648"]

    index = build_attribute_index(corpus)
    K = len(SynthConfig.tagset)
    weights = np.random.default_rng(0).standard_normal((len(index) + 2 + K, K))
    save_model(str(tmp_path / "model.json"), ModelParameters(SynthConfig.tagset, index, weights))
    assert (hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest()
            == "5092d71300e7d67a7ed7fc764170f336a88074c4b1becc96d59ef1fab1afd724")
    raw = tmp_path / "raw.txt"
    raw.write_text("".join(" ".join(words) + "\n" for words in sentences), encoding="utf-8")
    out = tmp_path / "tagged.txt"
    assert main(["tag", str(raw), "--model", str(tmp_path / "model.json"),
                 "--output", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "443f8f5bf38b56b9cee98165c9b34d9df3dcc1ee752aae82ce26057d499db628")


def test_a_model_splits_its_index_by_family_once():
    model = zero_model(small_tagset(2), {"word=a": 1, "is_first=true": 0, "x": 2, "x=": 3})
    assert model.vocabulary == {"word=": {"a": 1}, "is_first=": {"true": 0}, "x": {"": 2},
                                "x=": {"": 3}}
    tag_corpus(model, [("a", "b")])
    assert model.vocabulary is model.vocabulary


def test_models_compare_by_value():
    tagset = small_tagset(2)
    assert zero_model(tagset, {"x": 0}) == zero_model(tagset, {"x": 0})
    other = zero_model(tagset, {"x": 0})
    other.transition_weights[1, 0] = 0.5
    assert zero_model(tagset, {"x": 0}) != other


def test_save_load_round_trip(tmp_path):
    _, model, _ = train_tiny(c1=0.1, c2=0.1, max_iterations=30)
    path = str(tmp_path / "model.json")
    save_model(path, model)
    loaded, _ = load_model(path)

    assert loaded == model


def test_load_accepts_layout_with_template_flags(tmp_path):
    import json

    _, model, _ = train_tiny(c1=0.1, c2=0.1, max_iterations=5)
    path = tmp_path / "model.json"
    save_model(str(path), model)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["feature_config"] == {"prefix_max": 3, "suffix_max": 4}
    # the feature_config of format-1 files written when the template had
    # on/off switches: the affix lengths, then 13 switches, all on
    flags = ("word", "is_first", "is_last", "is_capitalized", "is_all_caps", "is_all_lower",
             "capitals_inside", "has_hyphen", "is_numeric", "prev_word", "next_word",
             "prefixes", "suffixes")
    flagged = tmp_path / "flagged.json"
    flagged.write_text(json.dumps(dict(
        doc, feature_config=dict(doc["feature_config"], **dict.fromkeys(flags, True))
    )), encoding="utf-8")

    loaded, _ = load_model(str(flagged))
    expected, _ = load_model(str(path))
    assert loaded.tagset == expected.tagset
    assert loaded.attribute_index == expected.attribute_index
    for name in ("state_weights", "transition_weights", "begin_weights", "end_weights"):
        assert np.array_equal(getattr(loaded, name), getattr(expected, name))
    assert loaded.training == expected.training

    resaved = tmp_path / "resaved.json"
    save_model(str(resaved), loaded)
    assert resaved.read_bytes() == path.read_bytes()


def test_save_stores_only_nonzero_state_weights(tmp_path):
    import json

    _, model, _ = train_tiny(c1=0.5, c2=0.0, max_iterations=40)
    path = str(tmp_path / "model.json")
    save_model(path, model)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["format_version"] == 1
    assert len(doc["state_weights"]) == int(np.count_nonzero(model.state_weights))
    for _, _, w in doc["state_weights"]:
        assert w != 0.0


def test_failed_save_leaves_previous_file(tmp_path):
    _, model, _ = train_tiny(c1=0.1, c2=0.1, max_iterations=5)
    path = tmp_path / "model.json"
    save_model(str(path), model)
    before = path.read_bytes()
    # an int64 iteration count is not JSON-serializable, and it comes last
    bad = dataclasses.replace(
        model, training=dataclasses.replace(model.training, iterations=np.int64(5))
    )
    with pytest.raises(TypeError):
        save_model(str(path), bad)
    assert path.read_bytes() == before


def test_load_rejects_bad_documents(tmp_path):
    import json

    _, model, _ = train_tiny(c1=0.1, c2=0.1, max_iterations=5)
    good_path = str(tmp_path / "model.json")
    save_model(good_path, model)
    with open(good_path, encoding="utf-8") as fh:
        doc = json.load(fh)

    bad = dict(doc, format_version=99)
    bad_path = str(tmp_path / "bad.json")
    with open(bad_path, "w", encoding="utf-8") as fh:
        json.dump(bad, fh)
    with pytest.raises(ValueError):
        load_model(bad_path)

    bad = dict(doc, state_weights=[[10**6, 0, 1.0]])
    with open(bad_path, "w", encoding="utf-8") as fh:
        json.dump(bad, fh)
    with pytest.raises(ValueError):
        load_model(bad_path)


def nested(depth, leaf=0.0):
    """leaf inside depth levels of one-element JSON lists."""
    return functools.reduce(lambda value, _: [value], range(depth), leaf)


HUGE = 10**400  # a JSON integer beyond float range


@functools.cache
def small_model_document():
    """A valid saved model with two tags and two attributes, as parsed JSON."""
    model = model_of(
        TagSet(("N", "V")), {"a": 0, "b": 1},
        np.array([[0.5, 0.0], [0.0, -1.0]]), np.array([[0.1, -0.2], [0.3, 0.0]]),
        np.array([0.1, 0.0]), np.array([0.0, -0.5]), training=TrainingMeta(0.1, 0.1, 3, 1.5),
    )
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "model.json")
        save_model(path, model)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def load_document(doc):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return load_model(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("begin", nested(33)),
        ("begin", [HUGE, 0.0]),
        ("end", [0.0, -HUGE]),
        ("transitions", [[0.0, HUGE], [0.0, 0.0]]),
        ("state_weights", [[0, 0, HUGE]]),
        ("format_version", True),
        ("format_version", 1.0),
    ],
    ids=["deep-begin", "huge-int-begin", "huge-int-end", "huge-int-transition",
         "huge-int-state-weight", "bool-format-version", "float-format-version"],
)
def test_load_rejects_weights_numpy_cannot_take(field, value):
    # numpy raised RuntimeError past 32 dimensions and OverflowError on the
    # integers; each is a ValueError that names the field
    match = "model format" if field == "format_version" else field
    with pytest.raises(ValueError, match=match):
        load_document(dict(small_model_document(), **{field: value}))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.integers(2**1024, HUGE) | st.integers(-HUGE, -(2**1024))
    | st.integers(33, 80).map(nested),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(small_model_document())),
       st.sampled_from(["delete", "replace", "element"]), st.integers(0, 3), json_values)
@example("begin", "replace", 0, nested(33))
@example("begin", "element", 0, HUGE)
@example("state_weights", "element", 0, [0, 1, -HUGE])
def test_mutated_model_file_loads_or_raises_value_error(key, how, index, value):
    # delete one top-level key, or replace its value, or one element of a
    # list- or object-valued key, with an arbitrary JSON value
    doc = dict(small_model_document())
    old = doc[key]
    if how == "delete":
        del doc[key]
    elif how == "element" and isinstance(old, list) and old:
        doc[key] = [value if i == index % len(old) else item for i, item in enumerate(old)]
    elif how == "element" and isinstance(old, dict) and old:
        doc[key] = dict(old, **{sorted(old)[index % len(old)]: value})
    else:
        doc[key] = value
    try:
        load_document(doc)
    except ValueError:
        pass
