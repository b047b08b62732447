import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from nagatag.corpus import TagSet, parse_tagged
from nagatag.crf import (
    ModelParameters,
    TrainingMeta,
    build_attribute_index,
    build_lattice,
    load_model,
    nll_and_gradient,
    posterior_marginals,
    save_model,
    sequence_log_score,
    tag_corpus,
    tag_sentence,
    train_model,
    viterbi,
    zero_model,
)
from nagatag.features import FeatureConfig, sentence_attributes
from nagatag.optim import OptimConfig


def small_tagset(k):
    return TagSet(tuple("ABCDEFGH"[:k]))


def random_model(rng, k=4, n_attrs=6, scale=0.8):
    attribute_index = {f"a{i}": i for i in range(n_attrs)}
    npr = np.random.default_rng(rng.randrange(2**32))
    return ModelParameters(
        tagset=small_tagset(k),
        attribute_index=attribute_index,
        state_weights=scale * npr.normal(size=(n_attrs, k)),
        transition_weights=scale * npr.normal(size=(k, k)),
        begin_weights=scale * npr.normal(size=k),
        end_weights=scale * npr.normal(size=k),
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
    assert value == pytest.approx(math.log(4), abs=1e-12)
    # both active attributes: expected 1/4 everywhere, observed 1 at gold
    expected = np.full((2, 4), 0.25)
    expected[:, 2] -= 1.0
    assert np.allclose(grad.state, expected, atol=1e-12)
    begin_expected = np.full(4, 0.25)
    begin_expected[2] -= 1.0
    assert np.allclose(grad.begin, begin_expected, atol=1e-12)
    assert np.allclose(grad.end, begin_expected, atol=1e-12)
    assert np.allclose(grad.transitions, 0.0, atol=1e-12)


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
    model = ModelParameters(
        tagset=small_tagset(2),
        attribute_index={"x": 0, "y": 1},
        state_weights=np.array([[1e200, -1e200], [-1e200, 1e200]]),
        transition_weights=np.zeros((2, 2)),
        begin_weights=np.zeros(2),
        end_weights=np.zeros(2),
    )
    value, _ = nll_and_gradient(model, [([{"x"}, {"y"}], (0, 1))], c2=0.0)
    assert value == 0.0


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
        analytic = grad.pack()

        a, k = model.n_attributes, model.n_tags
        w0 = np.concatenate(
            [
                model.state_weights.ravel(),
                model.transition_weights.ravel(),
                model.begin_weights,
                model.end_weights,
            ]
        )

        def value_at(w):
            state = w[: a * k].reshape(a, k).copy()
            trans = w[a * k : a * k + k * k].reshape(k, k).copy()
            begin = w[a * k + k * k : a * k + k * k + k].copy()
            end = w[a * k + k * k + k :].copy()
            m = ModelParameters(
                model.tagset, model.attribute_index, state, trans, begin, end
            )
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
    g_split = np.zeros_like(g_all.pack())
    for part in (batch[:3], batch[3:]):
        v, g = nll_and_gradient(model, part, c2=0.0)
        v_split += v
        g_split += g.pack()
    assert v_all == pytest.approx(v_split, abs=1e-8)
    assert np.allclose(g_all.pack(), g_split, atol=1e-8)
    # singleton partition: batched path equals per-sentence path
    v_single = sum(nll_and_gradient(model, [b], c2=0.0)[0] for b in batch)
    assert v_all == pytest.approx(v_single, abs=1e-8)


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

    shifted = ModelParameters(
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

    model = ModelParameters(
        small_tagset(k), {a: i for i, a in enumerate(vocab)},
        half_integers(len(vocab), k), half_integers(k, k), half_integers(k), half_integers(k),
    )
    return model, sentences


@settings(max_examples=40, deadline=None)
@given(models_and_sentences())
def test_tag_corpus_matches_per_sentence_viterbi(case):
    model, sentences = case
    tagged = tag_corpus(model, FeatureConfig(), sentences)
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


def test_tag_sentence_basics():
    model = zero_model(small_tagset(3), {})
    sentence = tag_sentence(model, FeatureConfig(), ("hello",))
    assert len(sentence) == 1
    assert sentence.tokens[0].word == "hello"
    twice = tag_sentence(model, FeatureConfig(), ("a", "b", "c"))
    again = tag_sentence(model, FeatureConfig(), ("a", "b", "c"))
    assert twice == again
    with pytest.raises(ValueError):
        tag_sentence(model, FeatureConfig(), ())


def test_model_parameter_validation():
    tagset = small_tagset(2)
    with pytest.raises(ValueError):
        ModelParameters(tagset, {"x": 0, "y": 0}, np.zeros((2, 2)),
                        np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        ModelParameters(tagset, {"x": 0}, np.zeros((2, 2)),
                        np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        ModelParameters(tagset, {"x": 0}, np.zeros((1, 2)),
                        np.zeros((2, 2)), np.full(2, np.nan), np.zeros(2))


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
    model, trace = train_model(corpus, tagset, FeatureConfig(), config)
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
        predicted = tag_sentence(model, FeatureConfig(), sentence.words())
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


def test_save_load_round_trip(tmp_path):
    _, model, _ = train_tiny(c1=0.1, c2=0.1, max_iterations=30)
    path = str(tmp_path / "model.json")
    save_model(path, model, FeatureConfig(prefix_max=2))
    loaded, feature_config = load_model(path)

    assert feature_config == FeatureConfig(prefix_max=2)
    assert loaded.tagset.names == model.tagset.names
    assert loaded.attribute_index == model.attribute_index
    assert np.array_equal(loaded.state_weights, model.state_weights)
    assert np.array_equal(loaded.transition_weights, model.transition_weights)
    assert np.array_equal(loaded.begin_weights, model.begin_weights)
    assert np.array_equal(loaded.end_weights, model.end_weights)
    assert loaded.training == model.training


def test_load_accepts_layout_with_template_flags(tmp_path):
    import json

    _, model, _ = train_tiny(c1=0.1, c2=0.1, max_iterations=5)
    path = tmp_path / "model.json"
    save_model(str(path), model, FeatureConfig(prefix_max=2))
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["feature_config"] == {"prefix_max": 2, "suffix_max": 4}
    # the feature_config of format-1 files written when the template had
    # on/off switches: the affix lengths, then 13 switches, all on
    flags = ("word", "is_first", "is_last", "is_capitalized", "is_all_caps", "is_all_lower",
             "capitals_inside", "has_hyphen", "is_numeric", "prev_word", "next_word",
             "prefixes", "suffixes")
    flagged = tmp_path / "flagged.json"
    flagged.write_text(json.dumps(dict(
        doc, feature_config=dict(doc["feature_config"], **dict.fromkeys(flags, True))
    )), encoding="utf-8")

    loaded, feature_config = load_model(str(flagged))
    expected, expected_config = load_model(str(path))
    assert feature_config == expected_config == FeatureConfig(prefix_max=2)
    assert loaded.tagset == expected.tagset
    assert loaded.attribute_index == expected.attribute_index
    for name in ("state_weights", "transition_weights", "begin_weights", "end_weights"):
        assert np.array_equal(getattr(loaded, name), getattr(expected, name))
    assert loaded.training == expected.training

    resaved = tmp_path / "resaved.json"
    save_model(str(resaved), loaded, feature_config)
    assert resaved.read_bytes() == path.read_bytes()


def test_save_stores_only_nonzero_state_weights(tmp_path):
    import json

    _, model, _ = train_tiny(c1=0.5, c2=0.0, max_iterations=40)
    path = str(tmp_path / "model.json")
    save_model(path, model, FeatureConfig())
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["format_version"] == 1
    assert len(doc["state_weights"]) == int(np.count_nonzero(model.state_weights))
    for _, _, w in doc["state_weights"]:
        assert w != 0.0


def test_failed_save_leaves_previous_file(tmp_path):
    _, model, _ = train_tiny(c1=0.1, c2=0.1, max_iterations=5)
    path = tmp_path / "model.json"
    save_model(str(path), model, FeatureConfig())
    before = path.read_bytes()
    # an int64 iteration count is not JSON-serializable, and it comes last
    bad = dataclasses.replace(
        model, training=dataclasses.replace(model.training, iterations=np.int64(5))
    )
    with pytest.raises(TypeError):
        save_model(str(path), bad, FeatureConfig())
    assert path.read_bytes() == before


def test_load_rejects_bad_documents(tmp_path):
    import json

    _, model, _ = train_tiny(c1=0.1, c2=0.1, max_iterations=5)
    good_path = str(tmp_path / "model.json")
    save_model(good_path, model, FeatureConfig())
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
