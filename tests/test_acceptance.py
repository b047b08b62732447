"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Every expected value here is computed by an independent route inside this
file (exhaustive enumeration, finite differences, direct run-length formula)
or is a frozen published figure. Nothing is copied from the library's output.
"""

import dataclasses
import itertools
import random
import time
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from nagatag.corpus import (
    AgreementReport,
    TaggedCorpus,
    TagSet,
    parse_tagged,
    serialize_tagged,
)
from nagatag.crf import (
    ModelParameters,
    build_lattice,
    load_model,
    nll_and_gradient,
    posterior_marginals,
    save_model,
    tag_sentence,
    train_model,
    viterbi,
    zero_model,
)
from nagatag.datagen import SynthConfig, generate
from nagatag.evaluation import ConfusionMatrix, confusion, report
from nagatag.optim import OptimConfig, minimize
from nagatag.phonotactics import VOWELS, analyze_word, classify, draw_word


def _verdict(capsys, name: str, problems: list[str]):
    line = f"{'FAIL' if problems else 'PASS'}: {name}"
    if problems:
        line += " -- " + "; ".join(problems)
    with capsys.disabled():
        print(line, flush=True)
    assert not problems, line


# ---------------------------------------------------------------- oracles

def _random_instance(rng: np.random.Generator, max_T=6, max_K=5):
    """Random model plus per-position attribute activations."""
    K = int(rng.integers(2, max_K + 1))
    T = int(rng.integers(1, max_T + 1))
    A = int(rng.integers(2, 7))
    names = [f"a{i}" for i in range(A)]
    model = zero_model(TagSet(tuple("ABCDE"[:K])), {n: i for i, n in enumerate(names)})
    model.state_weights[:] = rng.uniform(-2, 2, size=(A, K))
    model.transition_weights[:] = rng.uniform(-2, 2, size=(K, K))
    model.begin_weights[:] = rng.uniform(-2, 2, size=K)
    model.end_weights[:] = rng.uniform(-2, 2, size=K)
    attrs = []
    for _ in range(T):
        active = [n for n in names if rng.random() < 0.5]
        if rng.random() < 0.2:
            active.append("never-indexed")
        attrs.append(tuple(active))
    return model, tuple(attrs)


def _oracle_state_scores(model: ModelParameters, attrs) -> np.ndarray:
    T, K = len(attrs), model.n_tags
    s = np.zeros((T, K))
    for t, position in enumerate(attrs):
        for a in position:
            if a in model.attribute_index:
                s[t] += model.state_weights[model.attribute_index[a]]
    return s


def _oracle_enumerate(model: ModelParameters, attrs):
    """Score every one of the K^T paths explicitly. No dynamic programming."""
    s = _oracle_state_scores(model, attrs)
    T, K = s.shape
    paths = np.array(list(itertools.product(range(K), repeat=T)), dtype=np.int64)
    scores = model.begin_weights[paths[:, 0]] + model.end_weights[paths[:, -1]]
    for t in range(T):
        scores = scores + s[t, paths[:, t]]
    for t in range(T - 1):
        scores = scores + model.transition_weights[paths[:, t], paths[:, t + 1]]
    return paths, scores


def _oracle_marginals(paths, scores, T, K):
    log_Z = logsumexp(scores)
    unary = np.zeros((T, K))
    for t in range(T):
        for k in range(K):
            mask = paths[:, t] == k
            unary[t, k] = np.exp(logsumexp(scores[mask]) - log_Z)
    pairwise = np.zeros((max(T - 1, 0), K, K))
    for t in range(T - 1):
        for i in range(K):
            for j in range(K):
                mask = (paths[:, t] == i) & (paths[:, t + 1] == j)
                if mask.any():
                    pairwise[t, i, j] = np.exp(logsumexp(scores[mask]) - log_Z)
    return float(log_Z), unary, pairwise


# Seven schematic syllable formulas as consonant-run bounds around the
# vowel slots: skeleton C^a0 V C^a1 V ... matches iff every run length
# falls inside its (lo, hi) window. Checked by arithmetic, not regex.
_TEMPLATE_RUNS = {
    "mono-1": ((0, 2), (0, 2)),
    "di-1": ((0, 0), (0, 3), (0, 1)),
    "di-2a": ((1, 2), (1, 3), (0, 2)),
    "di-2b": ((1, 2), (0, 2), (0, 2)),
    "tri-1": ((0, 0), (1, 3), (1, 3), (0, 1)),
    "tri-2": ((1, 2), (0, 2), (0, 3), (0, 1)),
    "tetra-1": ((0, 1), (1, 2), (1, 1), (1, 2), (0, 1)),
}


def _oracle_classify(skeleton: str):
    if skeleton in ("V", "VV") or skeleton.count("V") > 4:
        return ()
    runs = [len(part) for part in skeleton.split("V")]
    matches = []
    for name, bounds in _TEMPLATE_RUNS.items():
        if len(runs) == len(bounds) and all(
            lo <= r <= hi for r, (lo, hi) in zip(runs, bounds)
        ):
            matches.append((name, len(bounds) - 1))
    return tuple(matches)


# ------------------------------------------------------- shared training

@pytest.fixture(scope="module")
def synth_task():
    """700-sentence training corpus, 300-sentence held-out corpus, and the
    three trained models the learnability and sparsity criteria share."""
    train_corpus = generate(SynthConfig(seed=11, n_sentences=700))
    eval_corpus = generate(SynthConfig(seed=12, n_sentences=300))
    tagset = SynthConfig().tagset
    models = {}
    timings = {}
    for c1 in (0.1, 0.5, 0.0):
        started = time.perf_counter()
        model, _ = train_model(
            train_corpus,
            tagset,
            OptimConfig(c1=c1, c2=0.1, max_iterations=100),
        )
        timings[c1] = time.perf_counter() - started
        models[c1] = model
    return train_corpus, eval_corpus, tagset, models, timings


# ------------------------------------------------------------- criteria

def test_criterion_1_lattice_oracle_equivalence(capsys):
    problems = []
    rng = np.random.default_rng(20260817)
    started = time.perf_counter()
    for trial in range(200):
        model, attrs = _random_instance(rng)
        paths, scores = _oracle_enumerate(model, attrs)
        T, K = len(attrs), model.n_tags
        log_Z, unary, pairwise = _oracle_marginals(paths, scores, T, K)

        lattice = build_lattice(model, attrs)
        if abs(lattice.log_Z - log_Z) > 1e-6:
            problems.append(f"trial {trial}: log_Z off by {abs(lattice.log_Z - log_Z):.2e}")
            break
        u, p = posterior_marginals(lattice, model)
        if np.max(np.abs(u - unary)) > 1e-8:
            problems.append(f"trial {trial}: unary marginals off")
            break
        if T > 1 and np.max(np.abs(p - pairwise)) > 1e-8:
            problems.append(f"trial {trial}: pairwise marginals off")
            break
        path, score = viterbi(model, attrs)
        best = float(np.max(scores))
        s = _oracle_state_scores(model, attrs)
        path_score = (
            float(model.begin_weights[path[0]] + model.end_weights[path[-1]])
            + sum(s[t, path[t]] for t in range(T))
            + sum(
                model.transition_weights[path[t], path[t + 1]] for t in range(T - 1)
            )
        )
        if abs(score - best) > 1e-8 or abs(path_score - best) > 1e-8:
            problems.append(f"trial {trial}: viterbi score mismatch")
            break
        # Exact ties admit several argmax paths; demand path identity only
        # when the maximum is unique.
        runner_up = np.partition(scores, -2)[-2] if scores.size > 1 else -np.inf
        if best - runner_up > 1e-9 and path != list(paths[int(np.argmax(scores))]):
            problems.append(f"trial {trial}: viterbi path mismatch")
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 30:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(
        capsys,
        f"1. lattice matches exhaustive enumeration on 200 random models "
        f"(log_Z 1e-6, marginals 1e-8, viterbi path+score) in {elapsed:.1f}s",
        problems,
    )


def test_criterion_2_gradient_matches_finite_differences(capsys):
    problems = []
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    h = 1e-5
    for trial in range(50):
        model, _ = _random_instance(rng, max_T=4, max_K=4)
        K = model.n_tags
        names = list(model.attribute_index)
        batch = []
        for _ in range(int(rng.integers(1, 4))):
            T = int(rng.integers(1, 5))
            attrs = tuple(
                tuple(n for n in names if rng.random() < 0.5) for _ in range(T)
            )
            tags = [int(rng.integers(0, K)) for _ in range(T)]
            batch.append((attrs, tags))
        c2 = (0.0, 0.1, 0.3)[trial % 3]

        def value(w):
            m = dataclasses.replace(model, weights=w.reshape(model.weights.shape))
            return nll_and_gradient(m, batch, c2)[0]

        w0 = model.weights.ravel()
        numeric = np.zeros_like(w0)
        for i in range(w0.size):
            wp, wm = w0.copy(), w0.copy()
            wp[i] += h
            wm[i] -= h
            numeric[i] = (value(wp) - value(wm)) / (2 * h)
        _, grad = nll_and_gradient(model, batch, c2)
        # each block read through its view of a model holding the gradient
        numeric = dataclasses.replace(model, weights=numeric.reshape(grad.shape))
        analytic = dataclasses.replace(model, weights=grad)
        blocks = {
            "state": "state_weights",
            "transitions": "transition_weights",
            "begin": "begin_weights",
            "end": "end_weights",
        }
        for name, view in blocks.items():
            fd, exact = getattr(numeric, view), getattr(analytic, view)
            diff = np.max(np.abs(fd - exact))
            scale = max(np.max(np.abs(fd)), 1e-2)
            if diff / scale > 1e-4:
                problems.append(
                    f"trial {trial} block {name}: rel err {diff / scale:.2e}"
                )
        if problems:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 30:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(
        capsys,
        f"2. analytic gradient matches central differences (h=1e-5, rel 1e-4) "
        f"on 50 random instances in {elapsed:.1f}s",
        problems,
    )


def test_criterion_3_normalization_identities(capsys):
    problems = []
    rng = np.random.default_rng(99)
    for trial in range(50):
        model, attrs = _random_instance(rng)
        lattice = build_lattice(model, attrs)
        unary, pairwise = posterior_marginals(lattice, model)
        if np.max(np.abs(unary.sum(axis=1) - 1.0)) > 1e-9:
            problems.append(f"trial {trial}: unary rows do not sum to 1")
            break
        if len(attrs) > 1 and np.max(np.abs(pairwise.sum(axis=(1, 2)) - 1.0)) > 1e-9:
            problems.append(f"trial {trial}: pairwise slices do not sum to 1")
            break
        forward = logsumexp(lattice.log_alpha[-1] + model.end_weights)
        backward = logsumexp(
            lattice.log_beta[0] + model.begin_weights + lattice.state_scores[0]
        )
        if abs(forward - lattice.log_Z) > 1e-9 or abs(backward - lattice.log_Z) > 1e-9:
            problems.append(f"trial {trial}: log_Z identity violated")
            break
    _verdict(
        capsys,
        "3. marginals normalize to 1 and both log_Z recursion identities hold (1e-9)",
        problems,
    )


def test_criterion_4_optimizer_reference_problems(capsys):
    problems = []
    traces = []

    a = np.array([3.0, -1.0, 2.0, 0.5])

    def quadratic(x):
        return float(np.sum((x - a) ** 2)), 2.0 * (x - a)

    x, trace = minimize(quadratic, np.zeros(4), OptimConfig(c1=0.0, c2=0.0, gradient_tolerance=1e-9))
    traces.append(trace)
    if np.max(np.abs(x - a)) > 1e-8:
        problems.append(f"quadratic off by {np.max(np.abs(x - a)):.2e}")

    def rosenbrock(x):
        value = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        grad = np.array(
            [
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ]
        )
        return float(value), grad

    x, trace = minimize(
        rosenbrock,
        np.array([-1.2, 1.0]),
        OptimConfig(c1=0.0, c2=0.0, max_iterations=200, gradient_tolerance=1e-10),
    )
    traces.append(trace)
    if np.max(np.abs(x - 1.0)) > 1e-6:
        problems.append(f"rosenbrock off by {np.max(np.abs(x - 1.0)):.2e}")

    c1 = 1.0

    def one_dim(x):
        return float(0.5 * (x[0] - 3.0) ** 2), np.array([x[0] - 3.0])

    x, trace = minimize(one_dim, np.zeros(1), OptimConfig(c1=c1, c2=0.0, gradient_tolerance=1e-10))
    traces.append(trace)
    if abs(x[0] - (3.0 - c1)) > 1e-8:
        problems.append(f"soft threshold off by {abs(x[0] - 2.0):.2e}")

    for trace in traces:
        values = [trace.initial_objective] + [r.objective for r in trace.records]
        if any(b > a for a, b in zip(values, values[1:])):
            problems.append("objective trace increased")
    _verdict(
        capsys,
        "4. optimizer: quadratic (1e-8), rosenbrock to (1,1) (1e-6), "
        "1-D L1 soft threshold 3-c1 (1e-8), monotone traces",
        problems,
    )


def test_criterion_5_published_confusion_rows(capsys):
    tagset = TagSet()
    entries = {
        ("SYM", "SYM"): 516, ("SYM", "FW"): 8,
        ("NUM", "NUM"): 100, ("NUM", "FW"): 5, ("NUM", "N"): 2, ("NUM", "SYM"): 2,
        ("CONJ", "CONJ"): 145, ("CONJ", "PP"): 21,
        ("DET", "DET"): 31, ("DET", "QN"): 10, ("DET", "PP"): 6, ("DET", "ADJ"): 4,
        ("FW", "FW"): 80, ("FW", "SYM"): 1, ("FW", "NUM"): 1, ("FW", "CONJ"): 1,
        ("ADJ", "ADJ"): 150, ("ADJ", "CONJ"): 1, ("ADJ", "DET"): 4,
        ("CMP", "CMP"): 20, ("CMP", "CONJ"): 3,
        ("PP", "PP"): 200, ("PP", "CONJ"): 1,
        ("UNK", "UNK"): 50, ("UNK", "CONJ"): 1,
        ("ADV", "ADV"): 40, ("INTJ", "INTJ"): 5, ("N", "N"): 400,
        ("PN", "PN"): 30, ("QN", "QN"): 15, ("V", "V"): 300,
    }
    counts = np.zeros((len(tagset.names), len(tagset.names)), dtype=np.int64)
    for (gold, pred), n in entries.items():
        counts[tagset.index(gold), tagset.index(pred)] = n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = report(ConfusionMatrix(tagset, counts))

    expected = {
        "SYM": (0.99, 0.98),
        "NUM": (0.99, 0.92),
        "CONJ": (0.95, 0.87),
    }
    problems = []
    for tag, (precision, recall) in expected.items():
        m = rep.per_tag[tag]
        if round(m.precision, 2) != precision or round(m.recall, 2) != recall:
            problems.append(
                f"{tag}: got {round(m.precision, 2)}/{round(m.recall, 2)}, "
                f"want {precision}/{recall}"
            )
    det = rep.per_tag["DET"]
    if det.support != 51:
        problems.append(f"DET support {det.support} != 51")
    if round(det.recall, 2) != 0.61:
        problems.append(f"DET recall {round(det.recall, 2)} != 0.61")
    _verdict(
        capsys,
        "5. published per-tag rows reproduced to 2 decimals "
        "(SYM 0.99/0.98, NUM 0.99/0.92, CONJ 0.95/0.87, DET recall 0.61 at support 51)",
        problems,
    )


def test_criterion_6_published_agreement_rates(capsys):
    rep = AgreementReport(total_tokens=1864, disagreed=125, disagreed_on_excluded_tag=102)
    problems = []
    if round(rep.rate * 100, 2) != 6.71:
        problems.append(f"rate {round(rep.rate * 100, 2)} != 6.71")
    if round(rep.rate_excluding * 100, 2) != 1.23:
        problems.append(f"excluded rate {round(rep.rate_excluding * 100, 2)} != 1.23")
    _verdict(
        capsys,
        "6. annotator disagreement (1864, 125, 102) gives 6.71% and 1.23%",
        problems,
    )


def test_criterion_7_end_to_end_learnability(capsys, synth_task):
    train_corpus, eval_corpus, tagset, models, timings = synth_task
    model = models[0.1]
    started = time.perf_counter()
    predicted_sentences = tuple(
        tag_sentence(model, sentence.words()) for sentence in eval_corpus
    )
    tagging_elapsed = time.perf_counter() - started
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = report(confusion(eval_corpus, TaggedCorpus(predicted_sentences), tagset))
    elapsed = timings[0.1] + tagging_elapsed
    problems = []
    if rep.accuracy < 0.95:
        problems.append(f"accuracy {rep.accuracy:.4f} < 0.95")
    if rep.weighted.f1 < 0.95:
        problems.append(f"weighted F1 {rep.weighted.f1:.4f} < 0.95")
    if elapsed >= 120:
        problems.append(f"runtime {elapsed:.1f}s >= 120s")
    _verdict(
        capsys,
        f"7. trained on 700 synthetic sentences, held-out 300: accuracy "
        f"{rep.accuracy:.4f}, weighted F1 {rep.weighted.f1:.4f} (>= 0.95) in {elapsed:.1f}s",
        problems,
    )


def test_criterion_8_l1_induces_sparsity(capsys, synth_task):
    _, _, _, models, _ = synth_task
    dense = int(np.count_nonzero(models[0.0].state_weights))
    sparse = int(np.count_nonzero(models[0.5].state_weights))
    problems = []
    if not sparse < dense:
        problems.append(f"nonzeros c1=0.5 {sparse} not < c1=0 {dense}")
    _verdict(
        capsys,
        f"8. c1=0.5 leaves {sparse} nonzero state weights, strictly fewer "
        f"than {dense} at c1=0",
        problems,
    )


def test_criterion_9_phonotactics_dual_route(capsys):
    problems = []
    started = time.perf_counter()
    for length in range(1, 13):
        for chars in itertools.product("CV", repeat=length):
            skeleton = "".join(chars)
            got = classify(skeleton)
            want = _oracle_classify(skeleton)
            if got.matches != want:
                problems.append(f"{skeleton}: {got.matches} != {want}")
                break
        if problems:
            break
    for skeleton in ("V", "VV"):
        if classify(skeleton).accepted:
            problems.append(f"{skeleton} accepted")
    rng = random.Random(97)
    rejected = 0
    for _ in range(10_000):
        word = draw_word(rng, rng.randint(1, 4))
        analysis = analyze_word(word)
        if not analysis.accepted or not _oracle_classify(
            "".join("V" if p in VOWELS else "C" for p in word)
        ):
            rejected += 1
    if rejected:
        problems.append(f"{rejected} generated words rejected")
    elapsed = time.perf_counter() - started
    if elapsed >= 10:
        problems.append(f"runtime {elapsed:.1f}s >= 10s")
    _verdict(
        capsys,
        f"9. template classifier agrees with run-length oracle on all 8190 "
        f"skeletons <= 12, V/VV rejected, 10000 generated words accepted, in {elapsed:.1f}s",
        problems,
    )


def test_criterion_10_formats_round_trip(capsys, synth_task, tmp_path):
    train_corpus, eval_corpus, tagset, models, _ = synth_task
    problems = []

    text = serialize_tagged(eval_corpus, tagset)
    reparsed = parse_tagged(text, tagset)
    if serialize_tagged(reparsed, tagset) != text or reparsed != eval_corpus:
        problems.append("corpus round trip not byte-identical")

    model = models[0.1]
    first, second = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(str(first), model)
    loaded, _ = load_model(str(first))
    save_model(str(second), loaded)
    if first.read_bytes() != second.read_bytes():
        problems.append("model file not byte-stable across save/load/save")
    for got, want in (
        (loaded.state_weights, model.state_weights),
        (loaded.transition_weights, model.transition_weights),
        (loaded.begin_weights, model.begin_weights),
        (loaded.end_weights, model.end_weights),
    ):
        if not np.array_equal(got, want):
            problems.append("weights not bit-identical after reload")
            break

    sentences = [s.words() for s in eval_corpus.sentences[:40]]
    direct = [tag_sentence(model, w).tags() for w in sentences]
    tagged_text = serialize_tagged(
        TaggedCorpus(tuple(tag_sentence(model, w) for w in sentences)),
        tagset,
    )
    if [s.tags() for s in parse_tagged(tagged_text, tagset)] != direct:
        problems.append("tagging output does not re-parse to identical tags")
    _verdict(
        capsys,
        "10. corpus and model files round-trip bit-faithfully; "
        "tagged output re-parses to identical tags",
        problems,
    )
