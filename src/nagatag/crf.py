"""Linear-chain CRF: parameterization, log-domain inference, likelihood
gradient, Viterbi decoding, training driver, and model persistence.

Scores factor as begin[y0] + sum_t state(x,t,yt) + sum_t trans[y(t-1),yt]
+ end[yT-1], with state scores summing one weight per active attribute.
All inference runs in the natural-log domain with max-shifted logsumexp.

There is one encoder and every caller goes through it: _encode groups
sentences by length and puts each group's attribute activations in one CSR
matrix, so a group's state scores are a single (B*T, A) @ (A, K) product.
Forward, backward and Viterbi are one recursion, _scan, over (B, T, K)
arrays for a whole group at once: logsumexp or max over the previous tag.
Training, tag_corpus and nll_and_gradient batch many sentences;
build_lattice, viterbi and sequence_log_score are the same code with B = 1,
so the single-sentence and batched paths cannot drift apart.
Weights and gradients share one flat layout w, with named views per block.
A tagged batch is reduced to its observed feature counts in that layout, so
its gold-path score is observed @ w and the L2-penalized objective is
sum(log Z) - observed @ w + c2 * w @ w. The posteriors come from one routine,
_marginals: the gradient sums them and posterior_marginals is its B = 1 case.
Gold one-hot tags and posteriors become feature counts in one place, _add_counts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Collection, Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.special import logsumexp

from nagatag.corpus import Sentence, TaggedCorpus, TagSet, Token
from nagatag.features import FeatureConfig, sentence_attributes
from nagatag.optim import IterationTrace, OptimConfig, minimize

Attrs = Sequence[Collection[str]]


@dataclass(frozen=True)
class TrainingMeta:
    c1: float
    c2: float
    iterations: int
    final_objective: float


@dataclass(frozen=True)
class ModelParameters:
    tagset: TagSet
    attribute_index: dict[str, int]
    state_weights: np.ndarray  # (A, K)
    transition_weights: np.ndarray  # (K, K), row = previous tag
    begin_weights: np.ndarray  # (K,)
    end_weights: np.ndarray  # (K,)
    training: TrainingMeta | None = None

    def __post_init__(self):
        K = len(self.tagset)
        A = len(self.attribute_index)
        if sorted(self.attribute_index.values()) != list(range(A)):
            raise ValueError("attribute_index must map onto 0..A-1 bijectively")
        if self.state_weights.shape != (A, K):
            raise ValueError(f"state_weights must be {(A, K)}, got {self.state_weights.shape}")
        if self.transition_weights.shape != (K, K):
            raise ValueError(f"transition_weights must be {(K, K)}")
        if self.begin_weights.shape != (K,) or self.end_weights.shape != (K,):
            raise ValueError(f"boundary weights must have shape ({K},)")
        for arr in (self.state_weights, self.transition_weights,
                    self.begin_weights, self.end_weights):
            if not np.all(np.isfinite(arr)):
                raise ValueError("all weights must be finite")

    @property
    def n_tags(self) -> int:
        return len(self.tagset)

    @property
    def n_attributes(self) -> int:
        return len(self.attribute_index)


def zero_model(tagset: TagSet, attribute_index: dict[str, int]) -> ModelParameters:
    A, K = len(attribute_index), len(tagset)
    return ModelParameters(
        tagset=tagset,
        attribute_index=dict(attribute_index),
        state_weights=np.zeros((A, K)),
        transition_weights=np.zeros((K, K)),
        begin_weights=np.zeros(K),
        end_weights=np.zeros(K),
    )


@dataclass(frozen=True)
class Lattice:
    state_scores: np.ndarray  # (T, K)
    log_alpha: np.ndarray  # (T, K)
    log_beta: np.ndarray  # (T, K)
    log_Z: float


def _blocks(flat: np.ndarray, A: int, K: int):
    """(state, transitions, begin, end) as views into one flat vector of
    A*K + K*K + 2*K parameters: the layout of the optimizer and of pack()."""
    state, trans, begin, end = np.split(flat, np.cumsum([A * K, K * K, K]))
    return state.reshape(A, K), trans.reshape(K, K), begin, end


def _flat(model: ModelParameters) -> np.ndarray:
    """The model's weights in the flat layout of _blocks."""
    return np.concatenate([
        model.state_weights.ravel(), model.transition_weights.ravel(),
        model.begin_weights, model.end_weights,
    ])


class ModelGradient:
    """A gradient in the flat parameter layout; the blocks are views into it."""

    def __init__(self, flat: np.ndarray, A: int, K: int):
        self.flat = flat
        self.state, self.transitions, self.begin, self.end = _blocks(flat, A, K)

    def pack(self) -> np.ndarray:
        return self.flat


@dataclass
class _Group:
    """All sentences of one length, as a single sparse activation matrix."""

    X: sparse.csr_matrix  # (B*T, A), one row per token
    members: np.ndarray  # (B,) position of each sentence in the encoded list

    def state_scores(self, state_w: np.ndarray) -> np.ndarray:
        return (self.X @ state_w).reshape(len(self.members), -1, state_w.shape[1])


def _encode(attribute_index: dict[str, int], attrs_list: Iterable[Attrs]) -> list[_Group]:
    """Group sentences by length, shortest first, and map each position's
    attributes to matrix columns. This is the only place attribute strings
    become indices; attributes outside the vocabulary have no column and
    score 0. The input is read once, so it may be a generator."""
    by_len: dict[int, tuple[list[int], list[int], list[int]]] = {}
    for i, attrs in enumerate(attrs_list):
        if len(attrs) == 0:
            raise ValueError("cannot encode an empty sentence")
        members, cols, row_sizes = by_len.setdefault(len(attrs), ([], [], []))
        members.append(i)
        for position in attrs:
            idxs = sorted(attribute_index[a] for a in position if a in attribute_index)
            cols.extend(idxs)
            row_sizes.append(len(idxs))
    groups = []
    for T, (members, cols, row_sizes) in sorted(by_len.items()):
        indptr = np.concatenate([[0], np.cumsum(row_sizes)])
        X = sparse.csr_matrix(
            (np.ones(len(cols)), cols, indptr), shape=(len(members) * T, len(attribute_index))
        )
        groups.append(_Group(X, np.asarray(members)))
    return groups


def _scan(e: np.ndarray, trans: np.ndarray, start: np.ndarray, reduce) -> np.ndarray:
    """The one lattice recursion, over (B, T, K) scores e: h[:, 0] = start + e[:, 0]
    and h[:, t] = reduce(h[:, t-1, :, None] + trans, axis=1) + e[:, t]. With
    logsumexp it is the forward pass (the backward pass on the reversed chain),
    with np.max the Viterbi pass."""
    h = np.empty(e.shape)
    h[:, 0] = start + e[:, 0]
    for t in range(1, e.shape[1]):
        h[:, t] = reduce(h[:, t - 1, :, None] + trans, axis=1) + e[:, t]
    return h


def _forward_backward(s3: np.ndarray, trans: np.ndarray,
                      begin: np.ndarray, end: np.ndarray):
    """Batched log-domain recursions over (B, T, K) state scores; the backward
    pass is the forward scan of the reversed chain, less the state scores."""
    log_alpha = _scan(s3, trans, begin, logsumexp)
    log_beta = _scan(s3[:, ::-1], trans.T, end, logsumexp)[:, ::-1] - s3
    log_Z = logsumexp(log_alpha[:, -1] + end, axis=1)
    return log_alpha, log_beta, log_Z


def _viterbi(s3: np.ndarray, trans: np.ndarray, begin: np.ndarray, end: np.ndarray):
    """Best (B, T) paths and their (B,) scores over (B, T, K) state scores.
    The backtrack recomputes each decision from the max-product scan, so ties
    pick the lowest tag index (argmax returns the first maximizer)."""
    delta = _scan(s3, trans, begin, np.max)
    final = delta[:, -1] + end
    paths = np.empty(s3.shape[:2], dtype=np.int64)
    paths[:, -1] = np.argmax(final, axis=1)
    for t in range(s3.shape[1] - 1, 0, -1):
        paths[:, t - 1] = np.argmax(delta[:, t - 1] + trans[:, paths[:, t]].T, axis=1)
    return paths, final.max(axis=1)


def _marginals(s3: np.ndarray, la: np.ndarray, lb: np.ndarray, log_Z: np.ndarray,
               trans: np.ndarray):
    """(B, T, K) unary and (B, T-1, K, K) pairwise posteriors of a group."""
    log_Z = log_Z[:, None, None]
    unary = np.exp(la + lb - log_Z)
    pairwise = np.exp(
        la[:, :-1, :, None] + trans + (s3[:, 1:, :] + lb[:, 1:, :])[:, :, None, :]
        - log_Z[..., None]
    )
    return unary, pairwise


def build_lattice(model: ModelParameters, attrs: Attrs) -> Lattice:
    """Forward-backward for one sentence: the batched engine with B = 1."""
    (group,) = _encode(model.attribute_index, [attrs])
    s3 = group.state_scores(model.state_weights)
    la, lb, log_Z = _forward_backward(
        s3, model.transition_weights, model.begin_weights, model.end_weights
    )
    lattice = Lattice(s3[0], la[0], lb[0], float(log_Z[0]))
    # cross-check: the backward recursion must reproduce the same mass
    backward_Z = float(logsumexp(lb[0, 0] + model.begin_weights + s3[0, 0]))
    if abs(backward_Z - lattice.log_Z) > 1e-9 * max(1.0, abs(lattice.log_Z)):
        raise ArithmeticError(
            f"forward/backward disagree on log_Z: {lattice.log_Z} vs {backward_Z}"
        )
    return lattice


def sequence_log_score(model: ModelParameters, attrs: Attrs, tags: Sequence[int]) -> float:
    _, observed = _prepare(model.attribute_index, model.n_tags, [(attrs, tags)])
    return float(observed @ _flat(model))


def posterior_marginals(lattice: Lattice, model: ModelParameters):
    """(T,K) unary and (T-1,K,K) pairwise posterior probabilities."""
    unary, pairwise = _marginals(
        lattice.state_scores[None], lattice.log_alpha[None], lattice.log_beta[None],
        np.array([lattice.log_Z]), model.transition_weights,
    )
    return unary[0], pairwise[0]


def _decode(model: ModelParameters, attrs_list: Iterable[Attrs]):
    """Best path and score of every sentence, decoded one length group at a time."""
    groups = _encode(model.attribute_index, attrs_list)
    n = sum(len(group.members) for group in groups)
    paths: list = [None] * n
    scores = np.empty(n)
    for group in groups:
        best, best_scores = _viterbi(
            group.state_scores(model.state_weights),
            model.transition_weights, model.begin_weights, model.end_weights,
        )
        scores[group.members] = best_scores
        for i, path in zip(group.members, best):
            paths[i] = path
    return paths, scores


def viterbi(model: ModelParameters, attrs: Attrs) -> tuple[list[int], float]:
    """Best tag sequence and its log score: the batched decoder with B = 1.
    Ties pick the lowest tag index."""
    paths, scores = _decode(model, [attrs])
    return paths[0].tolist(), float(scores[0])


def tag_corpus(
    model: ModelParameters, config: FeatureConfig, sentences: Sequence[Sequence[str]]
) -> TaggedCorpus:
    """Viterbi tags for every sentence, decoded in groups of one length."""
    paths, _ = _decode(model, (sentence_attributes(words, config) for words in sentences))
    return TaggedCorpus(tuple(
        Sentence(tuple(Token(w, y) for w, y in zip(words, path.tolist())))
        for words, path in zip(sentences, paths)
    ))


def tag_sentence(
    model: ModelParameters, config: FeatureConfig, words: Sequence[str]
) -> Sentence:
    return tag_corpus(model, config, [words]).sentences[0]


def _prepare(
    attribute_index: dict[str, int], K: int, batch: Iterable[tuple[Attrs, Sequence[int]]]
) -> tuple[list[_Group], np.ndarray]:
    """Validate and encode a tagged batch, and count its observed features
    in the flat parameter layout. The gold-path score under weights w is
    observed @ w, so the tags themselves are not kept."""
    tags_list: list[Sequence[int]] = []

    def checked():
        for attrs, tags in batch:
            if len(attrs) != len(tags):
                raise ValueError(f"{len(tags)} tags for {len(attrs)} positions")
            if any(not 0 <= y < K for y in tags):
                raise ValueError("tag index out of range")
            tags_list.append(tags)
            yield attrs

    groups = _encode(attribute_index, checked())
    if not tags_list:
        raise ValueError("batch must be non-empty")
    A = len(attribute_index)
    observed = np.zeros(A * K + K * K + 2 * K)
    for group in groups:
        gold = np.array([tags_list[i] for i in group.members], dtype=np.int64)
        onehot = np.eye(K)[gold]
        transitions = np.einsum("bti,btj->ij", onehot[:, :-1], onehot[:, 1:])
        _add_counts(observed, A, K, group, onehot, transitions)
    return groups, observed


def _add_counts(flat: np.ndarray, A: int, K: int, group: _Group,
                unary: np.ndarray, transitions: np.ndarray):
    """Add a group's feature counts to the flat layout, from its (B, T, K) tag
    weights (one-hot gold tags or posteriors) and (K, K) transition counts."""
    state, trans, begin, end = _blocks(flat, A, K)
    state += group.X.T @ unary.reshape(-1, K)
    trans += transitions
    begin += unary[:, 0].sum(axis=0)
    end += unary[:, -1].sum(axis=0)


def _nll_prepared(w: np.ndarray, A: int, K: int, groups: list[_Group], observed: np.ndarray,
                  c2: float) -> tuple[float, ModelGradient]:
    """sum(log Z) - observed @ w + c2 * ||w||^2 over the flat weights w, and its
    gradient: expected counts minus observed counts plus 2 * c2 * w."""
    state_w, trans, begin, end = _blocks(w, A, K)
    grad = ModelGradient(2.0 * c2 * w - observed, A, K)
    log_Z_sum = 0.0
    for group in groups:
        s3 = group.state_scores(state_w)
        la, lb, log_Z = _forward_backward(s3, trans, begin, end)
        unary, pairwise = _marginals(s3, la, lb, log_Z, trans)
        _add_counts(grad.flat, A, K, group, unary, pairwise.sum(axis=(0, 1)))
        log_Z_sum += float(log_Z.sum())

    value = log_Z_sum - float(observed @ w)
    if c2:  # w @ w overflows on large finite weights; without L2 it must not enter
        value += c2 * float(w @ w)
    if not np.isfinite(value):
        raise ArithmeticError(f"non-finite objective value: {value}")
    return value, grad


def nll_and_gradient(
    model: ModelParameters,
    batch: list[tuple[Attrs, Sequence[int]]],
    c2: float = 0.0,
) -> tuple[float, ModelGradient]:
    """Regularized negative conditional log-likelihood of a batch and its
    gradient: expected counts minus observed counts plus 2*c2*w."""
    return _nll_prepared(
        _flat(model), model.n_attributes, model.n_tags,
        *_prepare(model.attribute_index, model.n_tags, batch), c2,
    )


def build_attribute_index(
    corpus: TaggedCorpus, config: FeatureConfig = FeatureConfig()
) -> dict[str, int]:
    """Sorted vocabulary of every attribute occurring in the corpus."""
    seen: set[str] = set()
    for sentence in corpus:
        for attrs in sentence_attributes(sentence.words(), config):
            seen.update(attrs)
    return {attr: i for i, attr in enumerate(sorted(seen))}


def train_model(
    corpus: TaggedCorpus,
    tagset: TagSet,
    feature_config: FeatureConfig = FeatureConfig(),
    optim_config: OptimConfig = OptimConfig(),
    log: Callable[[str], None] | None = None,
) -> tuple[ModelParameters, IterationTrace]:
    """Fit CRF weights on a tagged corpus from all-zero initial weights.

    The smooth objective handed to the optimizer carries the L2 term
    (optim_config.c2); the L1 term (optim_config.c1) is applied inside
    the optimizer itself.
    """
    if len(corpus) == 0:
        raise ValueError("training corpus is empty")
    attribute_index = build_attribute_index(corpus, feature_config)
    A, K = len(attribute_index), len(tagset)
    groups, observed = _prepare(attribute_index, K, (
        (sentence_attributes(sentence.words(), feature_config), sentence.tags())
        for sentence in corpus
    ))

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = _nll_prepared(w, A, K, groups, observed, optim_config.c2)
        return value, grad.flat

    w_star, trace = minimize(objective, np.zeros_like(observed), optim_config, log=log)
    training = TrainingMeta(
        optim_config.c1, optim_config.c2, trace.iterations, trace.final_objective
    )
    model = ModelParameters(tagset, attribute_index, *_blocks(w_star, A, K), training=training)
    return model, trace


FORMAT_VERSION = 1


def save_model(path: str, model: ModelParameters, feature_config: FeatureConfig):
    """Single JSON document; floats round-trip bit-faithfully via repr. The
    text is built before the file is opened, so a failed save leaves it as it was."""
    a_vals = model.state_weights.nonzero()
    doc = {
        "format_version": FORMAT_VERSION,
        "tagset": list(model.tagset.names),
        "feature_config": asdict(feature_config),
        "attributes": _attrs_in_index_order(model.attribute_index),
        "state_weights": [
            [int(a), int(k), float(model.state_weights[a, k])]
            for a, k in zip(*a_vals)
        ],
        "transitions": model.transition_weights.tolist(),
        "begin": model.begin_weights.tolist(),
        "end": model.end_weights.tolist(),
        "training": asdict(model.training) if model.training else None,
    }
    text = json.dumps(doc, ensure_ascii=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _attrs_in_index_order(attribute_index: dict[str, int]) -> list[str]:
    out = [""] * len(attribute_index)
    for attr, i in attribute_index.items():
        out[i] = attr
    return out


_MODEL_KEYS = ("tagset", "feature_config", "attributes", "state_weights",
               "transitions", "begin", "end")


def load_model(path: str) -> tuple[ModelParameters, FeatureConfig]:
    """Read a model file; a document of the wrong shape raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {doc.get('format_version')!r}")
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise ValueError(f"model file lacks {', '.join(missing)}")
    try:
        return _model_from_doc(doc)
    except TypeError as exc:  # a value of the wrong JSON type, or a record with wrong fields
        raise ValueError(f"malformed model file: {exc}") from exc


# Template switches that older model files record next to the affix lengths.
# The template is fixed, so such a file loads only if every switch is on.
_TEMPLATE_FLAGS = frozenset((
    "word", "is_first", "is_last", "is_capitalized", "is_all_caps", "is_all_lower",
    "capitals_inside", "has_hyphen", "is_numeric", "prev_word", "next_word",
    "prefixes", "suffixes",
))


def _string_list(doc: dict, key: str) -> list[str]:
    value = doc[key]
    if not (isinstance(value, list) and all(isinstance(item, str) for item in value)):
        raise ValueError(f"{key} must be a JSON list of strings")
    return value


def _feature_config(fields) -> FeatureConfig:
    if not isinstance(fields, dict):
        raise ValueError("feature_config must be a JSON object")
    for flag in _TEMPLATE_FLAGS.intersection(fields):
        if fields[flag] is not True:
            raise ValueError(f"feature_config {flag!r} must be true: {fields[flag]!r}")
    return FeatureConfig(**{k: v for k, v in fields.items() if k not in _TEMPLATE_FLAGS})


def _model_from_doc(doc: dict) -> tuple[ModelParameters, FeatureConfig]:
    tagset = TagSet(tuple(_string_list(doc, "tagset")))
    feature_config = _feature_config(doc["feature_config"])
    attributes = _string_list(doc, "attributes")
    if len(set(attributes)) != len(attributes):
        raise ValueError("duplicate attributes in model file")
    A, K = len(attributes), len(tagset)
    state = np.zeros((A, K))
    for a, k, w in doc["state_weights"]:
        if not (type(a) is int and type(k) is int and 0 <= a < A and 0 <= k < K):
            raise ValueError(f"state weight index must be an int in range: [{a}, {k}]")
        state[a, k] = w
    trans = np.asarray(doc["transitions"], dtype=np.float64)
    begin = np.asarray(doc["begin"], dtype=np.float64)
    end = np.asarray(doc["end"], dtype=np.float64)
    training = TrainingMeta(**doc["training"]) if doc.get("training") else None
    model = ModelParameters(
        tagset=tagset,
        attribute_index={a: i for i, a in enumerate(attributes)},
        state_weights=state,
        transition_weights=trans,
        begin_weights=begin,
        end_weights=end,
        training=training,
    )
    return model, feature_config
