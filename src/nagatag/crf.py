"""Linear-chain CRF: parameterization, scaled forward-backward, likelihood
gradient, Viterbi decoding, training driver, and model persistence.

Scores factor as begin[y0] + sum_t state(x,t,yt) + sum_t trans[y(t-1),yt]
+ end[yT-1], with state scores summing one weight per active attribute.
Begin and end are state features of a sentence's first and last position, so
neither recursion handles them apart: they take only (N, K) state scores and
the transitions. Viterbi, _viterbi, runs in the log domain as a max-plus
recursion. Forward-backward, _forward_backward, runs in the exp domain on
max-shifted scores, rescaling each position's forward vector to sum 1
(Rabiner 1989; Sutton & McCallum 2012, section 4.1): a step is one
(B, K) @ (K, K) product and log Z is the sum of the log scale factors. Where
underflow could make that inexact it raises ArithmeticError instead:
_check_spread, run once per objective call, bounds the transition, begin and
end spreads, and forward-backward checks its scale factors.
Viterbi raises ArithmeticError where a sum of finite weights overflows.

There is one encoder and every caller goes through it: _encode puts a whole
input in one (N, A+2) CSR matrix X, one row per token, with the rows packed
time-major as PyTorch's pack_padded_sequence packs them: step t holds
position t of every sentence longer than t, in input order. Column A marks
each sentence's first token and column A+1 its last. _Packing records each
step's run of rows and each row's predecessor, so both recursions make one
pass over the whole input, one step per position of the longest sentence,
on one product with X. Training and tag_corpus batch many sentences. The
acceptance gate's single-sentence entry points live in tests/helpers.py and
call this same private engine.

The encoder reads attributes one family at a time, as
features.attribute_families gives them for words: every attribute sharing a
key (the part up to and including the first "=", or the whole attribute where
it has none), as a code per token, -1 where the token has none, and the
distinct values the codes index. Its vocabulary is split the same way, one
dict from value to column per key, so each distinct value is one dict lookup
however many tokens hold it, and no "key=value" string is built per token. A
model splits its attribute_index once, ModelParameters.vocabulary. Families
come in increasing key order, and each family's columns follow the previous
family's. Each family, and each marker, is one column of a table with a row
per token, holding that row's column of X or -1; X holds the rest.
Training featurizes once and grows its vocabulary as it encodes, numbering
each family's values in the order of the first packed row that holds them,
with one np.minimum.at over the family's codes. So consecutive rows mostly hit
nearby rows of Θ, and X @ Θ and X.T @ U, which read or write one Θ row per
entry of X, stream through Θ instead of jumping about it. The grown
vocabulary is each family's values as a list in column order, Grown, not a
dict per family: training only reads it to render the attributes it keeps.
attribute_families gives a token at most one value of a family, so a row's
columns ascend family by family, in the order a sorted numbering gives
them. Each row sum of X @ Θ is the same sum in the same order as under the
sorted numbering of the same attributes, which build_attribute_index gives,
and so is each entry of X.T @ U, which adds up its rows in row order under
any numbering: the same bits, at other indices. Training renders as strings
only the attributes it keeps. A trained model keeps only the attributes the
optimizer left a nonzero weight, as CRFsuite's model writer does (Okazaki
2007): its attribute_index is those attributes sorted as strings and
numbered in that order, and Θ keeps their rows in the same order. A dropped
row was all zero and added +0.0 to every score, so tags and scores are those
of the full model, and a file holding the full model still loads and tags
the same. With L1 most rows end zero, so this shrinks what tag loads and
encodes. attribute_families still builds the codes of a family with no
attribute in the model; only their lookups are skipped.

The weights are one (A+2+K, K) matrix Θ, held by ModelParameters.weights:
the A state rows, the begin row, the end row, then the K transition rows.
state_weights, begin_weights, end_weights and transition_weights are views of
those rows, not copies. Θ's rows follow X's columns, so row r < A+2 weighs
column r: X @ Θ[:-K] is every token's state score with its boundary scores
added, and X.T @ U is the state, begin and end counts of per-token tag weights
U, the first A+2 rows of a gradient G of Θ's shape. The objective grows that
product in place by the K transition rows and folds in the rest of G, so G is
the one Θ-sized array it makes. The optimizer works on
Θ's ravel w, and a trained model holds the rows of its result that it keeps. A
tagged batch is reduced to its observed feature counts in that layout, kept
as the sorted indices of the counts that are not zero and those counts,
_Observed: most of Θ is never observed (146,530 of 1,805,955 entries on the
bench's 40,000-token train-wide corpus). Its gold-path score is
dot(count, w[index]), and the L2-penalized objective is
sum(log Z) - dot(count, w[index]) + c2 * w @ w. Both dots go through
optim.dot, not BLAS, so a trained model has the same bits at any BLAS thread
count. The gradient takes its expected counts from _forward_backward.

The feature template is fixed, so training and tagging take no feature
settings. A model file records the template's affix lengths,
features.FeatureConfig's constants, as its feature_config block, and
load_model refuses a file that records others.

Importing this module imports neither numpy nor scipy: numpy loads on the
first read of an np attribute (nagatag._lazy.lazy), and scipy is imported by
the first statement of _encode, its only user. So gen, split, stats,
agreement and syllables load neither, and load_model, transitions and
features load numpy alone. scipy's import comes before featurizing, not
after, because importing it between the family loop's allocations and the
products' left the bench's peak RSS on train-wide about 3% higher: glibc
placed the heap differently, with the same live memory.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from dataclasses import asdict, dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from nagatag._lazy import lazy
from nagatag.corpus import Sentence, TaggedCorpus, TagSet, write_text
from nagatag.features import FeatureConfig, Family, attribute_families
from nagatag.optim import IterationTrace, OptimConfig, dot, minimize

if TYPE_CHECKING:
    from scipy import sparse

np = lazy("numpy")

Vocabulary = dict[str, dict[str, int]]  # family key -> value -> column
Grown = dict[str, list[str]]  # family key -> its values in column order


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
    weights: np.ndarray  # Θ, (A+2+K, K): state rows, begin, end, transition rows
    training: TrainingMeta | None = None

    def __post_init__(self):
        K = len(self.tagset)
        A = len(self.attribute_index)
        if sorted(self.attribute_index.values()) != list(range(A)):
            raise ValueError("attribute_index must map onto 0..A-1 bijectively")
        if self.weights.shape != (A + 2 + K, K):
            raise ValueError(f"weights must be {(A + 2 + K, K)}, got {self.weights.shape}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("all weights must be finite")

    def __eq__(self, other):
        # the generated __eq__ compares weights with ==, whose array result
        # has no truth value
        if not isinstance(other, ModelParameters):
            return NotImplemented
        return (self.tagset == other.tagset and self.attribute_index == other.attribute_index
                and self.training == other.training
                and np.array_equal(self.weights, other.weights))

    @functools.cached_property
    def vocabulary(self) -> Vocabulary:
        """attribute_index split by family, once per model."""
        return _vocabulary(self.attribute_index)

    @property
    def n_tags(self) -> int:
        return len(self.tagset)

    @property
    def n_attributes(self) -> int:
        return len(self.attribute_index)

    @property
    def state_weights(self) -> np.ndarray:  # (A, K)
        return self.weights[:self.n_attributes]

    @property
    def begin_weights(self) -> np.ndarray:  # (K,)
        return self.weights[self.n_attributes]

    @property
    def end_weights(self) -> np.ndarray:  # (K,)
        return self.weights[self.n_attributes + 1]

    @property
    def transition_weights(self) -> np.ndarray:  # (K, K), row = previous tag
        return self.weights[self.n_attributes + 2:]


class _Packing(NamedTuple):
    """Where an input's tokens sit among the rows of its encoded matrix. The
    rows are time-major: step t holds row t of every sentence longer than t,
    in input order, so each step is one run of consecutive rows."""

    steps: list[slice]
    prev: np.ndarray  # (N,) past step 0, the row of the same sentence's previous token
    order: np.ndarray  # (N,) the row of each token, counted sentence after sentence
    ends: np.ndarray  # (S,) where each sentence ends in that count


def _encode(vocabulary: Vocabulary | Grown, lengths: Sequence[int], families: Iterable[Family],
            grow: bool = False) -> tuple[sparse.csr_matrix, _Packing]:
    """One (N, A+2) CSR matrix for a whole input of sentences of the given
    lengths, one row per token in the time-major order _Packing describes,
    and that packing. Column A marks a sentence's first token and column A+1
    its last. This is the only place attributes become columns. families is
    the input's attributes as attribute_families gives them: one family at a
    time, in increasing key order, as a code per token over distinct values,
    -1 where the token has none. It is read once, and each family is dropped
    once it is mapped.

    Each family's distinct values are looked up once in its own dict,
    vocabulary[key], into lookup, and the codes carry the columns to the
    rows; an attribute outside the vocabulary has no column and scores 0.
    With grow set, vocabulary must start empty, and it is filled as Grown,
    not as Vocabulary: each family's values are numbered on from the previous
    family's, in the order of the first row that holds them, and go in as a
    list in that order, so the family key and the place in the list give
    every column without a dict per family. They go into vocabulary only
    once the whole input is read, so a ValueError leaves it empty. The module
    docstring says why that order keeps the products' sums. A code of -1
    reads lookup's slot past the values, which holds -1. The int32 table has
    a column per family and marker, each row's column of X there or -1, in
    packed row order; X holds its other entries row by row, sorted by
    X.sort_indices() where a vocabulary's numbering leaves them unsorted."""
    from scipy import sparse  # the module docstring says why here

    lengths = np.asarray(lengths, dtype=np.intp)
    if not lengths.all():
        raise ValueError("cannot encode an empty sentence")
    ends = np.cumsum(lengths)
    # the token of each row: tokens stably sorted by their position in the sentence
    token = np.argsort(np.arange(lengths.sum()) - np.repeat(ends - lengths, lengths), kind="stable")
    order = np.argsort(token)
    bounds = np.cumsum([0, *len(lengths) - np.cumsum(np.bincount(lengths))[:-1]])
    packing = _Packing([slice(*pair) for pair in itertools.pairwise(bounds)],
                       order[token - 1], order, ends)

    row = order.astype(np.intc)  # token -> row
    N = len(row)
    columns = []  # per family, each row's column in packed row order, or -1
    grown: Grown = {}
    A = 0 if grow else sum(map(len, vocabulary.values()))
    previous = None
    for key, codes, values in families:
        if previous is not None and not previous < key:
            raise ValueError(f"attribute families out of key order: {previous!r}, {key!r}")
        previous = key
        if grow:
            # number the values in the order of the first row that holds them; a value
            # no token holds gets no column, nor does the slot that codes of -1 read
            first = np.full(len(values) + 1, N, np.intc)  # row's dtype: ufunc.at is fast
            np.minimum.at(first, codes, row)
            held = np.flatnonzero(first[:-1] < N)
            held = held[np.argsort(first[held])]
            lookup = np.full(len(values) + 1, -1, np.intc)
            lookup[held] = np.arange(A, A + len(held))
            grown[key] = list(map(values.__getitem__, held.tolist()))
            A += len(held)
        elif (column := vocabulary.get(key)) is None:
            continue
        else:
            lookup = np.fromiter(itertools.chain(map(column.get, values, itertools.repeat(-1)),
                                                 [-1]), np.intc, len(values) + 1)
        columns.append(lookup[codes][token])
    vocabulary.update(grown)

    # (N, families + 2): a row's columns in family order, then the begin and end markers
    table = np.column_stack([*columns, np.full((N, 2), -1, np.intc)])
    del columns  # freed before held and indices are made
    table[row[ends - lengths], -2], table[row[ends - 1], -1] = A, A + 1
    held = table >= 0
    indptr = np.zeros(N + 1, dtype=np.intc)
    np.cumsum(held.sum(axis=1), out=indptr[1:])
    indices = table[held]
    X = sparse.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(N, A + 2))
    X.sort_indices()
    return X, packing


def _vocabulary(attribute_index: dict[str, int]) -> Vocabulary:
    """An attribute index split by family, as _encode reads it."""
    vocabulary: Vocabulary = {}
    for a, i in attribute_index.items():
        key, eq, value = a.partition("=")
        vocabulary.setdefault(key + eq, {})[value] = i
    return vocabulary


_TINY = sys.float_info.min  # numpy's finfo(float).tiny
# The largest transition, begin or end score spread (max - min, in nats) that
# forward-backward accepts. Every factor or product the exp-domain recursion
# loses to underflow is below e^-708 of the largest in its step. A path through
# a lost term has a neighbour path, with another tag at that position, whose score
# is at least 708 - 2 * 320 = 68 nats higher: only the scores into and out of
# that position change, by at most one spread each. So what is lost is below
# T * K^2 * e^-68 of Z whatever the state scores are. Checking the scale factors
# alone is not enough: a best path lost this way still leaves them normal.
_MAX_SPREAD = 320.0
# Weights per step of the gradient's regularizer-and-observed fold: a 256 KB
# temporary, which stays in cache, in place of a Θ-sized one.
_FOLD_CHUNK = 1 << 15


def _check_spread(theta: np.ndarray, K: int):
    """Raise ArithmeticError where forward-backward could be inexact: where Θ's
    (K, K) transitions or its begin or end row spans more than _MAX_SPREAD.

    Begin and end enter forward-backward as state scores, which the argument
    above already covers; they stay in the check because the line search
    halves its step on ArithmeticError. Left out, they let far line-search
    probes through to a full evaluation, which trained about 10% slower on
    the train-wide bench workload (5 alternating pairs, 2 vCPU)."""
    spread = max(np.ptp(theta[-K:]), *np.ptp(theta[-K - 2:-K], axis=1))
    if not spread <= _MAX_SPREAD:
        raise ArithmeticError(
            f"transition or boundary scores span {spread:.6g} nats; forward-backward "
            f"is exact up to {_MAX_SPREAD:g}"
        )


def _forward_backward(s: np.ndarray, trans: np.ndarray, packing: _Packing):
    """Scaled exp-domain forward-backward over (N, K) state scores in the
    packed row order, whose first and last rows of each sentence already hold
    the begin and end scores. s is overwritten.

    Every score array is shifted by its row maxima and exponentiated, so each
    step is one (B, K) @ (K, K) product: h = (a[prev] @ G) * E[cur], whose row
    sums z scale a[cur] = h / z to sum 1. Returns the scaled forward and
    backward vectors a, b (N, K), whose product is the unary posteriors; each
    row's log scale c (N,), whose running sum over a sentence's rows is log
    alpha - log a and whose sum over them is log Z; and the (K, K) expected
    transition counts summed over the input. Raises ArithmeticError when a
    scale factor is below the smallest normal float (non-finite scores); the
    callers bound the transition spread with _check_spread.
    """
    steps, prev = packing.steps, packing.prev
    s_max = s[:, :1].copy()  # row maxima, one column at a time, which is faster
    for j in range(1, s.shape[1]):
        np.maximum(s_max, s[:, j:j + 1], out=s_max)
    E = np.exp(np.subtract(s, s_max, out=s), out=s)
    G = np.exp(trans - trans.max())
    a = np.empty_like(E)
    z = np.empty(len(E))
    for t, cur in enumerate(steps):
        h = (a[prev[cur]] @ G) * E[cur] if t else E[cur]
        z[cur] = h.sum(axis=1)
        a[cur] = h / z[cur, None]
    if not (z >= _TINY).all():
        raise ArithmeticError("forward-backward scale factor underflow")
    c = np.log(z) + s_max[:, 0]
    c[steps[0].stop:] += trans.max()

    r = np.divide(E, z[:, None], out=E)  # E / z: b[prev] = (r[cur] * b[cur]) @ G.T
    b = np.ones_like(r)
    transitions = np.zeros_like(G)
    for cur in reversed(steps[1:]):
        w = r[cur] * b[cur]
        b[prev[cur]] = w @ G.T
        transitions += a[prev[cur]].T @ w
    return a, b, c, G * transitions


def _viterbi(delta: np.ndarray, trans: np.ndarray, packing: _Packing):
    """Best tags and best scores per row, by the max-product recursion
    delta[cur] += max(delta[prev, :, None] + trans, axis=1) on delta, which
    holds the (N, K) state scores in the packed row order, begin and end
    included, and is overwritten. A sentence's best score is its last row's.
    The backtrack starts from every row's own argmax, which is final on a
    sentence's last row, and recomputes each earlier decision from delta, so
    ties pick the lowest tag index (argmax returns the first maximizer).
    Raises ArithmeticError when a delta entry is not finite: finite weights
    whose sum overflows have no best path in floats."""
    steps, prev = packing.steps, packing.prev
    # the finiteness check below reports an overflow, and the inf - inf it can lead to
    with np.errstate(over="ignore", invalid="ignore"):
        for cur in steps[1:]:
            # the max over previous tags j, taken as K - 1 maxima of (B, K) arrays
            # instead of over a (B, K, K) one: the same values, without the big temporary
            before = delta[prev[cur]]
            best = before[:, 0, None] + trans[0]
            for j in range(1, len(trans)):
                np.maximum(best, before[:, j, None] + trans[j], out=best)
            delta[cur] += best
        if not np.isfinite(delta).all():
            raise ArithmeticError("Viterbi scores overflow")
        paths = np.argmax(delta, axis=1)
        for cur in reversed(steps[1:]):
            paths[prev[cur]] = np.argmax(delta[prev[cur]] + trans[:, paths[cur]].T, axis=1)
    return paths, delta.max(axis=1)


def _decode(model: ModelParameters, lengths: Sequence[int], families: Iterable[Family]):
    """(best path, its score) of every sentence, from one Viterbi pass over the
    whole input, given as _encode takes it."""
    X, packing = _encode(model.vocabulary, lengths, families)
    paths, scores = _viterbi(X @ model.weights[:-model.n_tags], model.transition_weights, packing)
    return list(zip(np.split(paths[packing.order], packing.ends[:-1]),
                    scores[packing.order[packing.ends - 1]]))


def tag_corpus(model: ModelParameters, sentences: Sequence[Sequence[str]]) -> TaggedCorpus:
    """Viterbi tags for every sentence, from one pass over the whole corpus."""
    decoded = _decode(model, list(map(len, sentences)), attribute_families(sentences))
    return TaggedCorpus(tuple(
        Sentence(tuple(words), tuple(path.tolist()))
        for words, (path, _) in zip(sentences, decoded)
    ))


def tag_sentence(model: ModelParameters, words: Sequence[str]) -> Sentence:
    return tag_corpus(model, [words]).sentences[0]


class _Observed(NamedTuple):
    """A tagged batch's observed feature counts in Θ's flat layout, as the
    entries that are not zero: index sorted and without repeats, count at
    each index (small integers, so exact as floats)."""

    index: np.ndarray  # (M,) intp
    count: np.ndarray  # (M,) float64


def _prepare(
    vocabulary: Vocabulary | Grown, K: int, lengths: Sequence[int], families: Iterable[Family],
    tags_list: Sequence[Sequence[int]], grow: bool = False,
) -> tuple[sparse.csr_matrix, _Packing, _Observed]:
    """Validate a tagged batch, then encode it, and count its observed features
    in Θ's flat layout, keeping only the counts that are not zero, as CRFsuite
    keeps only the attribute-label pairs it saw (Okazaki 2007): most of Θ's
    entries are never observed. The gold-path score under weights w is
    dot(count, w[index]), so the tags themselves are not kept. The input is
    _encode's, with the tags of each sentence; grow is _encode's: training
    grows its vocabulary in the same pass."""
    if not tags_list:
        raise ValueError("batch must be non-empty")
    for n, tags in zip(lengths, tags_list, strict=True):
        if len(tags) != n:
            raise ValueError(f"{len(tags)} tags for {n} positions")
    flat = np.concatenate(tags_list)
    if not ((0 <= flat) & (flat < K)).all():
        raise ValueError("tag index out of range")
    X, packing = _encode(vocabulary, lengths, families, grow)
    tags = np.empty_like(packing.order)  # the tag of each row
    tags[packing.order] = flat
    # counts of (column, tag) over X's entries and of (previous tag, tag) over
    # the rows with a predecessor, the latter after Θ's A+2 attribute rows
    entry_tags = np.repeat(tags, np.diff(X.indptr))
    later = slice(packing.steps[0].stop, None)
    counts = np.bincount(np.concatenate([
        X.indices.astype(np.intp) * K + entry_tags,
        X.shape[1] * K + tags[packing.prev[later]] * K + tags[later],
    ]), minlength=(X.shape[1] + K) * K)
    index = np.flatnonzero(counts)
    return X, packing, _Observed(index, counts[index].astype(np.float64))


def _nll_prepared(w: np.ndarray, K: int, X: sparse.csr_matrix, packing: _Packing,
                  observed: _Observed, c2: float) -> tuple[float, np.ndarray]:
    """sum(log Z) - dot(count, w[index]) + c2 * ||w||^2 over the flat weights
    w = Θ.ravel(), and its flat gradient: expected counts minus observed counts
    plus 2 * c2 * w.

    The gradient is a new array each call, which the caller may overwrite. It
    is X.T @ U grown by the transition rows, with 2 * c2 * w - observed added
    chunk by chunk, each chunk's counts subtracted at their indices, so every
    entry has the bits of (2 * c2 * w - observed) + expected counts with that
    difference built first over a dense observed (x - 0.0 is x, -0.0
    included), and no second Θ-sized array is made."""
    theta = w.reshape(-1, K)
    _check_spread(theta, K)
    a, b, c, transitions = _forward_backward(X @ theta[:-K], theta[-K:], packing)
    U = np.multiply(a, b, out=a)
    del a, b  # b is freed before X.T @ U allocates G
    # scipy returns X.T @ U as a reshaped view for K = 1, which cannot grow
    G = np.require(X.T @ U, requirements="O")
    del U  # freed before G grows, which can move it
    G.resize(theta.shape, refcheck=False)  # G is new: nothing else holds it
    G[-K:] = transitions
    G = G.ravel()
    # G += 2 c2 w - observed, one chunk at a time
    index, count = observed
    buffer = np.empty(_FOLD_CHUNK)
    starts = range(0, len(w), _FOLD_CHUNK)
    bounds = np.searchsorted(index, [*starts, len(w)])
    for start, lo, hi in zip(starts, bounds, bounds[1:]):
        part = slice(start, start + _FOLD_CHUNK)
        term = np.multiply(w[part], 2.0 * c2, out=buffer[:len(w) - start])
        term[index[lo:hi] - start] -= count[lo:hi]
        G[part] += term

    value = float(c.sum()) - dot(count, w[index])
    if c2:  # w @ w overflows on large finite weights; without L2 it must not enter
        value += c2 * dot(w, w)
    if not np.isfinite(value):
        raise ArithmeticError(f"non-finite objective value: {value}")
    return value, G


def build_attribute_index(corpus: TaggedCorpus) -> dict[str, int]:
    """Sorted vocabulary of every attribute occurring in the corpus: each
    family's values that some token holds (a neighbour value may be held by
    none), rendered as "key=value"."""
    families = attribute_families([sentence.words() for sentence in corpus])
    attributes = sorted(key + values[code] for key, codes, values in families
                        for code in np.unique(codes).tolist() if code >= 0)
    return {attr: i for i, attr in enumerate(attributes)}


def train_model(
    corpus: TaggedCorpus,
    tagset: TagSet,
    optim_config: OptimConfig = OptimConfig(),
    log: Callable[[str], None] | None = None,
) -> tuple[ModelParameters, IterationTrace]:
    """Fit CRF weights on a tagged corpus from all-zero initial weights.

    The smooth objective handed to the optimizer carries the L2 term
    (optim_config.c2); the L1 term (optim_config.c1) is applied inside
    the optimizer itself.

    Training grows its vocabulary from the same attribute families that
    build_attribute_index reads, so the model's attribute_index is the
    sorted vocabulary build_attribute_index gives, restricted to the
    attributes with a nonzero state weight and renumbered 0..A'-1 in the
    same order; with c1 = 0 every one is kept. log, if given, gets each
    iteration's line, then the vocabulary size and the number of attributes
    kept.
    """
    if len(corpus) == 0:
        raise ValueError("training corpus is empty")
    grown: Grown = {}
    K = len(tagset)
    sentences = [sentence.words() for sentence in corpus]
    X, packing, observed = _prepare(
        grown, K, list(map(len, sentences)), attribute_families(sentences),
        [sentence.tags() for sentence in corpus], grow=True)

    # minimize copies x0 on entry, so x0 is a read-only view of one zero that
    # holds no Θ-sized buffer of its own
    w_star, trace = minimize(lambda w: _nll_prepared(w, K, X, packing, observed, optim_config.c2),
                             np.broadcast_to(0.0, (X.shape[1] + K) * K), optim_config, log=log)
    training = TrainingMeta(
        optim_config.c1, optim_config.c2, trace.iterations, trace.final_objective
    )
    theta = w_star.reshape(-1, K)
    kept = theta.any(axis=1)
    A = len(theta) - K - 2
    kept[A:] = True  # begin, end and transition rows
    # each family's values are in column order, after the previous family's:
    # only the kept ones are rendered
    attributes: list[str] = []
    start = 0
    for key, values in grown.items():
        attributes += [key + values[i] for i in np.flatnonzero(kept[start:start + len(values)])]
        start += len(values)
    if log is not None:
        log(f"{A} attributes seen, {len(attributes)} kept")
    # the kept attributes sorted as strings, Θ's rows with them
    rows = np.flatnonzero(kept)
    ranked = sorted(range(len(attributes)), key=attributes.__getitem__)
    rows[:len(ranked)] = rows[ranked]
    return ModelParameters(tagset, {attributes[i]: n for n, i in enumerate(ranked)}, theta[rows],
                           training), trace


FORMAT_VERSION = 1


# The feature_config block of every model file: the template's affix lengths
_AFFIX_LENGTHS = {"prefix_max": FeatureConfig.prefix_max, "suffix_max": FeatureConfig.suffix_max}


def save_model(path: str, model: ModelParameters):
    """Single JSON document; floats round-trip bit-faithfully via repr. It is
    written with corpus.write_text, so a failed save leaves the file as it was."""
    a_vals = model.state_weights.nonzero()
    doc = {
        "format_version": FORMAT_VERSION,
        "tagset": list(model.tagset.names),
        "feature_config": _AFFIX_LENGTHS,
        "attributes": sorted(model.attribute_index, key=model.attribute_index.__getitem__),
        "state_weights": [
            [int(a), int(k), float(model.state_weights[a, k])]
            for a, k in zip(*a_vals)
        ],
        "transitions": model.transition_weights.tolist(),
        "begin": model.begin_weights.tolist(),
        "end": model.end_weights.tolist(),
        "training": asdict(model.training) if model.training else None,
    }
    write_text(path, json.dumps(doc, ensure_ascii=False) + "\n")


_MODEL_KEYS = ("tagset", "feature_config", "attributes", "state_weights",
               "transitions", "begin", "end")


def load_model(path: str) -> tuple[ModelParameters, FeatureConfig]:
    """Read a model file; a document of the wrong shape raises ValueError. The
    second item is always FeatureConfig(), which holds no value: the pair
    stays only for callers that unpack it."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("model file nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    if type(doc.get("format_version")) is not int or doc["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {doc.get('format_version')!r}")
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise ValueError(f"model file lacks {', '.join(missing)}")
    try:
        return _model_from_doc(doc), FeatureConfig()
    except TypeError as exc:  # a value of the wrong JSON type, or a record with wrong fields
        raise ValueError(f"malformed model file: {exc}") from exc


# Template switches that older model files record next to the affix lengths.
# The template is fixed, so such a file loads only if every switch is on and
# the lengths are the template's.
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


def _weights(value, field: str, *shape: int):
    """value as floats, if it is JSON lists of the given shape around JSON
    numbers that fit a float64 (a bare number for no shape). This is checked in
    plain Python before numpy sees the value: numpy would parse a string such
    as "0.5", turn true into 1.0, and raise RuntimeError on lists nested past
    32 levels and OverflowError on integers beyond float range."""
    if shape:
        if not (isinstance(value, list) and len(value) == shape[0]):
            raise ValueError(f"{field} must be a JSON array of shape {shape}")
        return np.array([_weights(v, field, *shape[1:]) for v in value]).reshape(shape)
    if type(value) not in (int, float):
        raise ValueError(f"{field} must hold only JSON numbers")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond float range
        raise ValueError(f"{field} holds a number beyond float range") from None


def _check_feature_config(fields):
    if not isinstance(fields, dict):
        raise ValueError("feature_config must be a JSON object")
    for flag in _TEMPLATE_FLAGS.intersection(fields):
        if fields[flag] is not True:
            raise ValueError(f"feature_config {flag!r} must be true: {fields[flag]!r}")
    lengths = {k: v for k, v in fields.items() if k not in _TEMPLATE_FLAGS}
    # 3.0 == 3 and True == 1, so the types are checked too
    if lengths != _AFFIX_LENGTHS or not all(type(v) is int for v in lengths.values()):
        raise ValueError(f"feature_config must hold the template's affix lengths "
                         f"{_AFFIX_LENGTHS}: {lengths}")


def _training(block) -> TrainingMeta | None:
    """The training block: null, or an object with exactly TrainingMeta's
    fields, iterations a non-negative int and the rest JSON numbers."""
    if block is None:
        return None
    names = sorted(field.name for field in dataclass_fields(TrainingMeta))
    if not (isinstance(block, dict) and sorted(block) == names):
        raise ValueError(f"training must be null or a JSON object with keys {', '.join(names)}")
    iterations = block["iterations"]
    if not (type(iterations) is int and iterations >= 0):
        raise ValueError(f"training iterations must be a non-negative int: {iterations!r}")
    for name in ("c1", "c2", "final_objective"):
        if type(block[name]) not in (int, float):
            raise ValueError(f"training {name} must be a JSON number: {block[name]!r}")
    return TrainingMeta(**block)


def _model_from_doc(doc: dict) -> ModelParameters:
    tagset = TagSet(tuple(_string_list(doc, "tagset")))
    _check_feature_config(doc["feature_config"])
    attributes = _string_list(doc, "attributes")
    if len(set(attributes)) != len(attributes):
        raise ValueError("duplicate attributes in model file")
    A, K = len(attributes), len(tagset)
    records = doc["state_weights"]
    if not (isinstance(records, list)
            and all(isinstance(record, list) and len(record) == 3 for record in records)):
        raise ValueError("state_weights must be a JSON list of [attribute, tag, weight] triples")
    weights = np.zeros((A + 2 + K, K))  # Θ: state rows, begin, end, transition rows
    seen: set[tuple[int, int]] = set()
    for a, k, w in records:
        if not (type(a) is int and type(k) is int and 0 <= a < A and 0 <= k < K):
            raise ValueError(f"state weight index must be an int in range: [{a}, {k}]")
        if (a, k) in seen:
            raise ValueError(f"duplicate state_weights record for [{a}, {k}] in model file")
        seen.add((a, k))
        weights[a, k] = _weights(w, "state_weights")
    weights[A + 2:] = _weights(doc["transitions"], "transitions", K, K)
    weights[A], weights[A + 1] = (_weights(doc[key], key, K) for key in ("begin", "end"))
    training = _training(doc.get("training"))
    return ModelParameters(tagset, {a: i for i, a in enumerate(attributes)}, weights, training)
