"""Batch minimizer for smooth objectives with optional elastic-net handling.

The smooth part (including any L2 term) comes from the objective callback;
an L1 term c1*||x||_1 is handled inside the optimizer. With c1 = 0 this is
plain L-BFGS with a backtracking Armijo line search. With c1 > 0 it runs
the orthant-wise variant (OWL-QN, Andrew & Gao 2007): steps use the
pseudo-gradient of the combined objective, the quasi-Newton direction is
sign-projected onto the pseudo-gradient's descent orthant, and line-search
iterates clamp coordinates that cross zero, which is what actually produces
exact zeros in the solution.

Active set. Every per-coordinate step runs only on the active set
P = {i : x_i != 0 or |g_i| > c1}. Off P, x_i = 0 and |g_i| <= c1, so the
pseudo-gradient is 0 there; the sign projection then zeroes the direction
there and x never moves off P. Restricting the direction, the line search,
the L1 norm and the Armijo term to P is therefore exact: only the order of
summation changes. With c1 = 0 there is no sign projection and P is every
coordinate. With L1, a CRF's active set is a few thousand of its hundreds of
thousands of weights after the first iterations.

Gram-coefficient two-loop. The L-BFGS direction -H*pg is a combination of
pg and the stored pairs (s_i, y_i). The two-loop recursion (Nocedal &
Wright, *Numerical Optimization*, Alg. 7.4) needs only dot products among
them, so it runs on the kept Gram matrices s_i.y_j and y_i.y_j and on
s_i.pg and y_i.pg, and the direction is assembled once at the end (the
"vector-free" L-BFGS of Chen, Wang, Zhou & Gao, NIPS 2014). Each s_i is
zero off the active set of its own iteration and is kept sparse there; only
the dense y_i need full-length passes, k + 1 dot products when a pair is
accepted. A pair is built only when another iteration will read it.

OptimConfig sets only the regularizer weights, the iteration cap and the
gradient tolerance. The curvature memory and the line search use the
textbook constants below (Liu & Nocedal 1989; Nocedal & Wright, section
3.1), not values tuned per workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from nagatag._lazy import lazy

np = lazy("numpy")

Objective = Callable[["np.ndarray"], "tuple[float, np.ndarray]"]


class OptimError(RuntimeError):
    pass


class NonFiniteObjective(OptimError):
    """The objective or its gradient went non-finite during a line search."""


class LineSearchFailure(OptimError):
    """No step satisfying the Armijo condition within the trial budget."""


MEMORY_PAIRS = 10
ARMIJO_CONSTANT = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_LINE_SEARCH_TRIALS = 50


@dataclass(frozen=True)
class OptimConfig:
    max_iterations: int = 100
    c1: float = 0.1
    c2: float = 0.1
    gradient_tolerance: float = 1e-5

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1: {self.max_iterations}")
        for name in ("c1", "c2", "gradient_tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite: {getattr(self, name)}")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError(f"regularizer weights must be nonnegative: {self.c1}, {self.c2}")
        if self.gradient_tolerance <= 0:
            raise ValueError(f"gradient_tolerance must be > 0: {self.gradient_tolerance}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float
    gradient_max_norm: float
    step_size: float
    nonzero_count: int
    # objective calls of this iteration's line search, failed ones included
    evaluations: int = 1


@dataclass(frozen=True)
class IterationTrace:
    initial_objective: float
    records: tuple[IterationRecord, ...]
    converged: bool

    def __post_init__(self):
        prev = self.initial_objective
        for r in self.records:
            if r.objective > prev:
                raise ValueError(
                    f"objective increased at iteration {r.iteration}: {prev} -> {r.objective}"
                )
            prev = r.objective

    @property
    def final_objective(self) -> float:
        return self.records[-1].objective if self.records else self.initial_objective

    @property
    def iterations(self) -> int:
        return len(self.records)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b for two 1-D float arrays, with the same bits however many
    threads BLAS runs: OpenBLAS splits a long ddot across its threads, which
    changes the order of the sum. einsum sums without BLAS, in one order
    that does not depend on the arrays' alignment either. Every
    parameter-length dot of the optimizer and the CRF objective goes through
    here, so a trained model is the same file at any thread count."""
    return float(np.einsum("i,i", a, b))


def pseudo_gradient(x: np.ndarray, grad: np.ndarray, c1: float) -> np.ndarray:
    """Pseudo-gradient of f(x) + c1*||x||_1 (Andrew & Gao 2007). Where x != 0
    it is grad + c1*sign(x). Where x = 0 it is the soft threshold
    sign(grad)*max(|grad| - c1, 0): the one-sided derivative that descends,
    or 0 when neither side descends. With c1 = 0 both cases give grad.

    Both cases are built in place, each case's operations in the same order
    as np.where over the two would run them, so the bits are the same, with
    at most two temporaries the length of x besides the x != 0 mask."""
    pg = np.abs(grad)
    pg -= c1
    np.maximum(pg, 0.0, out=pg)
    np.multiply(np.sign(grad), pg, out=pg)
    at_nonzero = np.sign(x)
    at_nonzero *= c1
    np.add(grad, at_nonzero, out=at_nonzero)
    np.copyto(pg, at_nonzero, where=x != 0)
    return pg


def sign_project_direction(d: np.ndarray, pg: np.ndarray) -> np.ndarray:
    """Zero every component of d that does not descend against pg."""
    return np.where(d * pg < 0, d, 0.0)


def project_orthant(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Clamp coordinates that left the orthant with signs xi to zero."""
    return np.where(x * xi < 0, 0.0, x)


def _active_set(x: np.ndarray, grad: np.ndarray, c1: float) -> np.ndarray | slice:
    """The coordinates where x or the pseudo-gradient can be nonzero, as a
    sorted index array; every coordinate when c1 = 0, where the direction
    is not sign-projected."""
    if not c1:
        return slice(None)
    # |grad| > c1 as two comparisons: no float temporary of grad's length
    return np.flatnonzero((x != 0) | (grad > c1) | (grad < -c1))


def _overlap(active: np.ndarray | slice, idx: np.ndarray | slice):
    """(positions in active, positions in idx) of the coordinates both sets
    hold, in increasing order. The smaller set is searched in the larger:
    the first pairs' sets can hold a hundred times the coordinates of a late
    active set."""
    if isinstance(idx, slice):  # c1 = 0: both are every coordinate
        return idx, idx
    small, large = (active, idx) if len(active) < len(idx) else (idx, active)
    pos = np.searchsorted(large, small)
    np.minimum(pos, len(large) - 1, out=pos)
    hit = large[pos] == small
    if small is active:
        return np.flatnonzero(hit), pos[hit]
    return pos[hit], np.flatnonzero(hit)


class _Pairs:
    """The last MEMORY_PAIRS pairs s_i = x_{i+1} - x_i, y_i = g_{i+1} - g_i,
    oldest first, with their Gram matrices sy[i, j] = s_i.y_j and
    yy[i, j] = y_i.y_j. Each s_i is kept as its values on the active set of
    its iteration, where it can be nonzero; y_i is dense."""

    def __init__(self):
        self.clear()

    def __len__(self) -> int:
        return len(self.y)

    def clear(self):
        self.s: list[tuple[np.ndarray | slice, np.ndarray]] = []
        self.y: list[np.ndarray] = []
        self.sy = np.empty((0, 0))
        self.yy = np.empty((0, 0))

    def append(self, active: np.ndarray | slice, s: np.ndarray, y: np.ndarray, sy: float):
        """Add the pair (s on active, y) with s.y = sy, dropping the oldest
        pair when the memory is full."""
        if len(self.y) == MEMORY_PAIRS:
            del self.s[0], self.y[0]
            self.sy, self.yy = self.sy[1:, 1:], self.yy[1:, 1:]
        k = len(self.y)
        sy_new = np.empty((k + 1, k + 1))
        yy_new = np.empty((k + 1, k + 1))
        sy_new[:k, :k], yy_new[:k, :k] = self.sy, self.yy
        sy_new[k, :k] = [dot(s, y_j[active]) for y_j in self.y]
        sy_new[:k, k] = [dot(s_i, y[idx]) for idx, s_i in self.s]
        yy_new[k, :k] = yy_new[:k, k] = [dot(y, y_j) for y_j in self.y]
        sy_new[k, k], yy_new[k, k] = sy, dot(y, y)
        self.s.append((active, s))
        self.y.append(y)
        self.sy, self.yy = sy_new, yy_new

    def direction(self, active: np.ndarray | slice, pg: np.ndarray) -> np.ndarray:
        """The L-BFGS direction -H*pg on the active set, for a pseudo-gradient
        pg that is zero off it (given there as pg's values on it). The
        two-loop recursion runs on coefficients: q = pg - sum_i a_i y_i and
        r = gamma*q + sum_i c_i s_i, with every dot product read off the
        Gram matrices or gathered on the active set; -r is assembled once."""
        k = len(self.y)
        rho = 1.0 / np.diag(self.sy)
        overlaps = [_overlap(active, idx) for idx, _ in self.s]
        y_on = [y[active] for y in self.y]
        s_pg = [dot(s[at], pg[pos]) for (_, s), (pos, at) in zip(self.s, overlaps)]
        y_pg = [dot(y, pg) for y in y_on]
        a = np.zeros(k)
        for i in reversed(range(k)):
            a[i] = rho[i] * (s_pg[i] - self.sy[i] @ a)
        gamma = self.sy[-1, -1] / self.yy[-1, -1]
        c = np.zeros(k)
        for i in range(k):
            c[i] = a[i] - rho[i] * (gamma * (y_pg[i] - self.yy[i] @ a) + c @ self.sy[:, i])
        d = -gamma * pg
        for a_i, y in zip(a, y_on):
            d += (gamma * a_i) * y
        for c_i, (_, s), (pos, at) in zip(c, self.s, overlaps):
            d[pos] -= c_i * s[at]
        return d


def minimize(
    objective: Objective,
    x0: np.ndarray,
    config: OptimConfig = OptimConfig(),
    log: Callable[[str], None] | None = None,
) -> tuple[np.ndarray, IterationTrace]:
    """Minimize objective(x) + c1*||x||_1. Returns (x*, trace).

    The objective callback must return (value, gradient) of the smooth
    part only; it is expected to already contain any L2 term. It may raise
    ArithmeticError at a point it cannot evaluate: at a line-search trial the
    step is then halved, and at x0 the error propagates.

    The optimizer holds one x, a copy of x0, and writes each line-search
    trial into it, so the objective must not keep the array it is handed. The
    gradient it returns belongs to the optimizer, which overwrites it with the
    next curvature pair's y = g_new - g: return a new array on every call.
    x0 is left as it was.

    Between objective calls the optimizer holds x, at most one gradient and the
    stored y's: a rejected trial's gradient is dropped before the next
    trial's call. The line search's arrays are freed, and the next active set
    and pseudo-gradient found, before y is built, and y is built and stored
    only when another iteration will read it, so the last iteration drops g
    before its direction is found.
    """
    c1 = config.c1
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = objective(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise NonFiniteObjective("objective not finite at the initial point")
    g = np.asarray(g, dtype=np.float64)
    F = f + c1 * np.sum(np.abs(x)) if c1 else f
    initial_objective = float(F)

    pairs = _Pairs()
    # pg, d, xi, s and the *_on vectors hold values on the active set only
    active = _active_set(x, g, c1)
    pg = pseudo_gradient(x[active], g[active], c1)
    gmax = float(np.max(np.abs(pg))) if pg.size else 0.0
    records = []

    for iteration in range(1, config.max_iterations + 1):
        if gmax <= config.gradient_tolerance:
            break
        more = iteration < config.max_iterations
        if not more:
            g = None  # no iteration reads this one's curvature pair: its y is never built

        d = pairs.direction(active, pg) if pairs else -pg
        if c1:
            d = sign_project_direction(d, pg)
        if dot(pg, d) >= 0:
            # stale curvature produced a non-descent direction; restart
            pairs.clear()
            d = -pg
        x_on = x[active].copy()  # x[active] is a view of x when active is a slice
        if c1:
            xi = np.where(x_on != 0, np.sign(x_on), np.sign(d))

        step = 1.0
        evaluations = 0
        accepted = False
        for _ in range(MAX_LINE_SEARCH_TRIALS):
            x_new_on = x_on + step * d
            if c1:
                x_new_on = project_orthant(x_new_on, xi)
            # the trial goes into x itself: x is the same off the active set,
            # and the next trial or the accepted step overwrites it
            x[active] = x_new_on
            evaluations += 1
            try:
                f_new, g_new = objective(x)
            except ArithmeticError:
                # the objective cannot be evaluated this far out (the CRF's
                # forward-backward refuses weights that span too many nats):
                # reject the step like one that fails the Armijo test
                step *= BACKTRACK_FACTOR
                continue
            if not (np.isfinite(f_new) and np.all(np.isfinite(g_new))):
                raise NonFiniteObjective(
                    f"objective not finite at iteration {iteration}, step {step}"
                )
            s = x_new_on - x_on
            F_new = f_new + c1 * np.sum(np.abs(x_new_on)) if c1 else f_new
            if F_new <= F + ARMIJO_CONSTANT * dot(pg, s):
                accepted = True
                break
            del g_new  # a rejected trial's gradient is freed before the next trial's call
            step *= BACKTRACK_FACTOR
        if not accepted:
            raise LineSearchFailure(
                f"no Armijo step found at iteration {iteration} "
                f"(objective {F}, gradient max-norm {gmax})"
            )

        g_new = np.asarray(g_new, dtype=np.float64)
        F = float(F_new)
        nonzero_count = int(np.count_nonzero(x_new_on))
        x_on = d = xi = x_new_on = None  # freed before the next active set is built
        active_new = _active_set(x, g_new, c1)
        pg = pseudo_gradient(x[active_new], g_new[active_new], c1)
        gmax = float(np.max(np.abs(pg))) if pg.size else 0.0
        if more and gmax > config.gradient_tolerance:
            # another iteration runs and reads the curvature pair
            y = np.subtract(g_new, g, out=g)  # the old g is not read again: y takes its buffer
            sy = dot(s, y[active])
            if sy > 1e-10:
                pairs.append(active, s, y, sy)
            else:
                # rejected curvature pair: drop the history so the next step
                # restarts from steepest descent instead of a stale scale
                pairs.clear()
        g, active = g_new, active_new
        del g_new  # g alone holds the gradient, so the last iteration can drop it
        record = IterationRecord(
            iteration=iteration,
            objective=F,
            gradient_max_norm=gmax,
            step_size=step,
            nonzero_count=nonzero_count,
            evaluations=evaluations,
        )
        records.append(record)
        if log is not None:
            log(
                f"iter {record.iteration} obj {record.objective:.6f} "
                f"gmax {record.gradient_max_norm:.6g} step {record.step_size:g} "
                f"evals {record.evaluations} nnz {record.nonzero_count}"
            )

    converged = gmax <= config.gradient_tolerance
    trace = IterationTrace(initial_objective, tuple(records), converged)
    return x, trace
