"""Batch minimizer for smooth objectives with optional elastic-net handling.

The smooth part (including any L2 term) comes from the objective callback;
an L1 term c1*||x||_1 is handled inside the optimizer. With c1 = 0 this is
plain L-BFGS with a backtracking Armijo line search. With c1 > 0 it runs
the orthant-wise variant: steps use the pseudo-gradient of the combined
objective, the quasi-Newton direction is sign-projected onto the pseudo-
gradient's descent orthant, and line-search iterates clamp coordinates that
cross zero, which is what actually produces exact zeros in the solution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], "tuple[float, np.ndarray]"]


class OptimError(RuntimeError):
    pass


class NonFiniteObjective(OptimError):
    """The objective or its gradient went non-finite during a line search."""


class LineSearchFailure(OptimError):
    """No step satisfying the Armijo condition within the trial budget."""


@dataclass(frozen=True)
class OptimConfig:
    max_iterations: int = 100
    memory_pairs: int = 10
    c1: float = 0.1
    c2: float = 0.1
    gradient_tolerance: float = 1e-5
    armijo_constant: float = 1e-4
    backtrack_factor: float = 0.5
    max_line_search_trials: int = 50

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1: {self.max_iterations}")
        if self.memory_pairs < 1:
            raise ValueError(f"memory_pairs must be >= 1: {self.memory_pairs}")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError(f"regularizer weights must be nonnegative: {self.c1}, {self.c2}")
        if self.gradient_tolerance <= 0:
            raise ValueError(f"gradient_tolerance must be > 0: {self.gradient_tolerance}")
        if not 0 < self.armijo_constant < 1 or not 0 < self.backtrack_factor < 1:
            raise ValueError("line-search constants must lie in (0, 1)")
        if self.max_line_search_trials < 1:
            raise ValueError("max_line_search_trials must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float
    gradient_max_norm: float
    step_size: float
    nonzero_count: int


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


def pseudo_gradient(x: np.ndarray, grad: np.ndarray, c1: float) -> np.ndarray:
    """Subgradient of f(x) + c1*||x||_1 choosing the descent-feasible sign
    at zero coordinates (zero when no descent is possible there)."""
    if c1 == 0:
        return grad.copy()
    pg = grad + c1 * np.sign(x)
    at_zero = x == 0
    if np.any(at_zero):
        plus = grad + c1
        minus = grad - c1
        pg_zero = np.where(plus < 0, plus, np.where(minus > 0, minus, 0.0))
        pg[at_zero] = pg_zero[at_zero]
    return pg


def sign_project_direction(d: np.ndarray, pg: np.ndarray) -> np.ndarray:
    """Zero every component of d that does not descend against pg."""
    return np.where(d * pg < 0, d, 0.0)


def project_orthant(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Clamp coordinates that left the orthant with signs xi to zero."""
    return np.where(x * xi < 0, 0.0, x)


def _two_loop(pg: np.ndarray, pairs) -> np.ndarray:
    """Standard two-loop recursion; returns the direction -H*pg."""
    q = pg.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    s_last, y_last, _ = pairs[-1]
    q *= np.dot(s_last, y_last) / np.dot(y_last, y_last)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * np.dot(y, q)
        q += (a - b) * s
    return -q


def minimize(
    objective: Objective,
    x0: np.ndarray,
    config: OptimConfig = OptimConfig(),
    log: Callable[[str], None] | None = None,
) -> tuple[np.ndarray, IterationTrace]:
    """Minimize objective(x) + c1*||x||_1. Returns (x*, trace).

    The objective callback must return (value, gradient) of the smooth
    part only; it is expected to already contain any L2 term.
    """
    c1 = config.c1
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = objective(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise NonFiniteObjective("objective not finite at the initial point")
    g = np.asarray(g, dtype=np.float64)
    F = f + c1 * np.sum(np.abs(x)) if c1 else f
    initial_objective = float(F)

    pairs: deque = deque(maxlen=config.memory_pairs)
    pg = pseudo_gradient(x, g, c1)
    gmax = float(np.max(np.abs(pg))) if pg.size else 0.0
    records = []

    for iteration in range(1, config.max_iterations + 1):
        if gmax <= config.gradient_tolerance:
            break

        d = _two_loop(pg, pairs) if pairs else -pg
        if c1:
            d = sign_project_direction(d, pg)
        if np.dot(pg, d) >= 0:
            # stale curvature produced a non-descent direction; restart
            pairs.clear()
            d = sign_project_direction(-pg, pg) if c1 else -pg
        if c1:
            xi = np.where(x != 0, np.sign(x), np.sign(d))

        step = 1.0
        accepted = False
        for _ in range(config.max_line_search_trials):
            x_new = x + step * d
            if c1:
                x_new = project_orthant(x_new, xi)
            f_new, g_new = objective(x_new)
            if not (np.isfinite(f_new) and np.all(np.isfinite(g_new))):
                raise NonFiniteObjective(
                    f"objective not finite at iteration {iteration}, step {step}"
                )
            F_new = f_new + c1 * np.sum(np.abs(x_new)) if c1 else f_new
            if F_new <= F + config.armijo_constant * np.dot(pg, x_new - x):
                accepted = True
                break
            step *= config.backtrack_factor
        if not accepted:
            raise LineSearchFailure(
                f"no Armijo step found at iteration {iteration} "
                f"(objective {F}, gradient max-norm {gmax})"
            )

        g_new = np.asarray(g_new, dtype=np.float64)
        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-10:
            pairs.append((s, y, 1.0 / sy))
        else:
            # rejected curvature pair: drop the history so the next step
            # restarts from steepest descent instead of a stale scale
            pairs.clear()

        x, g, F = x_new, g_new, float(F_new)
        pg = pseudo_gradient(x, g, c1)
        gmax = float(np.max(np.abs(pg))) if pg.size else 0.0
        record = IterationRecord(
            iteration=iteration,
            objective=F,
            gradient_max_norm=gmax,
            step_size=step,
            nonzero_count=int(np.count_nonzero(x)),
        )
        records.append(record)
        if log is not None:
            log(
                f"iter {record.iteration} obj {record.objective:.6f} "
                f"gmax {record.gradient_max_norm:.6g} step {record.step_size:g} "
                f"nnz {record.nonzero_count}"
            )

    converged = gmax <= config.gradient_tolerance
    trace = IterationTrace(initial_objective, tuple(records), converged)
    return x, trace

