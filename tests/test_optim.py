import math

import numpy as np
import pytest

from nagatag.optim import (
    IterationRecord,
    IterationTrace,
    LineSearchFailure,
    NonFiniteObjective,
    OptimConfig,
    minimize,
    project_orthant,
    pseudo_gradient,
    sign_project_direction,
)


def quadratic(a):
    def f(x):
        diff = x - a
        return float(np.dot(diff, diff)), 2.0 * diff
    return f


def rosenbrock(x):
    v = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = np.array(
        [
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )
    return float(v), g


def test_quadratic_converges_fast():
    a = np.array([3.0, -1.0, 2.0, 0.5])
    config = OptimConfig(c1=0.0, c2=0.0, gradient_tolerance=1e-9)
    x, trace = minimize(quadratic(a), np.zeros(4), config)
    assert np.linalg.norm(x - a) <= 1e-8
    assert trace.iterations <= 10
    assert trace.converged


def test_rosenbrock_converges():
    config = OptimConfig(c1=0.0, c2=0.0, max_iterations=200, gradient_tolerance=1e-10)
    x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]), config)
    assert np.allclose(x, [1.0, 1.0], atol=1e-6)
    assert trace.converged


def test_l1_soft_threshold():
    def f(x):
        return float(0.5 * (x[0] - 3.0) ** 2), np.array([x[0] - 3.0])

    config = OptimConfig(c1=1.0, c2=0.0, gradient_tolerance=1e-10)
    x, _ = minimize(f, np.zeros(1), config)
    assert abs(x[0] - 2.0) <= 1e-8

    def f_neg(x):
        return float(0.5 * (x[0] + 3.0) ** 2), np.array([x[0] + 3.0])

    x, _ = minimize(f_neg, np.zeros(1), config)
    assert abs(x[0] + 2.0) <= 1e-8


def test_l1_dominant_penalty_pins_at_zero():
    def f(x):
        return float(0.5 * (x[0] - 3.0) ** 2), np.array([x[0] - 3.0])

    # |f'(0)| = 3 < c1, so zero is optimal and the pseudo-gradient vanishes
    config = OptimConfig(c1=4.0, c2=0.0, gradient_tolerance=1e-10)
    x, trace = minimize(f, np.zeros(1), config)
    assert x[0] == 0.0
    assert trace.converged
    assert trace.iterations == 0


def test_l1_produces_exact_zeros():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(30, 12))
    b = rng.normal(size=30)

    def least_squares(x):
        r = A @ x - b
        return float(0.5 * np.dot(r, r)), A.T @ r

    config = OptimConfig(c1=3.0, c2=0.0, max_iterations=300, gradient_tolerance=1e-8)
    x, _ = minimize(least_squares, np.zeros(12), config)
    assert np.count_nonzero(x) < 12
    assert np.any(x == 0.0)


def test_pseudo_gradient_cases():
    pg = pseudo_gradient(np.array([0.0]), np.array([0.0]), 1.0)
    assert pg[0] == 0.0
    pg = pseudo_gradient(np.array([0.0]), np.array([-2.0]), 1.0)
    assert pg[0] == -1.0
    pg = pseudo_gradient(np.array([0.0]), np.array([2.0]), 1.0)
    assert pg[0] == 1.0
    # nonzero coordinates get the plain subgradient
    pg = pseudo_gradient(np.array([2.0, -2.0]), np.array([0.5, 0.5]), 1.0)
    assert pg.tolist() == [1.5, -0.5]


def test_pseudo_gradient_identity_without_l1():
    g = np.array([1.0, -2.0, 0.0])
    pg = pseudo_gradient(np.array([0.0, 1.0, -1.0]), g, 0.0)
    assert np.array_equal(pg, g)
    assert pg is not g


def test_sign_project_direction():
    d = np.array([1.0, -1.0, 2.0, 0.0])
    pg = np.array([-1.0, -1.0, 1.0, 1.0])
    projected = sign_project_direction(d, pg)
    assert projected.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_project_orthant():
    x = np.array([1.0, -2.0, 3.0, 0.0])
    xi = np.array([1.0, 1.0, -1.0, 1.0])
    assert project_orthant(x, xi).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_trace_monotone_and_deterministic():
    a = np.arange(6, dtype=float)
    config = OptimConfig(c1=0.5, c2=0.0, gradient_tolerance=1e-9)
    x1, t1 = minimize(quadratic(a), np.zeros(6), config)
    x2, t2 = minimize(quadratic(a), np.zeros(6), config)
    assert np.array_equal(x1, x2)
    assert t1 == t2
    prev = t1.initial_objective
    for r in t1.records:
        assert r.objective <= prev
        prev = r.objective


def test_max_iterations_cap():
    config = OptimConfig(c1=0.0, c2=0.0, max_iterations=3, gradient_tolerance=1e-14)
    _, trace = minimize(rosenbrock, np.array([-1.2, 1.0]), config)
    assert trace.iterations == 3
    assert not trace.converged


def test_non_finite_objective_raises():
    def f(x):
        if abs(x[0]) > 2.0:
            return float("inf"), np.array([0.0])
        return float((x[0] - 5.0) ** 2), np.array([2.0 * (x[0] - 5.0)])

    with pytest.raises(NonFiniteObjective):
        minimize(f, np.zeros(1), OptimConfig(c1=0.0, gradient_tolerance=1e-9))

    def bad_start(x):
        return float("nan"), np.array([0.0])

    with pytest.raises(NonFiniteObjective):
        minimize(bad_start, np.zeros(1), OptimConfig())


def test_line_search_failure_raises():
    # flat value with a lying nonzero gradient can never satisfy Armijo
    def f(x):
        return 0.0, np.array([1.0])

    with pytest.raises(LineSearchFailure):
        minimize(f, np.zeros(1), OptimConfig(c1=0.0, gradient_tolerance=1e-9))


def test_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(max_iterations=0)
    with pytest.raises(ValueError):
        OptimConfig(gradient_tolerance=0.0)
    with pytest.raises(ValueError):
        OptimConfig(c1=-0.1)
    with pytest.raises(ValueError):
        OptimConfig(c2=-1.0)
    for name in ("c1", "c2", "gradient_tolerance"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError):
                OptimConfig(**{name: value})


def test_trace_rejects_objective_increase():
    rec = lambda i, obj: IterationRecord(i, obj, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        IterationTrace(1.0, (rec(1, 0.5), rec(2, 0.7)), False)
    trace = IterationTrace(1.0, (rec(1, 0.5), rec(2, 0.5)), True)
    assert trace.final_objective == 0.5


def test_trace_empty_records():
    trace = IterationTrace(2.5, (), True)
    assert trace.final_objective == 2.5
    assert trace.iterations == 0
