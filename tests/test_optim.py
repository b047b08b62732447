import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagatag.optim import (
    MEMORY_PAIRS,
    IterationRecord,
    IterationTrace,
    LineSearchFailure,
    NonFiniteObjective,
    OptimConfig,
    dot,
    minimize,
    project_orthant,
    pseudo_gradient,
    sign_project_direction,
)
from nagatag.optim import _active_set, _Pairs
from tests.helpers import traced_peak


def quadratic(a):
    def f(x):
        diff = x - a
        g = 2.0 * diff
        return float(np.dot(diff, diff)), lambda: g
    return f


def rosenbrock(x):
    v = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = np.array(
        [
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )
    return float(v), lambda: g


@pytest.mark.parametrize("n", [1, 7, 1_001, 20_000])
def test_dot_has_the_same_bits_on_sliced_and_gathered_inputs(n):
    # the optimizer dots slices, gathers and fresh arrays alike: where a
    # vector starts in memory must not change its dot's bits
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal((2, n + 3))
    expected = dot(a[:n].copy(), b[:n].copy())
    for shift in range(4):
        a_shifted, b_shifted = np.empty(n + 3), np.empty(n + 3)
        a_shifted[shift:shift + n], b_shifted[3 - shift:3 - shift + n] = a[:n], b[:n]
        assert dot(a_shifted[shift:shift + n], b_shifted[3 - shift:3 - shift + n]) == expected
    assert dot(a[np.arange(n)], b[:n]) == expected
    assert dot(a[:n], b[:n]) == pytest.approx(float(a[:n] @ b[:n]), rel=1e-12, abs=1e-12)


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
        g = np.array([x[0] - 3.0])
        return float(0.5 * (x[0] - 3.0) ** 2), lambda: g

    config = OptimConfig(c1=1.0, c2=0.0, gradient_tolerance=1e-10)
    x, _ = minimize(f, np.zeros(1), config)
    assert abs(x[0] - 2.0) <= 1e-8

    def f_neg(x):
        g = np.array([x[0] + 3.0])
        return float(0.5 * (x[0] + 3.0) ** 2), lambda: g

    x, _ = minimize(f_neg, np.zeros(1), config)
    assert abs(x[0] + 2.0) <= 1e-8


def test_l1_dominant_penalty_pins_at_zero():
    def f(x):
        g = np.array([x[0] - 3.0])
        return float(0.5 * (x[0] - 3.0) ** 2), lambda: g

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
        g = A.T @ r
        return float(0.5 * np.dot(r, r)), lambda: g

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
            return float("inf"), lambda: np.array([0.0])
        g = np.array([2.0 * (x[0] - 5.0)])
        return float((x[0] - 5.0) ** 2), lambda: g

    with pytest.raises(NonFiniteObjective):
        minimize(f, np.zeros(1), OptimConfig(c1=0.0, gradient_tolerance=1e-9))

    def bad_start(x):
        return float("nan"), lambda: np.array([0.0])

    with pytest.raises(NonFiniteObjective):
        minimize(bad_start, np.zeros(1), OptimConfig())


def test_line_search_backtracks_from_points_the_objective_cannot_evaluate():
    def f(x):
        if abs(x[0]) > 2.0:
            raise ArithmeticError("cannot evaluate this far out")
        g = np.array([2.0 * (x[0] - 1.5)])
        return float((x[0] - 1.5) ** 2), lambda: g

    # the full first step lands on 3.0, where f raises; half of it is the minimum
    x, trace = minimize(f, np.zeros(1), OptimConfig(c1=0.0, gradient_tolerance=1e-9))
    assert x[0] == pytest.approx(1.5, abs=1e-9)
    assert trace.converged and trace.records[0].step_size == 0.5
    assert trace.records[0].evaluations == 2
    with pytest.raises(ArithmeticError):
        minimize(f, np.array([3.0]), OptimConfig())


@pytest.mark.parametrize("c1", [0.0, 0.5])
def test_minimize_leaves_x0_alone_and_returns_the_last_accepted_point(c1):
    # line-search trials are written into the optimizer's own x: x0 must not
    # change, and a rejected trial must not stay in the result
    a = np.array([3.0, -1.0, 2.0, 0.0, -0.25])
    seen = []

    def f(x):
        seen.append(x.copy())
        if np.abs(x).max() > 2.5:
            raise ArithmeticError("cannot evaluate this far out")
        return quadratic(a)(x)

    x0 = np.array([0.5, 0.0, 0.0, 1.0, 0.0])
    start = x0.copy()
    x, trace = minimize(f, x0, OptimConfig(c1=c1, c2=0.0, max_iterations=4))
    assert np.array_equal(x0, start)
    assert sum(r.evaluations for r in trace.records) > trace.iterations  # trials were rejected
    assert x.tobytes() == seen[-1].tobytes()
    value, _ = quadratic(a)(x)
    assert trace.final_objective == (value + c1 * np.sum(np.abs(x)) if c1 else value)


@pytest.mark.parametrize("c1", [0.0, 0.5])
def test_the_gradient_is_asked_for_only_at_x0_and_each_accepted_step(c1):
    # a steep quadratic that cannot be evaluated past |x_i| = 5: the first
    # iteration's unit step and the next few halvings raise ArithmeticError,
    # and a later trial fails the Armijo test
    a = np.linspace(-1.0, 1.0, 50)
    calls, asked = [], []  # the x of every objective call; the calls whose gradient was asked for

    def objective(x):
        calls.append(x.copy())
        if np.abs(x).max() > 5.0:
            raise ArithmeticError("cannot evaluate this far out")
        call = len(calls) - 1
        diff = x - a

        def gradient():
            # x is the optimizer's own array: it must still hold this call's point
            assert x.tobytes() == calls[call].tobytes()
            asked.append(call)
            return 200.0 * diff

        return 100.0 * float(diff @ diff), gradient

    _, trace = minimize(objective, np.zeros_like(a), OptimConfig(c1=c1, c2=0.0))
    assert trace.converged
    # call 0 is at x0; each iteration's calls follow, the last one accepted
    accepted = np.cumsum([0] + [r.evaluations for r in trace.records]).tolist()
    assert asked == accepted
    assert len(asked) == 1 + trace.iterations
    raised = sum(np.abs(x).max() > 5.0 for x in calls)
    assert raised and len(calls) > 1 + trace.iterations + raised  # trials raised and were rejected


def test_a_non_finite_gradient_raises_at_x0_and_at_the_accepted_step():
    # the values are finite everywhere; only the gradient goes non-finite
    def f(x):
        g = np.array([2.0 * (x[0] - 1.5)])
        if x[0] > 1.0:
            g[0] = math.nan
        return float((x[0] - 1.5) ** 2), lambda: g

    with pytest.raises(NonFiniteObjective, match="gradient not finite at iteration 1"):
        minimize(f, np.zeros(1), OptimConfig(c1=0.0, gradient_tolerance=1e-9))
    with pytest.raises(NonFiniteObjective, match="gradient not finite at the initial point"):
        minimize(f, np.array([2.0]), OptimConfig(c1=0.0, gradient_tolerance=1e-9))


@pytest.mark.parametrize("c1, bound", [(0.0, 9.0), (0.1, 13.0)])
def test_the_line_search_arrays_are_freed_before_the_next_active_set(c1, bound):
    # One iteration on a scaled quadratic where every coordinate is active:
    # 8.1 (c1 = 0) and 12.1 (c1 = 0.1) times x.nbytes traced, against 11.1
    # and 16.1 when x_on, d, x_new_on and the orthant signs xi stayed alive
    # while the next active set and pseudo-gradient were built
    n = 50_000
    rng = np.random.default_rng(0)
    a = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    scale = rng.uniform(1.0, 50.0, n)

    def objective(x):
        diff = x - a
        g = scale * diff
        return 0.5 * dot(g, diff), lambda: g

    config = OptimConfig(c1=c1, c2=0.0, max_iterations=1)
    peak = traced_peak(minimize, objective, np.zeros(n), config)
    assert peak <= bound * n * 8


@st.composite
def _points_at_the_threshold(draw):
    """(x, g, c1) with entries drawn from ±0.0, ±c1, the floats next to c1
    and any float."""
    c1 = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    near = [0.0, -0.0, c1, -c1, math.nextafter(c1, 0.0), math.nextafter(c1, math.inf)]
    entry = st.one_of(st.sampled_from(near), st.floats())
    n = draw(st.integers(0, 30))
    x, g = (np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=float)
            for _ in range(2))
    return x, g, c1


@settings(max_examples=300, deadline=None)
@given(_points_at_the_threshold())
def test_active_set_is_where_x_or_the_pseudo_gradient_can_be_nonzero(point):
    x, g, c1 = point
    expected = np.flatnonzero((x != 0) | (np.abs(g) > c1))
    assert np.array_equal(_active_set(x, g, c1), expected)


def _pseudo_gradient_where(x, grad, c1):
    """The pseudo-gradient's two cases as one np.where, the reference whose
    bits pseudo_gradient keeps."""
    return np.where(
        x != 0, grad + c1 * np.sign(x), np.sign(grad) * np.maximum(np.abs(grad) - c1, 0.0)
    )


@settings(max_examples=300, deadline=None)
@given(_points_at_the_threshold())
def test_pseudo_gradient_has_the_bits_of_the_where_form(point):
    x, g, c1 = point
    with np.errstate(all="ignore"):  # any float: sums may overflow, the same in both
        for c in (c1, 0.0):
            assert pseudo_gradient(x, g, c).tobytes() == _pseudo_gradient_where(x, g, c).tobytes()


def test_pseudo_gradient_holds_two_arrays_of_its_length_at_most():
    # the result and one temporary of x's length, besides the one-byte x != 0 mask
    n = 100_000
    rng = np.random.default_rng(0)
    x = rng.normal(size=n) * (rng.random(n) < 0.5)
    g = rng.normal(size=n)
    assert traced_peak(pseudo_gradient, x, g, 0.5) <= 2 * x.nbytes + n + 65536


def test_line_search_failure_raises():
    # flat value with a lying nonzero gradient can never satisfy Armijo
    def f(x):
        return 0.0, lambda: np.array([1.0])

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


def _two_loop(pg, pairs):
    """The dense two-loop recursion (Nocedal & Wright, Alg. 7.4) over full-length
    (s, y, 1 / s.y) pairs, oldest first; returns the direction -H*pg."""
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


def _sparse_point(rng, n):
    """A point with most coordinates 0 and a gradient with many zeros, so the
    pseudo-gradient is sparse; coordinate 0 is nonzero so the active set is not empty."""
    x = np.where(rng.random(n) < 0.2, rng.normal(size=n), 0.0)
    x[0] = 1.0
    g = np.where(rng.random(n) < 0.5, rng.normal(size=n), 0.0)
    return x, g


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, MEMORY_PAIRS + 1),
    c1=st.sampled_from([0.0, 0.5]),
)
def test_direction_matches_the_dense_two_loop(seed, k, c1):
    # k = MEMORY_PAIRS + 1 fills the ring and drops its oldest pair
    rng = np.random.default_rng(seed)
    n = 60
    pairs, dense = _Pairs(), []
    for _ in range(k):
        # s lives on the active set of its own iteration; y = Bs + noise, s.y > 0
        active = _active_set(*_sparse_point(rng, n), c1)
        s = np.zeros(n)
        s[active] = rng.normal(size=n)[active]
        y = s * rng.uniform(0.5, 2.0, size=n) + 0.1 * rng.normal(size=n)
        if s @ y <= 0.1 * (s @ s):
            y = s * rng.uniform(0.5, 2.0, size=n)
        pairs.append(active, s[active], y, float(s[active] @ y[active]))
        dense.append((s, y, 1.0 / (s @ y)))
    x, g = _sparse_point(rng, n)
    active = _active_set(x, g, c1)
    pg = pseudo_gradient(x, g, c1)

    expected = _two_loop(pg, dense[-MEMORY_PAIRS:])
    got = np.zeros(n)
    got[active] = pairs.direction(active, pg[active])
    if c1:  # as in minimize; without L1 the whole direction must match
        expected = sign_project_direction(expected, pg)
        got = sign_project_direction(got, pg)
    assert len(pairs) == min(k, MEMORY_PAIRS)
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9 * scale)
