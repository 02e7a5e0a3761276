"""The in-place localization kernels against their naive references.

``capped_chi_square``, ``evaluate_cells`` and ``refine_source`` build
their results in reused buffers (and refinement hoists its weights and
reuses the solve of an unchanged gate).  The references below are the
straightforward expressions those kernels replaced; every comparison is
``np.array_equal`` — bitwise, not approximate — because the serve and
campaign parity tests rely on the kernels' exact outputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.localization.hierarchy import coarse_cells, evaluate_cells
from repro.localization.likelihood import capped_chi_square, ring_chi_square
from repro.localization.refinement import (
    RefinementConfig,
    RefinementResult,
    refine_source,
)
from tests.localization.test_likelihood import make_rings


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


# -- references: the naive expressions the kernels replaced ---------------


def ref_capped_chi_square(rings, directions, cap=9.0):
    dirs = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    resid = rings.axis @ dirs.T - rings.eta[:, None]
    chi2 = (resid / rings.deta[:, None]) ** 2
    return np.minimum(chi2, cap).sum(axis=0)


def ref_evaluate_cells(rings, cells, cap=25.0, temperature=1.0):
    resid = rings.axis @ cells.centers().T - rings.eta[:, None]
    sigma2 = (
        rings.deta[:, None] ** 2 + cells.half_widths_rad()[None, :] ** 2
    )
    chi2 = resid * resid / sigma2
    if cap is not None:
        chi2 = np.minimum(chi2, cap)
    log_like = -0.5 * chi2.sum(axis=0) / temperature
    log_post = log_like + np.log(cells.areas_sr())
    return log_like, log_post


def _ref_solve_weighted(rings, mask, ridge):
    axis = rings.axis[mask]
    eta = rings.eta[mask]
    w = 1.0 / rings.deta[mask] ** 2
    a = (axis * w[:, None]).T @ axis
    b = (axis * (w * eta)[:, None]).sum(axis=0)
    a += np.eye(3) * (ridge * max(np.trace(a), 1.0))
    try:
        s = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    norm = np.linalg.norm(s)
    if norm == 0.0 or not np.all(np.isfinite(s)):
        return None
    return s / norm


def ref_refine_source(rings, initial, config=None):
    cfg = config or RefinementConfig()
    s = np.asarray(initial, dtype=np.float64)
    s = s / np.linalg.norm(s)
    m = rings.num_rings
    used = np.ones(m, dtype=bool)
    if m == 0:
        return RefinementResult(direction=s, used=used, iterations=0,
                                converged=False)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        normalized = np.abs(rings.residuals(s)) / rings.deta
        gate = normalized <= cfg.gate_sigma
        if gate.sum() < min(cfg.min_rings, m):
            order = np.argsort(normalized)
            gate = np.zeros(m, dtype=bool)
            gate[order[: min(cfg.min_rings, m)]] = True
        s_new = _ref_solve_weighted(rings, gate, cfg.ridge)
        if s_new is None:
            break
        used = gate
        step = np.degrees(np.arccos(np.clip(np.dot(s, s_new), -1.0, 1.0)))
        s = s_new
        if step < cfg.tol_deg:
            converged = True
            break
    return RefinementResult(direction=s, used=used, iterations=iterations,
                            converged=converged)


def assert_same_refinement(got, want):
    assert np.array_equal(got.direction, want.direction)
    assert np.array_equal(got.used, want.used)
    assert got.iterations == want.iterations
    assert got.converged == want.converged


# -- inputs -----------------------------------------------------------------


@st.composite
def ring_sets(draw, min_rings=0, max_rings=80):
    """A random ring set around a random source, with a background share.

    Returns ``(rings, source, rng)``; ``rng`` continues the same stream
    for drawing candidate directions.
    """
    m = draw(st.integers(min_rings, max_rings))
    seed = draw(st.integers(0, 2**32 - 1))
    noise = draw(st.sampled_from([1e-3, 0.01, 0.05, 0.3]))
    background = draw(st.floats(0.0, 0.8))
    rng = np.random.default_rng(seed)
    source = _unit_rows(rng.normal(size=3))
    axes = _unit_rows(rng.normal(size=(m, 3)))
    deta = rng.uniform(1e-3, 0.1, m)
    eta = axes @ source + rng.normal(size=m) * noise
    bg = rng.random(m) < background
    eta[bg] = rng.uniform(-1.0, 1.0, int(bg.sum()))
    return make_rings(axes, eta, deta, source=source), source, rng


def _directions(rng, d):
    return _unit_rows(rng.normal(size=(d, 3)))


# -- capped chi-square ------------------------------------------------------


@given(ring_sets(), st.integers(1, 60), st.sampled_from([1.0, 4.0, 9.0, 25.0]))
@settings(max_examples=60, deadline=None)
def test_capped_chi_square_matches_reference(case, d, cap):
    rings, _, rng = case
    dirs = _directions(rng, d)
    got = capped_chi_square(rings, dirs, cap=cap)
    assert np.array_equal(got, ref_capped_chi_square(rings, dirs, cap))
    # Property: each ring contributes a value in [0, cap].
    assert np.all(got >= 0.0)
    assert np.all(got <= cap * rings.num_rings)


@given(ring_sets(min_rings=1))
@settings(max_examples=30, deadline=None)
def test_capped_chi_square_single_direction(case):
    rings, source, _ = case
    got = capped_chi_square(rings, source, cap=4.0)
    assert got.shape == (1,)
    assert np.array_equal(got, ref_capped_chi_square(rings, source, 4.0))


@given(ring_sets(), st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_ring_chi_square_is_non_negative(case, d):
    rings, _, rng = case
    chi2 = ring_chi_square(rings, _directions(rng, d))
    assert chi2.shape == (rings.num_rings, d)
    assert np.all(chi2 >= 0.0)


# -- hierarchical cell evaluation -------------------------------------------


_COARSE = coarse_cells(16.0, 95.0)


@given(
    ring_sets(),
    st.sampled_from([None, 4.0, 25.0]),
    st.sampled_from([1.0, 2.5]),
)
@settings(max_examples=40, deadline=None)
def test_evaluate_cells_matches_reference(case, cap, temperature):
    rings, _, _ = case
    cells = _COARSE.split() if rings.num_rings % 2 else _COARSE
    got = evaluate_cells(rings, cells, cap=cap, temperature=temperature)
    want = ref_evaluate_cells(rings, cells, cap=cap, temperature=temperature)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.all(got[0] <= 0.0)
    if cap is not None:
        assert np.all(-2.0 * temperature * got[0] <= cap * rings.num_rings)


# -- refinement ---------------------------------------------------------------


@given(
    ring_sets(min_rings=1),
    st.floats(0.0, 0.3),
    st.sampled_from([RefinementConfig(), RefinementConfig(gate_sigma=1.0),
                     RefinementConfig(min_rings=12, max_iterations=8)]),
)
@settings(max_examples=60, deadline=None)
def test_refine_source_matches_reference(case, offset, cfg):
    rings, source, rng = case
    start = source + rng.normal(size=3) * offset
    assert_same_refinement(
        refine_source(rings, start, cfg), ref_refine_source(rings, start, cfg)
    )


@given(ring_sets(min_rings=1, max_rings=4))
@settings(max_examples=30, deadline=None)
def test_refine_source_fewer_rings_than_min_rings(case):
    """``m < min_rings``: the argsort fallback keeps every ring."""
    rings, source, _ = case
    start = source + np.array([0.2, -0.1, 0.0])
    got = refine_source(rings, start)
    assert_same_refinement(got, ref_refine_source(rings, start))
    assert got.used.sum() == rings.num_rings


def test_refine_source_singular_solve_returns_initial():
    """Identical axes with no ridge: the normal matrix is singular, the
    first solve raises LinAlgError and the start comes back unconverged."""
    m = 20
    rings = make_rings(np.tile([0.0, 0.0, 1.0], (m, 1)), np.full(m, 0.5),
                       np.full(m, 0.02))
    cfg = RefinementConfig(ridge=0.0)
    start = np.array([0.6, 0.0, 0.8])
    got = refine_source(rings, start, cfg)
    assert_same_refinement(got, ref_refine_source(rings, start, cfg))
    assert got.iterations == 1
    assert not got.converged
    assert np.array_equal(got.direction, start / np.linalg.norm(start))


def test_refine_source_zero_norm_solve_returns_initial():
    """All ``eta = 0``: the right-hand side vanishes, the solution has
    zero norm, and refinement keeps the start."""
    rng = np.random.default_rng(5)
    m = 30
    axes = _unit_rows(rng.normal(size=(m, 3)))
    rings = make_rings(axes, np.zeros(m), np.full(m, 0.02))
    start = np.array([0.0, 0.0, 1.0])
    got = refine_source(rings, start)
    assert_same_refinement(got, ref_refine_source(rings, start))
    assert got.iterations == 1
    assert not got.converged
    assert np.array_equal(got.direction, start)
