import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obliqueldp.cli import build_coefficients
from obliqueldp.geometry import CoefficientField, Disk, Interval, ObliqueField, \
    constant_coefficients, normal_field, oblique_from_tangent
from obliqueldp.rate import rate_of_event, rate_of_path
from obliqueldp.reflect import ReferencePath, TimeGrid, advance, solve_reflected_ode, \
    solve_skorokhod_picard
from obliqueldp.sde import (
    _SUB,
    _block,
    EventSpec,
    InfiniteEstimateError,
    McEstimate,
    NoiseScale,
    estimate_event_probability,
    log_rate_estimate,
    simulate_reflected_sde,
    trajectory_noise,
)

# Discretely monitored tube probabilities below are checked against a
# transfer-matrix oracle: Gaussian step kernel with absorption outside the
# tube, midpoint rule on 4000 cells (grid drift < 1e-6).
KERNEL_SURVIVAL_EPS_05 = 0.403280
KERNEL_EXIT = {0.5: 0.596720, 0.35: 0.286220, 0.25: 0.083619}


def _interval_setup(a=-1.0, b=1.0):
    iv = Interval(a, b)
    return iv, normal_field(iv), constant_coefficients([0.0], [[1.0]])


def test_noise_scale_validation():
    assert NoiseScale(0.0).eps == 0.0
    with pytest.raises(ValueError):
        NoiseScale(-0.1)


def test_trajectory_noise_is_keyed_by_seed_and_id():
    a = trajectory_noise(3, 17, 32, 2)
    b = trajectory_noise(3, 17, 32, 2)
    c = trajectory_noise(3, 18, 32, 2)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (32, 2)
    assert np.max(np.abs(a - c)) > 0.1


def test_rekeyed_noise_equals_a_fresh_philox_stream():
    gen = np.random.Generator(np.random.Philox(key=0))
    for seed, tid, n, m in ((0, 0, 1, 1), (3, 17, 32, 2), (20240801, 4095, 1024, 1),
                            (2**63 + 5, 2**40, 7, 3), (3, 18, 32, 2), (3, 17, 5, 2)):
        # (a seed beyond 2**53 goes through Philox's own lossy key conversion)
        fresh = np.random.Generator(np.random.Philox(key=[seed, tid])).standard_normal((n, m))
        # drawing an odd count first leaves a half-used buffer behind
        gen.standard_normal(3)
        out = np.empty((n, m))
        got = trajectory_noise(seed, tid, n, m, gen, out=out)
        assert got is out
        assert out.tobytes() == fresh.tobytes()
        assert trajectory_noise(seed, tid, n, m).tobytes() == fresh.tobytes()


@pytest.mark.parametrize("kind, ends_digest, devs_digest", [
    ("normal", "e1559cf8d4581469", "d2c1c5b809fd60e2"),
    ("oblique", "fde12ea2bdd99016", "7061b078a21fce30"),
])
def test_two_dimensional_block_is_pinned(kind, ends_digest, devs_digest):
    # a non-diagonal sigma; the normal digests were recorded before the block
    # re-keyed one generator and stored its shocks time-major, the oblique
    # ones when the disk contact became closed-form
    disk = Disk(1.0)
    field = normal_field(disk) if kind == "normal" else oblique_from_tangent(disk, 0.5)
    coeffs = constant_coefficients([0.1, -0.2], [[0.8, 0.3], [-0.2, 0.6]])
    refs = [ReferencePath.constant([0.0, 0.0], 0.0, 1.0),
            ReferencePath.constant([0.3, -0.1], 0.0, 1.0)]

    def block(f):
        return _block(disk, f, coeffs, NoiseScale(0.5), TimeGrid.uniform(0.0, 1.0, 32),
                      np.array([0.2, 0.1]), 17, np.arange(5, 69), refs)

    ends, devs = block(field)
    assert ends.shape == (64, 2) and devs.shape == (64, 2)
    assert hashlib.sha256(ends.tobytes()).hexdigest()[:16] == ends_digest
    assert hashlib.sha256(devs.tobytes()).hexdigest()[:16] == devs_digest
    # the same gamma as a custom field takes the secant contact
    custom = ObliqueField(field.gamma)
    ends1, devs1 = block(custom)
    np.testing.assert_allclose(ends1, ends, rtol=0.0, atol=1e-11)
    np.testing.assert_allclose(devs1, devs, rtol=0.0, atol=1e-11)


def _block_wide_reference(domain, field, coeffs, eps, grid, x0, seed, ids, references):
    """The constant block built whole: one (B, n, m) draw, its (B, n, d)
    product with sigma^T, a time-major copy, and a plain ``advance`` loop that
    scales each step's shocks."""
    xi = np.stack([trajectory_noise(seed, int(tid), grid.n_steps, coeffs.m) for tid in ids])
    shocks = np.ascontiguousarray((xi @ coeffs.constant_sigma.T).transpose(1, 0, 2))
    scale = eps.eps * np.sqrt(grid.dts)
    g_nodes = [ref.at(grid.nodes) for ref in references]
    X = np.repeat(x0[None, :], len(ids), axis=0)
    sq = [np.add.reduce((X - g[0]) ** 2, axis=1) for g in g_nodes]
    for k in range(grid.n_steps):
        X, _ = advance(domain, field, X, coeffs.constant_b, grid.dts[k], scale[k] * shocks[k])
        sq = [np.maximum(s, np.add.reduce((X - g[k + 1]) ** 2, axis=1))
              for s, g in zip(sq, g_nodes)]
    return X, np.sqrt(np.array(sq).T)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("case", ["interval", "normal disk", "oblique disk"])
@pytest.mark.parametrize("size", [1, _SUB - 1, _SUB, _SUB + 1, 2 * _SUB + 3])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_constant_block_equals_the_block_wide_construction(size, case, uniform, data):
    # the block fills its shocks sub-block by sub-block with the step scale
    # folded in; every bit must be that of the block built whole
    if case == "interval":
        domain = Interval(-1.0, 1.0)
        field = normal_field(domain)
        coeffs = constant_coefficients([0.4], [[1.3]])
        x0 = np.array([data.draw(st.floats(-1.0, 1.0), label="x0")])
        refs = [ReferencePath.constant([0.0], 0.0, 1.0)]
    else:
        domain = Disk(1.0)
        field = normal_field(domain) if case == "normal disk" \
            else oblique_from_tangent(domain, 0.5)
        coeffs = constant_coefficients([0.5, -0.3], [[0.8, 0.3], [-0.2, 0.6]])
        x0 = np.array(data.draw(st.lists(st.floats(-0.7, 0.7), min_size=2, max_size=2),
                                label="x0"))
        refs = [ReferencePath.constant([0.0, 0.0], 0.0, 1.0),
                ReferencePath.constant([0.3, -0.1], 0.0, 1.0)]
    n_steps = data.draw(st.integers(1, 24), label="n_steps")
    if uniform:
        grid = TimeGrid.uniform(0.0, 1.0, n_steps)
    else:
        # cumulative sums of widths between 1 and 10 make the step scale vary
        widths = np.array(data.draw(st.lists(st.floats(1.0, 10.0), min_size=n_steps,
                                             max_size=n_steps), label="widths"))
        grid = TimeGrid(np.concatenate([[0.0], np.cumsum(widths) / widths.sum()]))
    eps = NoiseScale(data.draw(st.floats(0.05, 1.5), label="eps"))
    seed = data.draw(st.integers(0, 2**32), label="seed")
    ids = np.arange(size) + data.draw(st.integers(0, 1000), label="first id")
    args = (domain, field, coeffs, eps, grid, x0, seed, ids, refs)
    ends, devs = _block(*args)
    want_ends, want_devs = _block_wide_reference(*args)
    assert ends.tobytes() == want_ends.tobytes()
    assert devs.tobytes() == want_devs.tobytes()


def test_constant_block_holds_one_shock_array():
    # the pre-scaled time-major shocks are the block's one large array: no
    # (B, n, m) draw, (B, n, d) product or transposed copy sits beside them
    iv, field, coeffs = _interval_setup()
    grid, n_traj = TimeGrid.uniform(0.0, 1.0, 1024), 4096
    refs = [ReferencePath.constant([0.0], 0.0, 1.0)]
    tracemalloc.start()
    try:
        _block(iv, field, coeffs, NoiseScale(0.5), grid, np.array([0.0]), 3,
               np.arange(n_traj), refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * grid.n_steps * n_traj * 1 * 8


def test_state_dependent_block_equals_fresh_trajectories():
    # one re-keyed generator per block gives each trajectory's own stream
    disk = Disk(1.0)
    field = oblique_from_tangent(disk, 0.5)
    coeffs = CoefficientField(b=lambda t, x: np.array([1.0 - 0.8 * x[0], 0.3 * x[1]]),
                              sigma=lambda t, x: np.array([[0.8, 0.3 * x[0]], [-0.2, 0.6]]),
                              m=2, lipschitz_x=0.9)
    refs = [ReferencePath.constant([0.0, 0.0], 0.0, 1.0),
            ReferencePath.constant([0.3, -0.1], 0.0, 1.0)]
    grid, x0, ids = TimeGrid.uniform(0.0, 1.0, 32), np.array([0.2, 0.1]), np.arange(5, 21)
    ends, devs = _block(disk, field, coeffs, NoiseScale(0.5), grid, x0, 17, ids, refs)
    g_nodes = [ref.at(grid.nodes) for ref in refs]
    for tid, end, dev in zip(ids, ends, devs):
        pts = simulate_reflected_sde(disk, field, coeffs, NoiseScale(0.5), x0, grid, 17,
                                     trajectory_id=int(tid)).points
        assert end.tobytes() == pts[-1].tobytes()
        assert dev.tolist() == [np.linalg.norm(pts - g, axis=1).max() for g in g_nodes]


_ENTRY = st.floats(-0.6, 0.6).filter(lambda v: abs(v) >= 0.05)


def _matrix(*shape):
    n = int(np.prod(shape))
    return st.lists(_ENTRY, min_size=n, max_size=n).map(
        lambda v: np.reshape(v, shape).tolist())


@settings(max_examples=40, deadline=None)
@given(matrix=_matrix(2, 2), offset=_matrix(2), base=_matrix(2, 2), slopes=_matrix(2, 2, 2),
       x0=st.lists(st.floats(-0.6, 0.6), min_size=2, max_size=2),
       n_steps=st.integers(1, 24), eps=st.floats(0.05, 1.5), seed=st.integers(0, 2**32),
       first=st.integers(0, 1000), size=st.integers(1, 4))
def test_state_dependent_block_equals_the_row_batch_loop(matrix, offset, base, slopes, x0,
                                                         n_steps, eps, seed, first, size):
    # the per-trajectory branch pinned against steps of a one-row batch
    # through the row form of the coefficients, before anyone batches it
    coeffs = build_coefficients({
        "drift": {"name": "linear", "matrix": matrix, "offset": offset},
        "dispersion": {"name": "linear", "base": base, "slopes": slopes}}, 2)
    disk = Disk(1.0)
    field = oblique_from_tangent(disk, 0.5)
    grid, eps, x0 = TimeGrid.uniform(0.0, 1.0, n_steps), NoiseScale(eps), np.array(x0)
    refs = [ReferencePath.constant([0.0, 0.0], 0.0, 1.0),
            ReferencePath.constant([0.3, -0.1], 0.0, 1.0)]
    ids = np.arange(first, first + size)
    ends, devs = _block(disk, field, coeffs, eps, grid, x0, seed, ids, refs)
    co = coeffs.at_eps(eps.eps)
    scale = eps.eps * np.sqrt(grid.dts)
    for tid, end, dev in zip(ids, ends, devs):
        xi = trajectory_noise(seed, int(tid), n_steps, coeffs.m)
        X = x0[None, :]
        pts = [X[0]]
        for k in range(n_steps):
            b, S = co.rows(grid.nodes[k], X)
            X, _ = advance(disk, field, X, b, grid.dts[k],
                           scale[k] * np.matmul(S, xi[k][:, None])[:, :, 0])
            pts.append(X[0])
        pts = np.array(pts)
        assert end.tobytes() == pts[-1].tobytes()
        assert dev.tobytes() == np.array(
            [np.linalg.norm(pts - g.at(grid.nodes), axis=1).max() for g in refs]).tobytes()


def test_zero_noise_reduces_to_the_drift_ode():
    iv, field, _ = _interval_setup()
    coeffs = constant_coefficients([2.0], [[1.0]])
    grid = TimeGrid.uniform(0.0, 1.0, 512)
    ode = solve_reflected_ode(iv, field, coeffs, None, [0.5], grid)
    sde = simulate_reflected_sde(iv, field, coeffs, NoiseScale(0.0), [0.5],
                                 grid, seed=1)
    np.testing.assert_array_equal(sde.points, ode.points)


def test_event_spec_validation():
    ref = ReferencePath.constant([0.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        EventSpec("banana", [ref], np.array([0.5]))
    with pytest.raises(ValueError):
        EventSpec("ball", [ref, ref], np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        EventSpec.ball(ref, -0.5)
    # a NaN radius would never hit and an infinite one always would
    for radius in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            EventSpec.ball(ref, radius)
        with pytest.raises(ValueError, match="finite"):
            EventSpec.complements([ref, ref], [0.5, radius])
    iv = Interval(-1.0, 1.0)
    outside = ReferencePath.constant([1.5], 0.0, 1.0)
    with pytest.raises(ValueError):
        EventSpec.ball(outside, 0.5).validate_in(iv)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_event_forms_agree_at_the_monitoring_nodes(data):
    # the Monte Carlo count, the rate shortfall and the PDE/DP obstacles read
    # one event, so at the nodes of a path they agree on membership
    d = data.draw(st.sampled_from([1, 2]), label="d")
    n_nodes = data.draw(st.integers(2, 6), label="n_nodes")
    n_refs = data.draw(st.integers(1, 3), label="n_refs")
    points = st.lists(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d),
                      min_size=n_nodes, max_size=n_nodes)
    nodes = np.linspace(0.0, 1.0, n_nodes)
    path = np.array(data.draw(points, label="path"))
    refs = [ReferencePath(nodes, np.array(data.draw(points, label="ref"))) for _ in range(n_refs)]
    node_devs = np.stack([np.linalg.norm(path - ref.at(nodes), axis=1) for ref in refs], axis=1)
    # a radius is often one of the node distances, where the tube's edge counts
    radii = [data.draw(st.one_of(st.floats(0.05, 3.0), st.sampled_from(
        [float(v) for v in node_devs[:, i] if v > 0.0] or [1.0])), label="radius")
        for i in range(n_refs)]
    height = data.draw(st.floats(0.1, 2.0), label="height")
    tol = data.draw(st.floats(1e-3, 0.1), label="tol")

    def obstacle_values(event):
        # (n_nodes, n_refs): each tube's obstacle at each node of the path
        return np.array([[float(psi(t, x)[0]) for psi in event.obstacles(height)]
                         for t, x in zip(nodes, path)])

    ball = EventSpec.ball(refs[0], radii[0])
    complements = EventSpec.complements(refs, radii)
    sup = node_devs.max(axis=0)[None, :]
    assert ball.hits(sup[:, :1])[0] == np.all(obstacle_values(ball) == 0.0)
    assert complements.hits(sup)[0] == np.all(np.any(obstacle_values(complements) == 0.0,
                                                     axis=0))
    for event, devs in ((ball, sup[:, :1]), (complements, sup)):
        if np.all(event.shortfalls(devs, tol) == 0.0):
            assert event.hits(devs)[0]


START_ENTRIES = ("solve_reflected_ode", "simulate_reflected_sde", "solve_skorokhod_picard",
                 "estimate constant", "estimate state-dependent", "rate_of_event ball",
                 "rate_of_event complements", "rate_of_path")


@pytest.mark.parametrize("entry", START_ENTRIES)
def test_every_path_entry_rejects_a_start_outside_the_closure(entry):
    # a path starts at its grid's first node; one check holds the start
    # point to the closure, whatever the coefficients or the event
    iv, field, coeffs = _interval_setup()
    ou = CoefficientField(b=lambda t, x: -x, sigma=lambda t, x: np.eye(1), m=1,
                          lipschitz_x=1.0)
    grid, x0 = TimeGrid.uniform(0.0, 1.0, 8), [1.2]
    ref = ReferencePath.constant([0.9], 0.0, 1.0)
    ball, complements = EventSpec.ball(ref, 0.5), EventSpec.complements([ref], [0.5])
    calls = {
        "solve_reflected_ode": lambda: solve_reflected_ode(iv, field, coeffs, None, x0, grid),
        "simulate_reflected_sde": lambda: simulate_reflected_sde(
            iv, field, coeffs, NoiseScale(1.0), x0, grid, seed=0),
        "solve_skorokhod_picard": lambda: solve_skorokhod_picard(
            iv, field, coeffs, None, x0, grid),
        "estimate constant": lambda: estimate_event_probability(
            iv, field, coeffs, NoiseScale(1.0), x0, grid, ball, n_samples=200, seed=0),
        "estimate state-dependent": lambda: estimate_event_probability(
            iv, field, ou, NoiseScale(1.0), x0, grid, ball, n_samples=200, seed=0),
        "rate_of_event ball": lambda: rate_of_event(iv, field, coeffs, 0.0, x0, ball),
        "rate_of_event complements": lambda: rate_of_event(
            iv, field, coeffs, 0.0, x0, complements),
        "rate_of_path": lambda: rate_of_path(iv, field, coeffs, 0.0, x0, ref),
    }
    with pytest.raises(ValueError, match="outside the closure"):
        calls[entry]()


def test_small_sample_count_rejected():
    iv, field, coeffs = _interval_setup()
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    ev = EventSpec.ball(ReferencePath.constant([0.0], 0.0, 1.0), 0.5)
    with pytest.raises(ValueError):
        estimate_event_probability(iv, field, coeffs, NoiseScale(0.5), [0.0],
                                   grid, ev, n_samples=50, seed=0)


def test_stay_probability_matches_kernel_oracle():
    iv, field, coeffs = _interval_setup()
    grid = TimeGrid.uniform(0.0, 1.0, 256)
    ev = EventSpec.ball(ReferencePath.constant([0.0], 0.0, 1.0), 0.5)
    est = estimate_event_probability(iv, field, coeffs, NoiseScale(0.5), [0.0],
                                     grid, ev, n_samples=20000, seed=11235)
    assert abs(est.p_hat - KERNEL_SURVIVAL_EPS_05) <= 3.0 * est.ci_half_width
    assert est.n_hits == round(est.p_hat * est.n_samples)


def test_exit_probability_ladder_matches_kernel_oracle():
    iv, field, coeffs = _interval_setup()
    grid = TimeGrid.uniform(0.0, 1.0, 256)
    ref = ReferencePath.constant([0.0], 0.0, 1.0)
    ev = EventSpec.complements([ref], [0.5])
    for eps, pk in KERNEL_EXIT.items():
        est = estimate_event_probability(iv, field, coeffs, NoiseScale(eps),
                                         [0.0], grid, ev, n_samples=20000, seed=4242)
        assert abs(est.p_hat - pk) <= 3.0 * est.ci_half_width


def test_estimates_invariant_to_chunking_and_threads():
    iv, field, coeffs = _interval_setup()
    grid = TimeGrid.uniform(0.0, 1.0, 256)
    ev = EventSpec.ball(ReferencePath.constant([0.0], 0.0, 1.0), 0.5)
    kw = dict(n_samples=3000, seed=7)
    e1 = estimate_event_probability(iv, field, coeffs, NoiseScale(0.5), [0.0],
                                    grid, ev, chunk_size=4096, **kw)
    e2 = estimate_event_probability(iv, field, coeffs, NoiseScale(0.5), [0.0],
                                    grid, ev, chunk_size=257, **kw)
    e3 = estimate_event_probability(iv, field, coeffs, NoiseScale(0.5), [0.0],
                                    grid, ev, chunk_size=500, n_threads=4, **kw)
    assert e1.n_hits == e2.n_hits == e3.n_hits == 1220


def test_disk_estimates_invariant_to_chunking_and_threads():
    disk = Disk(1.0)
    field = oblique_from_tangent(disk, 0.5)
    coeffs = constant_coefficients([0.1, -0.2], [[0.8, 0.3], [-0.2, 0.6]])
    grid = TimeGrid.uniform(0.0, 1.0, 32)
    # the tube reaches past the boundary, so reflected paths count too
    ev = EventSpec.ball(ReferencePath.constant([0.2, 0.1], 0.0, 1.0), 0.8)
    hits = {(chunk, threads): estimate_event_probability(
                disk, field, coeffs, NoiseScale(0.5), [0.2, 0.1], grid, ev, n_samples=1000,
                seed=7, chunk_size=chunk, n_threads=threads).n_hits
            for chunk in (63, 65, 4096) for threads in (1, 3)}
    assert set(hits.values()) == {829}


@pytest.mark.parametrize("name, value", [("chunk_size", 0), ("chunk_size", -7),
                                         ("n_threads", 0), ("n_threads", -3)])
def test_chunk_size_and_thread_count_must_be_positive(name, value):
    iv, field, coeffs = _interval_setup()
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    ev = EventSpec.ball(ReferencePath.constant([0.0], 0.0, 1.0), 0.5)
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        estimate_event_probability(iv, field, coeffs, NoiseScale(0.5), [0.0], grid, ev,
                                   n_samples=200, seed=0, **{name: value})


def test_stay_probability_monotone_in_radius():
    iv, field, coeffs = _interval_setup()
    grid = TimeGrid.uniform(0.0, 1.0, 256)
    ref = ReferencePath.constant([0.0], 0.0, 1.0)
    ps = []
    for r in (0.3, 0.5, 0.7):
        ev = EventSpec.ball(ref, r)
        est = estimate_event_probability(iv, field, coeffs, NoiseScale(0.5),
                                         [0.0], grid, ev, n_samples=4000, seed=5)
        ps.append(est.p_hat)
    assert ps[0] < ps[1] < ps[2]


def test_terminal_moments_on_wide_interval():
    # boundary at 8 standard deviations: reflection is negligible and the
    # terminal law is N(0, eps^2 T)
    wide, wfield, coeffs = _interval_setup(-4.0, 4.0)
    grid = TimeGrid.uniform(0.0, 1.0, 256)
    # one block of 20000 trajectories; each draws the stream keyed (99, id)
    vals = _block(wide, wfield, coeffs, NoiseScale(0.5), grid, np.array([0.0]), 99,
                  np.arange(20000), ())[0]
    assert vals.shape == (20000, 1)
    n = 20000
    assert abs(vals.mean()) <= 3.0 * 0.5 / np.sqrt(n)
    assert abs(vals.var() - 0.25) <= 3.0 * 0.25 * np.sqrt(2.0 / n)


def test_log_rate_transform_and_interval_ordering():
    est = McEstimate(p_hat=0.08175, n_samples=20000, ci_half_width=0.0038, n_hits=1635)
    li = log_rate_estimate(est, NoiseScale(0.25))
    assert li.value == pytest.approx(-0.0625 * np.log(0.08175), abs=1e-12)
    assert li.lo < li.value < li.hi
    assert np.isfinite(li.hi)
    # CI reaching zero probability opens the upper end
    wide = McEstimate(p_hat=0.001, n_samples=1000, ci_half_width=0.002, n_hits=1)
    assert log_rate_estimate(wide, NoiseScale(0.25)).hi == np.inf


def test_zero_hit_estimate_has_no_finite_rate():
    iv, field, coeffs = _interval_setup(-4.0, 4.0)
    grid = TimeGrid.uniform(0.0, 1.0, 64)
    ref = ReferencePath.constant([0.0], 0.0, 1.0)
    ev = EventSpec.complements([ref], [3.9])
    est = estimate_event_probability(iv, field, coeffs, NoiseScale(0.1), [0.0],
                                     grid, ev, n_samples=500, seed=1)
    assert est.zero_hit
    with pytest.raises(InfiniteEstimateError):
        log_rate_estimate(est, NoiseScale(0.1))
