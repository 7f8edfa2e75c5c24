"""The config built-in coefficients: whole-batch rows and pinned solver outputs."""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from obliqueldp.cli import build_coefficients
from obliqueldp.geometry import Interval, constant_coefficients, normal_field
from obliqueldp.hjbvi import solve_eps_vi
from obliqueldp.rate import rate_of_event
from obliqueldp.reflect import ReferencePath, TimeGrid
from obliqueldp.sde import EventSpec, NoiseScale, simulate_reflected_sde, tube_obstacle

# the coefficients of the benchmark's ou_1d scenario
OU_1D = {"drift": {"name": "linear", "matrix": [[-1.0]], "offset": [0.2]},
         "dispersion": {"name": "linear", "base": [[1.0]], "slopes": [[[0.3]]]}}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# Signed zeros, hypothesis' simple floats, and full-mantissa floats in [-3, 3),
# on which a reordered product or sum rounds differently.
_entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0),
                   st.integers(0, 2 ** 53 - 1).map(lambda k: 6.0 * k / 2 ** 53 - 3.0))


@st.composite
def _coefficient_blocks(draw):
    d = draw(st.sampled_from([1, 2]))
    m = draw(st.sampled_from([1, 2, 3]))

    def vector():
        return draw(st.lists(_entry, min_size=d, max_size=d))

    def matrix(cols):
        return [draw(st.lists(_entry, min_size=cols, max_size=cols)) for _ in range(d)]

    drift = draw(st.sampled_from(["constant", "linear"] + (["rotational"] if d == 2 else [])))
    drift = {"constant": {"name": "constant", "value": vector()},
             "linear": {"name": "linear", "matrix": matrix(d), "offset": vector()},
             "rotational": {"name": "rotational", "omega": draw(_entry)}}[drift]
    if draw(st.booleans()):
        dispersion = {"name": "constant", "value": matrix(m)}
    else:
        dispersion = {"name": "linear", "base": matrix(m),
                      "slopes": [matrix(m) for _ in range(d)]}
    block = {"drift": drift, "dispersion": dispersion}
    if draw(st.booleans()):
        block["perturbation"] = {"drift_shift": vector(),
                                 "dispersion_scale": draw(st.floats(-1.0, 1.0)),
                                 "order": draw(st.floats(0.5, 2.0))}
    rows = draw(st.lists(st.lists(_entry, min_size=d, max_size=d), min_size=1, max_size=6))
    return block, d, m, np.array(rows, dtype=float)


def _point_formulas(block, eps):
    """The built-ins at one point, written as they were before they took rows."""
    drift, disp = block["drift"], block["dispersion"]
    arr = np.array
    b = {"constant": lambda x: arr(drift.get("value")),
         "linear": lambda x: arr(drift.get("offset")) + arr(drift.get("matrix")) @ x,
         "rotational": lambda x: drift.get("omega") * arr([-x[1], x[0]])}[drift["name"]]
    if disp["name"] == "constant":
        def s(x):
            return arr(disp["value"])
    else:
        def s(x):
            return arr(disp["base"]) + sum(x[j] * arr(disp["slopes"][j]) for j in range(len(x)))
    pert = block.get("perturbation")
    if pert is None or eps is None:
        return b, s
    w = eps ** pert["order"]
    return (lambda x: b(x) + w * arr(pert["drift_shift"]),
            lambda x: (1.0 + pert["dispersion_scale"] * w) * s(x))


@settings(max_examples=200, deadline=None)
@given(case=_coefficient_blocks(), eps=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_builtin_rows_equal_the_row_loop_bit_for_bit(case, eps):
    block, d, m, X = case
    co = build_coefficients(block, d).at_eps(eps)
    assert co.takes_rows
    rows = co.rows(0.3, X)
    for got, fun, ref, shape in zip(rows, (co.b, co.sigma),
                                    _point_formulas(block, eps),
                                    ((len(X), d), (len(X), d, m))):
        loop = np.array([fun(0.3, x) for x in X])
        assert loop.shape == shape
        assert loop.tobytes() == np.array([ref(x) for x in X]).tobytes()
        # constant coefficients come back as one row that broadcasts
        assert np.broadcast_to(got, shape).tobytes() == loop.tobytes()
        assert fun(0.3, X).tobytes() == loop.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=_coefficient_blocks(), data=st.data())
def test_constant_coefficients_take_rows_bit_for_bit(case, data):
    _, d, m, X = case
    b = data.draw(st.lists(_entry, min_size=d, max_size=d))
    sigma = [data.draw(st.lists(_entry, min_size=m, max_size=m)) for _ in range(d)]
    co = constant_coefficients(b, sigma)
    assert co.takes_rows and co.is_constant
    for fun, shape in ((co.b, (d,)), (co.sigma, (d, m))):
        point = fun(0.3, X[0])
        assert point.shape == shape
        rows = fun(0.3, X)
        assert rows.shape == (len(X),) + shape
        assert all(row.tobytes() == fun(0.3, x).tobytes() for row, x in zip(rows, X))


def test_a_field_without_a_member_is_its_own_member():
    co = constant_coefficients([0.5], [[1.0]])
    assert co.at_eps(0.25) is co and co.at_eps(None) is co
    perturbed = build_coefficients({**OU_1D, "perturbation": {"drift_shift": [0.1]}}, 1)
    assert perturbed.at_eps(None) is perturbed
    member = perturbed.at_eps(0.25)
    assert member.family is None and not member.is_constant
    assert member.at_eps(0.5) is member


def _ou_setup():
    iv = Interval(-1.0, 1.0)
    return iv, normal_field(iv), build_coefficients(OU_1D, 1)


# Pins below were recorded before the built-ins took rows; they must not move.


def test_ou_eps_vi_layers_are_pinned():
    iv, field, co = _ou_setup()
    obs = tube_obstacle(ReferencePath.constant([0.0], 0.0, 1.0), 0.5, 1.0,
                        complement=True, smoothing=2.0 / 50)
    vg = solve_eps_vi(iv, field, co, obs, NoiseScale(0.25), n_x=51)
    assert vg.layers.shape == (1082, 51)
    assert _digest(vg.layers) == "2c2f715b86328772"
    assert vg.value_at(0.0, [0.0]) == 0.015371406711279787


def test_ou_rate_of_event_is_pinned():
    iv, field, co = _ou_setup()
    event = EventSpec.complements([ReferencePath.constant([0.0], 0.0, 1.0)], [0.5])
    res = rate_of_event(iv, field, co, 0.0, [0.0], event, n_segments=8,
                        max_segments=8)
    assert res.value == 0.13205116421306085
    assert res.iterations == 67
    assert _digest(res.optimizer.values) == "d6d048ccb6ae8400"


def test_ou_reflected_sde_path_is_pinned():
    iv, field, co = _ou_setup()
    path = simulate_reflected_sde(iv, field, co, NoiseScale(0.5), [0.0],
                                  TimeGrid.uniform(0.0, 1.0, 64), seed=20240801,
                                  trajectory_id=3)
    assert _digest(path.points, path.reflection_increments) == "3122cec01f25d602"
    assert path.points[-1, 0] == 0.6786114371915551
