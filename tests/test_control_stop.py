import numpy as np
import pytest

from obliqueldp.control_stop import (
    DiscreteProblem,
    EnumerationLimitError,
    multi_stop_value,
    reduced_value,
    value_inf_sup,
)
from obliqueldp.geometry import Interval, constant_coefficients, normal_field
from obliqueldp.reflect import ReferencePath, TimeGrid
from obliqueldp.sde import tube_obstacle


def _problem(obstacles, controls=(0.0, 1.0), n_steps=2):
    iv = Interval(-1.0, 1.0)
    field = normal_field(iv)
    coeffs = constant_coefficients([0.0], [[1.0]])
    grid = TimeGrid.uniform(0.0, 1.0, n_steps)
    return DiscreteProblem.build(iv, field, coeffs, grid,
                                 [np.array([a]) for a in controls], obstacles)


def test_two_step_values_match_hand_computation():
    # dynamics x -> x - 0.5 a, cell cost 0.25 a^2, obstacle y + 1; all
    # quantities dyadic, so the hand values are exact floats
    p = _problem([lambda t, y: float(y[0]) + 1.0])
    # the inf-inf value is the one-obstacle reduction
    assert reduced_value(p, 0.0, [0.5]) == 1.0
    assert value_inf_sup(p, 0.0, [0.5]) == 1.5


def test_single_obstacle_multi_stop_equals_inf_inf():
    p = _problem([lambda t, y: float(y[0]) + 1.0])
    assert multi_stop_value(p, 0.0, [0.5]) == reduced_value(p, 0.0, [0.5]) == 1.0


def test_single_stop_values_require_one_obstacle():
    p = _problem([lambda t, y: 1.0, lambda t, y: 2.0])
    with pytest.raises(ValueError, match="exactly one obstacle"):
        value_inf_sup(p, 0.0, [0.0])


def test_node_index_requires_exact_node():
    p = _problem([lambda t, y: 1.0])
    with pytest.raises(ValueError, match="not a grid node"):
        reduced_value(p, 0.3, [0.0])


def test_enumeration_budget_guard():
    p = _problem([lambda t, y: 1.0, lambda t, y: 2.0])
    with pytest.raises(EnumerationLimitError):
        multi_stop_value(p, 0.0, [0.0], budget=10.0)
    four = _problem([lambda t, y: 1.0] * 4)
    with pytest.raises(ValueError):
        multi_stop_value(four, 0.0, [0.0])


def _random_obstacle(rng):
    c0, c1, c2, w = rng.uniform(-1.0, 1.0, size=4)
    return lambda t, y, c0=c0, c1=c1, c2=c2, w=w: (
        c0 + c1 * float(y[0]) + c2 * float(np.cos(w * t + y[0])) + 1.5)


def test_reduction_identity_is_bit_exact_on_random_instances():
    rng = np.random.default_rng(20240817)
    for trial in range(20):
        n_stops = 2 if trial % 2 == 0 else 3
        controls = rng.choice([-1.0, -0.5, -0.25, 0.25, 0.5, 1.0], size=3,
                              replace=False)
        obstacles = [_random_obstacle(rng) for _ in range(n_stops)]
        p = _problem(obstacles, controls=controls)
        x0 = [float(rng.uniform(-0.5, 0.5))]
        lhs = reduced_value(p, 0.0, x0)
        rhs = multi_stop_value(p, 0.0, x0)
        assert lhs == rhs, f"trial {trial}: {lhs!r} != {rhs!r}"


# (inf-sup, inf-inf) values recorded before the two single-stop values
# shared one backward recursion with the reduction; the inf-inf value is the
# one-obstacle reduction
RECORDED_SINGLE_STOP_VALUES = [
    (2.1010095104445576, 1.8186479249488194),
    (1.6562621889670457, 1.4254513815991117),
    (0.1272082435220132, -0.3646520520491814),
    (2.816704730344063, 2.6149858909724535),
    (1.9784495853739394, 1.9570045281351733),
    (1.4304074143290153, 0.8935630910162053),
    (1.9774031626389594, 1.7631574863968744),
    (2.8046362790600727, 2.4365908538297814),
    (2.8276033483938083, 1.922186191819212),
    (0.7673838941093911, 0.5925138933620512),
]


def test_single_stop_values_are_pinned_on_random_instances():
    rng = np.random.default_rng(20261018)
    for trial, (sup_val, inf_val) in enumerate(RECORDED_SINGLE_STOP_VALUES):
        controls = rng.choice([-1.0, -0.5, -0.25, 0.25, 0.5, 1.0], size=3,
                              replace=False)
        p = _problem([_random_obstacle(rng)], controls=controls, n_steps=2 + trial % 2)
        x0 = [float(rng.uniform(-0.5, 0.5))]
        assert value_inf_sup(p, 0.0, x0) == sup_val, trial
        assert reduced_value(p, 0.0, x0) == inf_val, trial


def test_tube_indicator_strict_membership():
    # at smoothing 0 the tube obstacle is the strict-inclusion indicator, and
    # the dynamic program reads its one value at a point
    ref = ReferencePath.constant([0.0], 0.0, 1.0)
    psi = tube_obstacle(ref, 0.5, 2.0)
    assert psi(0.3, np.array([0.49])).tolist() == [2.0]
    assert psi(0.3, np.array([0.5])).tolist() == [0.0]
    comp = tube_obstacle(ref, 0.5, 2.0, complement=True)
    assert comp(0.3, np.array([0.5])).tolist() == [2.0]
    assert comp(0.3, np.array([0.49])).tolist() == [0.0]
    p = _problem([psi, comp], n_steps=1)
    assert [p.psi(i, 0, np.array([0.49])) for i in (0, 1)] == [2.0, 0.0]


def test_state_rule_respects_reflection():
    # strong push to the left: the cell endpoint clamps at the wall
    p = _problem([lambda t, y: 1.0], controls=(4.0,))
    x1 = p.step(0, np.array([0.0]), 0)
    assert x1[0] == -1.0
