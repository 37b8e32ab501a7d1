"""Every value class holds its arrays as read-only copies and compares by identity."""

import numpy as np
import pytest

from protoselect import (CriticismResult, Dataset, MeanMap, SelectionResult, SupportSet,
                         WeightVector)
from protoselect.ranking import AverageRanks, RankMatrix

_TWO_PROTOTYPES = SupportSet((0, 1))


# Each case: the caller's array, the class built from it, and the attributes that must
# refuse writes and keep their values when the caller's array changes.
_CASES = {
    "dataset": (lambda: np.arange(6.0).reshape(3, 2), Dataset, ("values",)),
    "mean_map": (lambda: np.full(3, 0.5), lambda a: MeanMap(a, n1=2), ("entries",)),
    "weight_vector": (lambda: np.array([1.0, 2.0]), lambda a: WeightVector(_TWO_PROTOTYPES, a, 3),
                      ("weights",)),
    "selection_objective_trace": (
        lambda: np.array([1.0, 2.0]),
        lambda a: SelectionResult("x", WeightVector(_TWO_PROTOTYPES, [1.0, 1.0], 2), a,
                                  [0.5, 0.5], [0.0, 0.0]),
        ("objective_trace", "gradient_trace", "wall_times")),
    "selection_gradient_trace": (
        lambda: np.array([1.0, 2.0]),
        lambda a: SelectionResult("x", WeightVector(_TWO_PROTOTYPES, [1.0, 1.0], 2), [0.5, 0.5],
                                  a, [0.0, 0.0]),
        ("gradient_trace", "objective_trace", "wall_times")),
    "selection_wall_times": (
        lambda: np.array([1.0, 2.0]),
        lambda a: SelectionResult("x", WeightVector(_TWO_PROTOTYPES, [1.0, 1.0], 2), [0.5, 0.5],
                                  [0.0, 0.0], a),
        ("wall_times", "objective_trace", "gradient_trace")),
    "criticism_result": (lambda: np.array([2.0, 1.0]), lambda a: CriticismResult((3, 4), a),
                         ("scores",)),
    "rank_matrix": (lambda: np.array([[0.0, 1.0], [2.0, 0.0]]),
                    lambda a: RankMatrix(("a", "b"), a), ("objective", "rank")),
    "average_ranks": (lambda: np.array([1.0, 2.0]), lambda a: AverageRanks(("a", "b"), a),
                      ("values",)),
}


@pytest.mark.parametrize("case", list(_CASES.values()), ids=list(_CASES))
def test_held_arrays_are_read_only_copies(case):
    make, build, attrs = case
    caller = make()
    held = build(caller)
    kept = {name: np.array(getattr(held, name)) for name in attrs}

    # A write to the caller's array after construction changes nothing held.
    caller *= -1.0
    for name in attrs:
        np.testing.assert_array_equal(getattr(held, name), kept[name])

    # Each held array, the derived ranks included, refuses writes.
    for name in attrs:
        arr = getattr(held, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0

    # Equality and hashing are by identity: two equal results compare as a bool, without
    # numpy's raw ValueError.
    twin = build(make())
    assert (held == twin) is False
    assert (held == held) is True
    assert len({held, twin}) == 2


@pytest.mark.parametrize("build", [lambda names: RankMatrix(names, np.zeros((2, 2))),
                                   lambda names: AverageRanks(names, [1.0, 2.0])],
                         ids=["rank_matrix", "average_ranks"])
def test_names_are_held_as_a_tuple(build):
    caller = ["a", "b"]
    held = build(caller)
    caller.append("c")
    assert held.names == ("a", "b")
