"""Every public call handed a matching or a slot assignment refuses one that
is not a bijection of the augmented slots, with StructuralError, rather than
answer from it."""

import numpy as np
import pytest

from pdg import (
    Coupling,
    Diagram,
    Matching,
    MetricParams,
    StructuralError,
    characterization_audit,
    convex_combination,
    coupling_from_matching,
    distance,
    identity_psi,
    matching_cost,
    matching_from_assignment,
    sample_convex_combination,
)

PARAMS = MetricParams(2.0, 2.0)
X = Diagram.from_pairs([(0.0, 1.0)])
Y = Diagram.from_pairs([(0.0, 2.0)])


def _valid():
    """The witness of X against Y, its midpoint and the midpoint's identity psi."""
    _, witness = distance(X, Y, PARAMS)
    mid = convex_combination(X, Y, witness, 0.5)  # one point, so psi has two slots
    return witness, mid, identity_psi(mid, mid, PARAMS)


def _calls(m: Matching, psi: Matching):
    """Each call under test, handed m where it takes a matching or an
    assignment of X against Y, psi as characterization_audit's psi, and valid
    arguments elsewhere."""
    witness, mid, valid_psi = _valid()
    return {
        "convex_combination": lambda: convex_combination(X, Y, m, 0.5),
        "sample_convex_combination": lambda: sample_convex_combination(X, Y, m, 3),
        "characterization_audit m": lambda: characterization_audit(X, Y, m, mid, valid_psi, 0.5, PARAMS),
        "characterization_audit psi": lambda: characterization_audit(X, Y, witness, mid, psi, 0.5, PARAMS),
        "coupling_from_matching": lambda: coupling_from_matching(m),
        "matching_cost": lambda: matching_cost(X, Y, m, PARAMS),
        "matching_from_assignment": lambda: matching_from_assignment(X, Y, m.assignment, PARAMS),
        "Matching.inverse": lambda: m.inverse(),
    }


@pytest.mark.parametrize("assignment", [(0, 0), (1, 1), (-1, 0), (5, 0), (1.0, 0.0), (True, False), ("0", 1)])
def test_every_call_refuses_a_non_bijection(assignment):
    # two slots a side: a repeated slot, a negative one, one past the end, and
    # entries that are not integers, though float, bool and int("0") would
    # read as slots
    wrong = {}
    bad = Matching(assignment, (), 0.0)
    for call, refuse in _calls(bad, bad).items():
        try:
            refuse()
        except StructuralError as exc:
            if str(exc) != "assignment is not a permutation of the right slots":
                wrong[call] = str(exc)
        except Exception as exc:  # a wrong class is reported with the other calls' outcomes
            wrong[call] = repr(exc)
        else:
            wrong[call] = "accepted"
    assert wrong == {}


def _outcome(result):
    return result.matrix.tolist() if isinstance(result, Coupling) else result


def test_every_call_reads_numpy_integer_slots_as_python_ints():
    witness, _, psi = _valid()
    expected = {call: _outcome(run()) for call, run in _calls(witness, psi).items()}
    for dtype in (np.int32, np.int64, np.uint8):
        arrays = [Matching(np.array(m.assignment, dtype=dtype), m.grounds, m.total) for m in (witness, psi)]
        assert {call: _outcome(run()) for call, run in _calls(*arrays).items()} == expected
        stored = matching_from_assignment(X, Y, np.array(witness.assignment, dtype=dtype), PARAMS)
        assert [type(slot) for slot in stored.assignment] == [int, int]
