"""Every public call handed a matching or a slot assignment refuses one that
is not a bijection of the augmented slots, with StructuralError, rather than
answer from it."""

import pytest

from pdg import (
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


def _refusals(bad: Matching):
    """Each call under test, handed the non-bijection bad where it takes a
    matching or an assignment and valid arguments elsewhere."""
    _, witness = distance(X, Y, PARAMS)
    mid = convex_combination(X, Y, witness, 0.5)  # one point, so psi has two slots
    psi = identity_psi(mid, mid, PARAMS)
    return {
        "convex_combination": lambda: convex_combination(X, Y, bad, 0.5),
        "sample_convex_combination": lambda: sample_convex_combination(X, Y, bad, 3),
        "characterization_audit m": lambda: characterization_audit(X, Y, bad, mid, psi, 0.5, PARAMS),
        "characterization_audit psi": lambda: characterization_audit(X, Y, witness, mid, bad, 0.5, PARAMS),
        "coupling_from_matching": lambda: coupling_from_matching(bad),
        "matching_cost": lambda: matching_cost(X, Y, bad, PARAMS),
        "matching_from_assignment": lambda: matching_from_assignment(X, Y, bad.assignment, PARAMS),
        "Matching.inverse": lambda: bad.inverse(),
    }


@pytest.mark.parametrize("assignment", [(0, 0), (1, 1), (-1, 0), (5, 0)])
def test_every_call_refuses_a_non_bijection(assignment):
    # two slots a side: a repeated slot, a negative one, one past the end
    wrong = {}
    for call, refuse in _refusals(Matching(assignment, (), 0.0)).items():
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
