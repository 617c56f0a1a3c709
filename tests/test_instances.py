import numpy as np

from pdg import Diagram
from pdg.instances import random_diagram, random_pair


def _checked_random_diagram(rng, count):
    # the generator with its bounds as tuples and every row validated
    coords = rng.uniform((-5.0, 0.1), (5.0, 4.0), size=(count, 2))
    coords[:, 1] += coords[:, 0]
    return Diagram._checked(coords, tuple(range(count)))


def _checked_random_pair(rng, max_total=6):
    first = int(rng.integers(0, max_total + 1))
    second = int(rng.integers(0, max_total - first + 1))
    return _checked_random_diagram(rng, first), _checked_random_diagram(rng, second)


def _same(diagram, reference):
    return (diagram.geometry().tobytes() == reference.geometry().tobytes()
            and diagram.geometry().shape == reference.geometry().shape
            and [p.index for p in diagram] == [p.index for p in reference])


def test_random_diagram_is_the_checked_generator_bitwise():
    # 0-8 points as the suites draw them, and 1,000 for many more doubles
    for seed in range(50):
        for count in (*range(9), 1000):
            drawn, checked = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _same(random_diagram(drawn, count), _checked_random_diagram(checked, count)), (seed, count)
            assert drawn.uniform() == checked.uniform(), (seed, count)


def test_random_pair_is_the_checked_generator_bitwise():
    for seed in range(50):
        for max_total in range(7):
            drawn, checked = np.random.default_rng(seed), np.random.default_rng(seed)
            pair, reference = random_pair(drawn, max_total), _checked_random_pair(checked, max_total)
            assert all(map(_same, pair, reference)), (seed, max_total)
            assert drawn.uniform() == checked.uniform(), (seed, max_total)
