import random

import pytest

from tauadic.checks import _random_element


@pytest.mark.parametrize("span", [1, 2])
def test_random_element_covers_exactly_the_span(span):
    # 2*span + 1 values, drawn from 2 and 3 random bits: both ends are
    # reached and the rejected draws never leak out as values
    rng = random.Random(span)
    seen = set()
    for _ in range(2000):
        seen.update(_random_element(rng, span))
    assert seen == set(range(-span, span + 1))
