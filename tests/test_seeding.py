"""Stream pins: every (seed, stream...) key keeps its numbers."""
import numpy as np
import pytest

from stokesopt.seeding import rng_for

# first three normal() draws of each key, recorded from
# Generator(Philox(SeedSequence([seed, *stream])))
PINNED = {
    (0,): [-0.2059740286292238, -0.12884495093462758, -0.28978987549091256],
    (7, 3): [-0.4985166444110562, 1.680225651791286, -0.22195309481078826],
    (2**40, 1): [-0.17425980867704255, -0.29807406524903335,
                 0.17033663521256043],
    (5, 2**33 + 1, 0): [1.2318823509090786, -0.27430715520577026,
                        -1.6115567138594344],
}


@pytest.mark.parametrize("key", list(PINNED))
def test_streams_keep_their_pinned_draws(key):
    rng = rng_for(*key)
    assert [rng.normal() for _ in range(3)] == PINNED[key]


@pytest.mark.parametrize("key", [
    (0,), (7, 3), (2**40, 1), (2**64 + 5, 0, 0, 9), (0, 0, 0, 0, 0, 1),
    (np.int64(9), np.uint8(2))])
def test_streams_match_a_list_keyed_seed_sequence(key):
    seq = np.random.SeedSequence([int(k) for k in key])
    expected = np.random.Generator(np.random.Philox(seq)).normal(size=8)
    assert np.array_equal(rng_for(*key).normal(size=8), expected)


@pytest.mark.parametrize("key", [(-1,), (3, -2)])
def test_negative_seeds_raise(key):
    with pytest.raises(ValueError):
        rng_for(*key)
