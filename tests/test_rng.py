"""The numpy SplitMix64 stream against the scalar recurrence it implements."""

import math

import pytest

from qgwb._rng import CounterRNG

MASK = (1 << 64) - 1


def scalar_stream(seed):
    """SplitMix64 in Python integers, one output at a time."""
    state = seed & MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        yield z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 17, 2 ** 64 - 1, -1, 2 ** 64 + 5])
def test_numpy_stream_matches_scalar_stream(seed):
    # the state wraps past 2^64 within a few draws of a large seed; the
    # stream is read in runs of several lengths, so counters carry over
    rng, oracle = CounterRNG(seed), scalar_stream(seed)
    for count in (1, 0, 5, 1000, 3, 2 ** 16 + 7):
        assert rng.u64s(count).tolist() == [next(oracle) for _ in range(count)]
    assert int(rng.u64s(1)[0]) == next(oracle)


def test_floats_follow_the_scalar_stream():
    rng, oracle = CounterRNG(9), scalar_stream(9)

    def uniform():
        return (next(oracle) >> 11) * 2.0 ** -53

    def normal():
        u1 = max(uniform(), 2.0 ** -53)
        u2 = uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    assert rng.uniforms(6) == [uniform() for _ in range(6)]
    assert rng.uniforms(1)[0] == uniform()
    expected = [complex(normal(), normal()) / math.sqrt(2.0) for _ in range(50)]
    assert rng.complex_vector(50).tolist() == expected
    assert rng.complex_normals(3) == [complex(normal(), normal()) / math.sqrt(2.0)
                                      for _ in range(3)]
