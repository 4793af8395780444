import math

import numpy as np
import pytest

from ccdec import Channel, CompoundSet, Distribution


def binary_entropy_bits(q: float) -> float:
    """Closed-form binary entropy in bits; the oracle for BSC quantities."""
    if q in (0.0, 1.0):
        return 0.0
    return -(q * math.log2(q) + (1 - q) * math.log2(1 - q))


def bsc_capacity_nats(q: float) -> float:
    return (1.0 - binary_entropy_bits(q)) * math.log(2.0)


def random_distribution(rng, n, floor=0.05):
    p = rng.uniform(floor, 1.0, size=n)
    return Distribution(p / p.sum())


def random_channel(rng, nx, ny, floor=0.05):
    m = rng.uniform(floor, 1.0, size=(nx, ny))
    return Channel(m / m.sum(axis=1, keepdims=True))


def segment_toward_noise(rng, nx, ny, samples, t_hi=0.9):
    """A finite sample of channels on the segment from a random channel to pure noise.

    Mutual information is convex along the segment and zero at the noise end,
    hence nonincreasing in t; the largest sampled t is the exact worst channel
    of the sampled hull, which makes the sample one-sided at any input.
    """
    a = random_channel(rng, nx, ny)
    noise = Channel.pure_noise(Distribution(rng.dirichlet(np.ones(ny) * 5.0)), nx)
    ts = np.sort(rng.uniform(0.05, t_hi, size=samples))
    return CompoundSet(tuple(a.mix(noise, float(t)) for t in ts))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
