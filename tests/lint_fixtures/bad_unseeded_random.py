"""Fixture: violates unseeded-random (stdlib random + numpy legacy RNG +
a seed derived from builtin hash())."""

import random

import numpy as np


def draw():
    jitter = random.random()
    pick = np.random.randint(0, 10)
    return jitter + pick


def tier_rng(seed, tier):
    return np.random.default_rng(seed + hash(tier) % 1000)
