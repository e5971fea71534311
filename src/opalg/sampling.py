"""Seeded random generation of small exact-rational data.

Every sampler draws its entries p/q with |p| <= bound and 1 <= q <= bound,
one bound for both (3 by default): small denominators keep exact arithmetic
fast, and every sampler takes an explicit Random so findings are
reproducible from a seed.
"""

from __future__ import annotations

import random

from .core import Operator
from .scalars import scalar


def random_scalar(rng: random.Random, bound: int = 3):
    return scalar(rng.randint(-bound, bound), rng.randint(1, bound))


def random_matrix(rng: random.Random, n: int, bound: int = 3):
    return tuple(tuple(random_scalar(rng, bound) for _ in range(n)) for _ in range(n))


def random_symmetric_matrix(rng: random.Random, n: int, bound: int = 3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = random_scalar(rng, bound)
            rows[i][j] = v
            rows[j][i] = v
    return tuple(tuple(row) for row in rows)


def random_operator(rng: random.Random, dim: int, bound: int = 3) -> Operator:
    return Operator(random_matrix(rng, dim, bound))


def random_polynomial(rng: random.Random, max_degree: int = 3, bound: int = 3):
    degree = rng.randint(0, max_degree)
    return tuple(random_scalar(rng, bound) for _ in range(degree + 1))
