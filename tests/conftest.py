import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from pbent.pfunc import Domain, PFunction

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=20260818,
        help="seed for the randomized parts of the suite",
    )


@pytest.fixture
def seed(request) -> int:
    return request.config.getoption("--seed")


@pytest.fixture
def rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def traced_peak(fn):
    """fn()'s result and the peak, in bytes, of the memory that tracemalloc
    traced during the call."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---- point arithmetic on a domain's indices, for the tests' oracles ---------------


def _digit_weights(dom: Domain) -> list[int]:
    return [dom.p**i for i in range(dom.n_total)]


def point_add(dom: Domain, i: int, j: int) -> int:
    """Pointwise sum; in digit space this is digit-wise addition mod p."""
    p = dom.p
    return sum(((i // w + j // w) % p) * w for w in _digit_weights(dom))


def point_neg(dom: Domain, i: int) -> int:
    p = dom.p
    return sum((-(i // w) % p) * w for w in _digit_weights(dom))


def translate(f: PFunction, a: int) -> PFunction:
    """The function x -> f(x + a)."""
    dom = f.domain
    weights = np.array(_digit_weights(dom), dtype=np.int64)
    a_digits = (a // weights) % dom.p
    perm = ((dom.digits_matrix() + a_digits) % dom.p) @ weights
    return PFunction(dom, f.table[perm])
