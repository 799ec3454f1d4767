from __future__ import annotations

import functools
import importlib
import warnings
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from quasikernel import Digraph, enumerate_digraphs
from quasikernel.generators import make, parse_family, random_digraph

import oracles

# hypothesis's pytest plugin imports ``hypothesis.extra._patching`` only when
# it reports a failing example.  That import pulls in libcst, which uses the
# deprecated ``mypy_extensions.TypedDict``; under ``-W error`` the warning
# turns the report into an INTERNALERROR and hides the falsifying example.
# Importing the module here, with that one message ignored, keeps every
# other warning an error (``tests/test_api.py`` checks both).
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", r"mypy_extensions\.TypedDict is deprecated", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:  # an older or slimmer hypothesis: nothing to pre-import
        pass


# JSON that the parser must refuse with ParseError, not with the error Python
# raises: nesting past the recursion limit, and an int past Python's
# 4,300-digit limit for str -> int
HOSTILE_JSON = (
    '{"n": 1, "arcs": ' + "[" * 200_000,
    '{"n": 1, "arcs": [[0, ' + "7" * 5_000 + "]]}",
)


def dg(n, arcs):
    return Digraph.from_arcs(n, arcs)


def mask_to_set(mask):
    out = set()
    v = 0
    while mask:
        if mask & 1:
            out.add(v)
        mask >>= 1
        v += 1
    return out


def set_to_mask(s):
    out = 0
    for v in s:
        out |= 1 << v
    return out


@functools.lru_cache(maxsize=None)
def all_digraphs(n, sink_free=False):
    return tuple(enumerate_digraphs(n, sink_free=sink_free))


@functools.lru_cache(maxsize=None)
def least_codes(n):
    """``oracles.oracle_least_code`` of every labeled digraph on n vertices,
    indexed by adjacency code: the code of its class representative."""
    return tuple(oracles.oracle_least_code(d) for d in all_digraphs(n))


@st.composite
def seeded_digraphs(draw, lo, hi):
    """Seeded random digraphs on lo..hi vertices with arc probability 1/8,
    1/4 or 1/2, so that sparse digraphs (large kernels, no odd dicycle) and
    dense ones (no kernel) are both drawn; raw codes drawn by hypothesis
    lean to sparse digraphs."""
    n = draw(st.integers(min_value=lo, max_value=hi))
    p = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]))
    return random_digraph(n, p, draw(st.integers(min_value=0, max_value=(1 << 64) - 1)))


@pytest.fixture
def c3():
    return make(parse_family("cycle:3"))


@pytest.fixture
def c4():
    return make(parse_family("cycle:4"))


@pytest.fixture
def c5():
    return make(parse_family("cycle:5"))


@pytest.fixture
def two_cycle():
    return make(parse_family("cycle:2"))
