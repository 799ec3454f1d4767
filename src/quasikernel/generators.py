"""Deterministic digraph families and seeded random corpora.

Random digraphs use SplitMix64 as a counter-based generator so corpora are
reproducible bit-for-bit across platforms and reimplementations: arc (u, v)
is included iff the next 64-bit output r satisfies r * q < p * 2^64 for the
exact inclusion probability p/q, drawing in row-major (u, v) order with the
diagonal skipped.  Tournaments draw one word per unordered pair {u < v} and
orient u -> v on an even word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .digraph import Digraph, _clip, _decimal, check_order, disjoint_union
from .exceptions import ParseError
from .reductions import c3_blowup


class SplitMix64:
    """SplitMix64: a tiny, well-known 64-bit mixing generator."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def next_word(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)


def cycle(n: int) -> Digraph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0 (n >= 2)."""
    if n < 2:
        raise ValueError(f"cycle needs n >= 2, got {n}")
    return Digraph.from_arcs(n, ((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Digraph:
    """Directed path 0 -> 1 -> ... -> n-1."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Digraph.from_arcs(n, ((i, i + 1) for i in range(n - 1)))


def edgeless(n: int) -> Digraph:
    check_order(n)
    return Digraph((0,) * n)


def circulant_tournament(n: int) -> Digraph:
    """Rotational tournament on odd n: arcs i -> i+j (mod n), j = 1..(n-1)/2.

    Every vertex has in- and out-degree (n-1)/2.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"circulant tournament needs odd n >= 3, got {_clip(str(n))}")
    half = (n - 1) // 2
    return Digraph.from_arcs(n, ((i, (i + j) % n) for i in range(n) for j in range(1, half + 1)))


def c3_power(k: int) -> Digraph:
    """k-fold triangle blowup of the single vertex.

    c3_power(0) is the one-vertex digraph; each further step replaces every
    vertex by a directed triangle and every arc by the complete set of arcs
    between the two triangles, so c3_power(k) has 3^k vertices.
    """
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    d = Digraph((0,))
    for _ in range(k):
        d, _ = c3_blowup(d)
    return d


def random_digraph(n: int, p: Fraction, seed: int) -> Digraph:
    """Each of the n(n-1) possible arcs independently with exact probability p."""
    check_order(n)
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"arc probability must be in [0, 1], got {_clip(str(p))}")
    rng = SplitMix64(seed)
    threshold_num = p.numerator << 64
    q = p.denominator
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if v == u:
                continue
            if rng.next_word() * q < threshold_num:
                rows[u] |= 1 << v
    return Digraph(rows)


def random_tournament(n: int, seed: int) -> Digraph:
    """One arc per unordered pair, orientation decided by the word's parity."""
    check_order(n)
    rng = SplitMix64(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next_word() & 1 == 0:
                rows[u] |= 1 << v
            else:
                rows[v] |= 1 << u
    return Digraph(rows)


# grammar head -> (parameter kinds, builder).  The builders look the module
# functions up at call time, so rebinding a module attribute takes effect.
FAMILIES = {
    "cycle": (("N",), lambda n: cycle(n)),
    "path": (("N",), lambda n: path(n)),
    "edgeless": (("N",), lambda n: edgeless(n)),
    "circulant": (("N",), lambda n: circulant_tournament(n)),
    "c3pow": (("K",), lambda k: c3_power(k)),
    "random": (("N", "P/Q", "SEED"), lambda n, p, seed: random_digraph(n, p, seed)),
    "random_tournament": (("N", "SEED"), lambda n, seed: random_tournament(n, seed)),
    "union": (("A,B,...",), lambda members: union_family(members)),
}


def _fraction(token: str) -> Fraction:
    num, den = map(_decimal, token.split("/"))
    return Fraction(num, den)


_PARSE_PARAMETER = {"N": _decimal, "K": _decimal, "SEED": _decimal, "P/Q": _fraction}


def family_usage(head: str) -> str:
    """The grammar of one family, e.g. ``random:N:P/Q:SEED``."""
    return ":".join((head, *FAMILIES[head][0]))


@dataclass(frozen=True)
class FamilySpec:
    """Parsed family expression: the grammar head and its parsed parameters;
    a union's one parameter is the tuple of its member specs.  See
    parse_family."""

    kind: str
    args: tuple = ()


def make(spec: FamilySpec) -> Digraph:
    if spec.kind not in FAMILIES:
        raise ValueError(f"unknown family kind {spec.kind!r}")
    params, build = FAMILIES[spec.kind]
    if len(spec.args) != len(params):
        raise ValueError(f"family {spec.kind!r} takes {family_usage(spec.kind)}, got {spec.args!r}")
    return build(*spec.args)


def union_family(specs) -> Digraph:
    """Disjoint union of the family members, in order; empty gives n=0."""
    d = Digraph(())
    for spec in specs:
        d = disjoint_union(d, make(spec))
    return d


def parse_family(text: str) -> FamilySpec:
    """Parse one expression of the grammar in FAMILIES, such as ``cycle:4``,
    ``random:8:1/3:42`` or ``union:cycle:2,cycle:4``.  Every parameter is
    written in ASCII digits; union members are any non-union expression.
    """
    text = text.strip()
    head, sep, rest = text.partition(":")
    if head == "union":
        if not sep or not rest:
            raise ParseError("union needs at least one member, e.g. union:cycle:2,cycle:4")
        members = tuple(parse_family(part) for part in rest.split(","))
        if any(m.kind == "union" for m in members):
            raise ParseError("nested unions are not supported")
        return FamilySpec("union", (members,))
    if head not in FAMILIES:
        raise ParseError(f"unknown family {_clip(head)!r}")
    tokens = rest.split(":") if sep else []
    try:
        args = tuple(_PARSE_PARAMETER[param](token)
                     for param, token in zip(FAMILIES[head][0], tokens, strict=True))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad family expression {_clip(text)!r}: expected {family_usage(head)}") from None
    return FamilySpec(head, args)
