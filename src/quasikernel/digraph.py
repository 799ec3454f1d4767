"""Immutable digraphs as machine-word bit rows, plus the neighbourhood calculus.

Everything downstream (solvers, constructive pipelines, the sweep harness) is
a pure function over two value types defined here:

* ``Digraph``  -- a loop-free simple digraph on at most 63 vertices, built
  from its out-rows, one bit row per vertex: bit ``j`` of ``rows[i]`` is set
  iff the arc ``i -> j`` exists, and the order ``n`` is ``len(rows)``.
  Antiparallel pairs (directed 2-cycles) are allowed; parallel arcs and
  self-loops are not.
* vertex sets -- plain ``int`` bit masks over ``0 .. n-1``.  One rank table,
  ``_ranks(S)``, moves a subset of S into the labels 0..|S|-1 of D[S]; every
  relabelling in either direction is a ``_row_union`` over one-bit rows.

Distance is shortest directed path length.  Set neighbourhoods are the
distance-based ones:

* ``n_minus_set(D, S)``    = vertices at distance exactly 1 *to* S
  (never contains a member of S);
* ``n_minus_closed(D, S)`` = S plus the above (distance <= 1).

A vertex is a sink iff its out-degree is 0 and a source iff its in-degree
is 0; ``sources_not_sinks`` is the set the with-sources conjecture variant
discounts.

The enumeration streams assemble each digraph with one ``__dict__`` store
(``Digraph._from_checked_rows``), about 0.4 µs a digraph at n = 5, and the
lazy ``n``, ``in_rows`` and ``vertex_mask`` go into the same dict on first
read, with no lock.  That costs memory only while a digraph is unread: 144
bytes against the 80 of ``object.__setattr__``'s inline state, and 408 for
either once ``in_rows`` (and with it ``n``) is read (``tracemalloc`` over
20,000 digraphs at n = 5, Python 3.11).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .exceptions import BudgetExceededError, ParseError

MAX_VERTICES = 63

ENUMERATE_ALL_BUDGET = 5


def mask_of(vertices: Iterable[int]) -> int:
    """Bit mask of an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Ascending tuple of the vertex indices in a mask."""
    return tuple(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in ascending order."""
    if mask < 0:
        raise ValueError("a negative mask has no finite set of bits")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_union(rows, mask: int) -> int:
    """OR of ``rows[v]`` over the vertices v of a mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def _ranks(s: int) -> list[int]:
    """The rank table of S: ``place[u] = 1 << (the rank of u in S)`` for each
    u in S, and 0 for the other labels below S's top vertex.  A subset T of
    S is ``_row_union(place, T)`` in the labels of D[S]."""
    place = [0] * s.bit_length()
    for i, u in enumerate(iter_bits(s)):
        place[u] = 1 << i
    return place


def check_order(n: int) -> None:
    """Reject vertex counts outside 0..MAX_VERTICES."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {_clip(str(n))}")


class _lazy:
    """An attribute computed on first read: the value goes into the
    instance's ``__dict__``, which later reads find before this non-data
    descriptor.  ``functools.cached_property`` does the same, but on Python
    3.10 and 3.11 it takes a per-property lock on every first read."""

    def __init__(self, func) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class Digraph:
    """Loop-free digraph with bit-row adjacency, built from its out-rows;
    its order ``n`` is ``len(rows)``, at most 63.

    ``Digraph(rows)`` validates every row: the order, bits outside
    ``0..n-1`` and self-loops.  Every reader of outside input (``parse``, the
    JSON reader, ``digraph_from_code``, ``from_arcs``) and every construction
    goes through it.  Only ``enumerate_digraphs`` assembles digraphs without
    the per-row checks, from table rows it has checked once each."""

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        check_order(n)
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")

    @classmethod
    def _from_checked_rows(cls, rows: tuple[int, ...]) -> "Digraph":
        """The digraph of a rows tuple already known to pass ``__post_init__``;
        the instance state is the same as ``Digraph(rows)``'s.

        One ``__dict__`` store, not ``object.__setattr__``: about 0.28 against
        0.34 µs an assembly.  The store builds the instance dict at once, so
        an unread digraph is larger (see the module docstring), but a sweep
        reads every digraph it keeps, and a read one is the same size."""
        d = object.__new__(cls)
        d.__dict__["rows"] = rows
        return d

    @_lazy
    def n(self) -> int:
        """The vertex count, ``len(rows)``."""
        return len(self.rows)

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        check_order(n)
        rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc {_clip(str((u, v)))} out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate arc ({u}, {v})")
            rows[u] |= 1 << v
        return cls(rows)

    @_lazy
    def in_rows(self) -> tuple[int, ...]:
        """Bit rows of the reversed digraph: bit j of in_rows[i] iff j -> i."""
        acc = [0] * self.n
        bit = 1  # 1 << u for row u
        for row in self.rows:
            while row:
                low = row & -row
                acc[low.bit_length() - 1] |= bit
                row ^= low
            bit <<= 1
        return tuple(acc)

    @_lazy
    def vertex_mask(self) -> int:
        """Mask of all n vertices, ``(1 << n) - 1``."""
        return (1 << self.n) - 1

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Arcs in lexicographic (tail, head) order."""
        for u, row in enumerate(self.rows):
            for v in iter_bits(row):
                yield u, v


def check_set(d: Digraph, mask: int) -> None:
    """Reject masks with bits outside 0..n-1 (or negative masks)."""
    if mask < 0:
        raise ValueError(f"negative vertex set has bits outside 0..{d.n - 1}")
    if mask & ~d.vertex_mask:
        raise ValueError(f"vertex set has bits outside 0..{d.n - 1}: vertex {mask.bit_length() - 1}")


# ---------------------------------------------------------------------------
# neighbourhoods


def n_plus_set(d: Digraph, s: int) -> int:
    """Vertices at directed distance exactly 1 from S (excludes S itself)."""
    check_set(d, s)
    return _row_union(d.rows, s) & ~s


def n_minus_set(d: Digraph, s: int) -> int:
    """Vertices at directed distance exactly 1 to S (excludes S itself)."""
    check_set(d, s)
    return _row_union(d.in_rows, s) & ~s


def n_minus_closed(d: Digraph, s: int) -> int:
    """S together with every vertex at distance 1 to S."""
    check_set(d, s)
    return s | _row_union(d.in_rows, s)


# ---------------------------------------------------------------------------
# predicates


def is_independent(d: Digraph, s: int) -> bool:
    """No arc joins two members of S (in either direction)."""
    check_set(d, s)
    return not _row_union(d.rows, s) & s


def is_acyclic_set(d: Digraph, s: int) -> bool:
    """The subdigraph induced by S has no directed cycle."""
    check_set(d, s)
    return _is_acyclic_rows(d.rows, s)


def _is_acyclic_rows(rows, s: int) -> bool:
    """The arcs ``rows`` restricted to S form no directed cycle."""
    m = s
    # peel vertices with no out-arc inside the remainder; a cycle survives
    while m:
        peeled = 0
        probe = m
        while probe:
            low = probe & -probe
            if rows[low.bit_length() - 1] & m == 0:
                peeled |= low
            probe ^= low
        if not peeled:
            return False
        m &= ~peeled
    return True


def is_sink_free(d: Digraph) -> bool:
    """Every vertex has out-degree at least 1."""
    return all(d.rows)


def sources_not_sinks(d: Digraph) -> int:
    """Mask of vertices with in-degree 0 and out-degree at least 1."""
    m = 0
    in_rows = d.in_rows
    for v, row in enumerate(d.rows):
        if row and not in_rows[v]:
            m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# constructions


def induced(d: Digraph, s: int) -> tuple[Digraph, tuple[int, ...]]:
    """D[S] relabelled 0..|S|-1 by rank in S, plus its back rows.

    Each row of the copy is ``_row_union(place, row & S)`` over the rank
    table ``_ranks(S)``.  ``back[j] = 1 << (the label of rank j in D)``, so
    a vertex set T' of the copy is ``_row_union(back, T')`` in D's labels.
    """
    check_set(d, s)
    place = _ranks(s)
    labels = vertices_of(s)
    return Digraph([_row_union(place, d.rows[u] & s) for u in labels]), tuple(1 << u for u in labels)


def disjoint_union(d1: Digraph, d2: Digraph) -> Digraph:
    """Disjoint union; the second digraph's vertices are shifted by d1.n."""
    check_order(d1.n + d2.n)
    rows = d1.rows + tuple(r << d1.n for r in d2.rows)
    return Digraph(rows)


# ---------------------------------------------------------------------------
# odd dicycles

def _parity_reach(rows, s: int, v: int) -> tuple[int, int]:
    """(even, odd): the vertices that walks from v inside S (v in S) reach
    with an even and with an odd number of arcs.  v is in ``odd`` iff an odd
    closed walk through v stays inside S, i.e. iff v can walk to an odd
    dicycle of S and back (an odd closed walk splits into dicycles).
    One front walks out from v, alternating parity: each step's front is the
    vertices first reached at that step's parity.
    """
    front = here = 1 << v  # here: reached at the front's parity
    there = 0
    even_front = True
    while front:
        front = _row_union(rows, front) & s & ~there
        here, there = there | front, here
        even_front = not even_front
    return (here, there) if even_front else (there, here)


def odd_dicycle_free(d: Digraph) -> bool:
    """True iff the digraph contains no directed cycle of odd length.

    Looks for an odd closed walk through each vertex v inside the vertices
    from v up: every odd dicycle is found from its least vertex.
    """
    rows = d.rows
    s = d.vertex_mask
    for v in range(d.n):
        if _parity_reach(rows, s, v)[1] >> v & 1:
            return False
        s ^= 1 << v
    return True


# ---------------------------------------------------------------------------
# enumeration

# Adjacency codes pack the n*(n-1) possible arcs row-major: the arcs out of
# vertex u occupy bits u*(n-1) .. u*(n-1)+n-2, heads in increasing order with
# the diagonal skipped.


def _row_from_chunk(u: int, chunk: int) -> int:
    low = chunk & ((1 << u) - 1)
    return low | ((chunk >> u) << (u + 1))


def adjacency_code(d: Digraph) -> int:
    """Row-major arc-indicator integer; the label-order identity of d.  Row
    u's chunk is the row with bit u cut out: the bits below u, then those
    above it shifted down by one."""
    w = d.n - 1
    code = 0
    for u, row in enumerate(d.rows):
        code |= (row & ((1 << u) - 1) | row >> (u + 1) << u) << (u * w)
    return code


def digraph_from_code(n: int, code: int) -> Digraph:
    """Inverse of adjacency_code."""
    check_order(n)
    if code < 0 or code >> (n * (n - 1)):
        raise ValueError(f"adjacency code out of range for n={n}")
    w = n - 1
    m = (1 << w) - 1 if n else 0
    return Digraph(tuple(_row_from_chunk(u, (code >> (u * w)) & m) for u in range(n)))


def enumerate_digraphs(n: int, sink_free: bool = False, canonical: bool = False) -> Iterator[Digraph]:
    """All labeled digraphs on n vertices in increasing adjacency-code order.

    With ``sink_free=True`` only digraphs with no out-degree-0 vertex are
    produced (generated directly, not by filtering).  With ``canonical=True``
    only the least-code representative of each isomorphism class is yielded:
    the stream keeps one byte per code (2^(n(n-1)) bytes: 4 KiB at n = 4,
    1 MiB at n = 5) and walks the labeled stream's rows beside their codes,
    skipping every code already marked without building its digraph.  On
    reaching an unmarked code -- the least of its class, since codes come in
    increasing order -- it marks the codes of all n! relabellings and yields
    the digraph.  So the n! walk runs once per class, never once per code.
    Rows are validated once per table row (each vertex's candidate out-rows,
    n 2^(n-1) of them), by the public constructor; the yielded digraphs are
    assembled from those rows without re-checking them.
    The stream order is deterministic, so consumers may split work by index.
    Every stream raises ``BudgetExceededError`` for n outside 0..ENUMERATE_ALL_BUDGET.
    """
    if not 0 <= n <= ENUMERATE_ALL_BUDGET:
        raise BudgetExceededError(f"enumeration budget is n <= {ENUMERATE_ALL_BUDGET}")
    # One tuple of candidate out-rows per vertex, vertex n-1 first: its chunk
    # holds the most significant code bits, and _row_from_chunk is increasing
    # in the chunk, so the product runs in increasing code order.
    w = max(n - 1, 0)
    chunks = range(1 if sink_free else 0, 1 << w)  # a sink-free row has at least one arc
    tables = [tuple(_row_from_chunk(u, c) for c in chunks) for u in reversed(range(n))]
    # Digraph(rows) checks each row on its own, so a row that passes alone,
    # in an otherwise edgeless digraph, passes in every product of the tables.
    for u, table in zip(reversed(range(n)), tables):
        for row in table:
            Digraph(tuple(row if v == u else 0 for v in range(n)))
    build = Digraph._from_checked_rows
    if not canonical:
        for rows in itertools.product(*tables):
            yield build(rows[::-1])
        return
    # The same product over each vertex's code bits, summed into the code.
    shifted = [tuple(c << (u * w) for c in chunks) for u in reversed(range(n))]
    marked = bytearray(1 << (n * w))
    perms = tuple(itertools.permutations(range(n)))
    for rows, code in zip(itertools.product(*tables), map(sum, itertools.product(*shifted))):
        if marked[code]:
            continue
        d = build(rows[::-1])
        arcs = tuple(d.arcs())
        for perm in perms:
            image = 0
            for u, v in arcs:
                pu = perm[u]
                pv = perm[v]
                image |= 1 << (pu * w + (pv if pv < pu else pv - 1))
            marked[image] = 1
        yield d


# ---------------------------------------------------------------------------
# text and JSON formats


def _decimal(token: str) -> int:
    """A count or index written in ASCII digits only: unlike ``int``, no sign,
    underscore, surrounding space or non-ASCII digit."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{_clip(token)!r} is not a decimal integer")
    return int(token)


def _clip(text: str) -> str:
    """A piece of input as an error message shows it: whole up to 40
    characters, else its first 40, an ellipsis and its length."""
    return text if len(text) <= 40 else f"{text[:40]}…[{len(text)} characters]"


def parse(text: str) -> Digraph:
    """Parse the line format: a vertex-count header, then one "u v" per arc.

    Blank lines are skipped and ``#`` starts a comment anywhere on a line.
    """
    entries = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            entries.append(line)
    if not entries:
        raise ParseError("missing header line with the vertex count")
    header = entries[0]
    try:
        n = _decimal(header)
    except ValueError:
        raise ParseError(f"malformed header {_clip(header)!r}: expected a vertex count") from None
    arcs = []
    for line in entries[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"malformed arc line {_clip(line)!r}: expected 'u v'")
        try:
            arcs.append((_decimal(parts[0]), _decimal(parts[1])))
        except ValueError:
            raise ParseError(f"malformed arc line {_clip(line)!r}: expected two integers") from None
    try:
        return Digraph.from_arcs(n, arcs)
    except ValueError as e:
        raise ParseError(str(e)) from None


def serialize(d: Digraph) -> str:
    """Line format emitted with arcs in lexicographic order; round-trips."""
    lines = [str(d.n)]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(lines) + "\n"


def digraph_to_json(d: Digraph) -> dict:
    return {"n": d.n, "arcs": [[u, v] for u, v in d.arcs()]}


def digraph_from_json(obj: object) -> Digraph:
    if not isinstance(obj, dict):
        raise ParseError("digraph JSON must be an object")
    try:
        n = obj["n"]
        arcs = obj["arcs"]
    except KeyError as e:
        raise ParseError(f"digraph JSON is missing key {e.args[0]!r}") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("digraph JSON field 'n' must be an integer")
    if not isinstance(arcs, list):
        raise ParseError("digraph JSON field 'arcs' must be a list")
    pairs = []
    for item in arcs:
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(x, int) and not isinstance(x, bool) for x in item)):
            raise ParseError(f"malformed arc entry {_clip(repr(item))}")
        pairs.append((item[0], item[1]))
    try:
        return Digraph.from_arcs(n, pairs)
    except ValueError as e:
        raise ParseError(str(e)) from None


def loads_json(text: str) -> Digraph:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:  # bad syntax, an int over Python's digit limit, or too deep
        raise ParseError(f"invalid JSON: {e}") from None
    return digraph_from_json(obj)


def dumps_json(d: Digraph) -> str:
    return json.dumps(digraph_to_json(d), separators=(",", ":"))


# ---------------------------------------------------------------------------
# partitions

@dataclass(frozen=True)
class Partition:
    """Ordered partition of the vertex set into parts; the constructions
    take its parts to be kernel-perfect.

    Empty parts are permitted (the constructions pad single-part partitions).
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))


def check_partition(d: Digraph, parts: Iterable[int]) -> None:
    """Reject part masks that overlap or fail to cover the vertex set."""
    acc = 0
    for i, part in enumerate(parts):
        check_set(d, part)
        if part & acc:
            raise ValueError(f"partition parts overlap at part {i}")
        acc |= part
    if acc != d.vertex_mask:
        raise ValueError("partition parts do not cover the vertex set")
