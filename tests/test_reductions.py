import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasikernel import (
    Digraph,
    OracleContractError,
    mask_of,
    min_quasi_kernel,
    qk_via_ii_oracle,
)
from quasikernel.digraph import is_sink_free, n_minus_set, serialize
from quasikernel.generators import make, parse_family
from quasikernel import reductions
from quasikernel.reductions import (
    add_source_gadget,
    c3_blowup,
    matching_split,
    project_blowup_qk,
    weighted_blowup,
)
from quasikernel.solvers import SolveResult, is_quasi_kernel, quasi_kernels

from conftest import all_digraphs, dg, mask_to_set, set_to_mask


sink_free_4_index = st.integers(min_value=0, max_value=7 ** 4 - 1)


# ---------------------------------------------------------------------------
# source gadget


def test_gadget_structure(c3):
    blown, bmap = add_source_gadget(c3, 2)
    assert blown.n == 9
    assert bmap.kind == "source-gadget"
    # copy j of base vertex v is labeled 3 + 2v + j and points at v only
    for v in range(3):
        assert bmap.blocks[v] >> v & 1
        for j in range(2):
            w = 3 + 2 * v + j
            assert blown.rows[w] == 1 << v
            assert bmap.blocks[v] >> w & 1
    # base arcs survive unchanged
    assert [a for a in blown.arcs() if a[0] < 3 and a[1] < 3] == list(c3.arcs())


def test_gadget_rejects():
    with pytest.raises(ValueError):
        add_source_gadget(dg(2, []), 0)
    with pytest.raises(ValueError):
        add_source_gadget(Digraph((0,) * 32), 1)


def test_gadget_projection_is_refused(c3):
    blown, bmap = add_source_gadget(c3, 1)
    q = min_quasi_kernel(blown).witness
    with pytest.raises(ValueError):
        project_blowup_qk(bmap, q)


# ---------------------------------------------------------------------------
# weighted blowup


def test_weighted_blowup_identity(c4):
    blown, bmap = weighted_blowup(c4, (1, 1, 1, 1))
    assert blown == c4
    assert bmap.blocks == (0b0001, 0b0010, 0b0100, 0b1000)


def test_weighted_blowup_structure():
    d = dg(2, [(0, 1)])
    blown, bmap = weighted_blowup(d, (2, 3))
    assert blown.n == 5
    assert bmap.blocks == (0b00011, 0b11100)
    for copy in (0, 1):
        assert blown.rows[copy] == 0b11100
    for copy in (2, 3, 4):
        assert blown.rows[copy] == 0


@pytest.mark.parametrize("mult", [(0, 1), (1,), (1, 1, 1), (40, 40)])
def test_weighted_blowup_rejects(mult):
    with pytest.raises(ValueError):
        weighted_blowup(dg(2, [(0, 1)]), mult)


def test_weighted_projection_roundtrip():
    for d in all_digraphs(3):
        blown, bmap = weighted_blowup(d, (2, 1, 2))
        for qp in quasi_kernels(blown):
            q = project_blowup_qk(bmap, qp)
            assert is_quasi_kernel(d, q)


def test_projection_rejects_non_qk(c4):
    blown, bmap = weighted_blowup(c4, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        project_blowup_qk(bmap, 0b0011)


# ---------------------------------------------------------------------------
# triangle blowup


def test_c3_blowup_structure(c3):
    blown, bmap = c3_blowup(c3)
    assert blown.n == 9
    assert is_sink_free(blown)
    for v in range(3):
        b = 3 * v
        assert {(b, b + 1), (b + 1, b + 2), (b + 2, b)} <= set(blown.arcs())
        assert bmap.blocks[v] == 0b111 << b


def test_c3_blowup_always_sink_free():
    d = dg(3, [])  # even an edgeless base gives triangles everywhere
    blown, _ = c3_blowup(d)
    assert is_sink_free(blown)


def test_c3_blowup_cap():
    with pytest.raises(ValueError):
        c3_blowup(Digraph((0,) * 22))


def test_blowup_orders():
    for n in range(4):
        for d in all_digraphs(n):
            mult = tuple(range(1, n + 1))
            assert weighted_blowup(d, mult)[0].n == sum(mult)
            assert c3_blowup(d)[0].n == 3 * n
            for c in (1, 2):
                assert add_source_gadget(d, c)[0].n == n * (c + 1)


# sha256 of the triangle blowup of every digraph of order <= 3, blocks
# included, and of c3pow:3: rewriting the construction must not move a byte
def test_c3_blowup_bytes_are_pinned():
    h = hashlib.sha256()
    for n in range(4):
        for d in all_digraphs(n):
            blown, bmap = c3_blowup(d)
            h.update(serialize(blown).encode())
            h.update(json.dumps(bmap.to_json()).encode())
    assert h.hexdigest() == "6dd91c19ce8f8c11fdb0f77c461a1278a0dd0e72e4aae72c44ead348dfc32436"
    c3pow = serialize(make(parse_family("c3pow:3")))
    assert hashlib.sha256(c3pow.encode()).hexdigest() == "e93e29d1a7644e6acec7c6f0f6caf63ce5fae39337b188ba0bff2b1cefea601a"


def test_c3_coverage_identity_spot():
    # the open in-neighbourhood of Q' in the blowup has size |Q| + 3 |N^-(Q)|
    d = dg(3, [(0, 1), (2, 1)])
    blown, bmap = c3_blowup(d)
    seen = 0
    for qp in quasi_kernels(blown):
        q = project_blowup_qk(bmap, qp)
        lhs = n_minus_set(blown, qp).bit_count()
        rhs = q.bit_count() + 3 * n_minus_set(d, q).bit_count()
        assert lhs == rhs
        seen += 1
    assert seen > 0


# ---------------------------------------------------------------------------
# matching split


def test_matching_split_golden(c5):
    q = min_quasi_kernel(c5).witness
    split = matching_split(c5, q)
    assert split.q == q == mask_of([0, 2])
    assert split.matching == ((1, 2), (4, 0))
    assert split.q1 == q and split.q2 == 0
    assert split.n_set == mask_of([1, 4])
    assert split.m_set == mask_of([3])


def test_matching_split_preconditions(c4):
    with pytest.raises(ValueError):
        matching_split(dg(2, [(0, 1)]), 0b10)  # not sink-free
    with pytest.raises(ValueError):
        matching_split(c4, 0b0011)  # not a quasi-kernel


def test_matching_split_requires_minimality():
    # two 2-cycles sharing vertex 1: {0, 2} is a quasi-kernel but so is {0}
    d = dg(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    q = mask_of([0, 2])
    assert is_quasi_kernel(d, q) and is_quasi_kernel(d, mask_of([0]))
    with pytest.raises(ValueError):
        matching_split(d, q)


@given(sink_free_4_index)
@settings(max_examples=80, deadline=None)
def test_matching_split_structure(i):
    d = all_digraphs(4, sink_free=True)[i]
    q = min_quasi_kernel(d).witness
    split = matching_split(d, q)
    assert split.q1 | split.q2 == q and split.q1 & split.q2 == 0
    assert split.n_set == n_minus_set(d, q)
    assert split.m_set == d.vertex_mask & ~(q | split.n_set)
    matched_q = set()
    for u, v in split.matching:
        assert d.rows[u] >> v & 1
        assert split.n_set >> u & 1 and split.q1 >> v & 1
        assert v not in matched_q
        matched_q.add(v)
    # every N^-(Q) vertex keeps an arc into the matched part
    for u in range(d.n):
        if split.n_set >> u & 1:
            assert d.rows[u] & split.q1
    # unmatched quasi-kernel vertices only reach m_set
    for x in range(d.n):
        if split.q2 >> x & 1:
            assert d.rows[x] and d.rows[x] & ~split.m_set == 0


# ---------------------------------------------------------------------------
# the oracle transfer


def test_via_ii_oracle_golden(c5):
    res = qk_via_ii_oracle(c5, Fraction(1, 2))
    assert is_quasi_kernel(c5, res.witness)
    assert 3 * res.witness.bit_count() <= 2 * c5.n
    assert res.verified


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(3, 2), Fraction(-1, 2)])
def test_via_ii_oracle_validates_alpha(c5, alpha):
    with pytest.raises(ValueError):
        qk_via_ii_oracle(c5, alpha)


@pytest.mark.parametrize("alpha,message", [
    (0, "alpha must be in (0, 1], got 0"),
    (Fraction(3, 2), "alpha must be in (0, 1], got 3/2"),
    (-1, "alpha must be in (0, 1], got -1"),
])
def test_via_ii_oracle_alpha_messages(c5, alpha, message):
    with pytest.raises(ValueError) as excinfo:
        qk_via_ii_oracle(c5, alpha)
    assert str(excinfo.value) == message


def test_via_ii_oracle_takes_alpha_in_any_exact_form(c5):
    # an int or a string converts to the Fraction it names
    assert qk_via_ii_oracle(c5, 1) == qk_via_ii_oracle(c5, Fraction(1)) == SolveResult(0b101, 2, True)
    for d in all_digraphs(3, sink_free=True):
        assert qk_via_ii_oracle(d, "1/2") == qk_via_ii_oracle(d, Fraction(1, 2))


def test_via_ii_oracle_needs_sink_free():
    with pytest.raises(ValueError):
        qk_via_ii_oracle(dg(2, [(0, 1)]), Fraction(1, 2))


def test_via_ii_oracle_rejects_lying_oracle(c5):
    def liar(d):
        return SolveResult(0, 0, True)  # the empty set covers nothing

    with pytest.raises(OracleContractError):
        qk_via_ii_oracle(c5, Fraction(1, 2), oracle=liar)


def test_via_ii_oracle_bound_check_fires():
    # the oracle sees the subdigraph induced by {2..6}: two sources feeding
    # a 2-path, plus an isolated vertex.  {both sources, both local sinks}
    # is a genuine quasi-kernel of size 4 > n' - s' = 3, so an oracle that
    # returns it breaks the declared alpha = 1 bound with a valid witness
    d = dg(7, [(0, 1), (1, 0), (2, 1), (2, 3), (3, 1), (3, 4),
               (4, 1), (5, 1), (6, 1), (6, 3)])
    assert is_sink_free(d)
    assert min_quasi_kernel(d).witness == mask_of([0])

    def oversize(sub):
        assert sub.n == 5
        w = mask_of([0, 2, 3, 4])
        assert is_quasi_kernel(sub, w)
        return SolveResult(w, 4, True)

    with pytest.raises(OracleContractError):
        qk_via_ii_oracle(d, Fraction(1, 1), oracle=oversize)
    # the honest default oracle at alpha = 1/2 goes through
    res = qk_via_ii_oracle(d, Fraction(1, 2))
    assert res.witness == mask_of([0])
    assert 3 * res.witness.bit_count() <= 2 * d.n


def _rank_copy(d, s):
    """D[S] built from vertex sets: the i-th vertex of S becomes vertex i."""
    rank = {v: i for i, v in enumerate(sorted(mask_to_set(s)))}
    return Digraph.from_arcs(len(rank), [(rank[u], rank[w]) for u, w in d.arcs() if u in rank and w in rank])


def test_via_ii_oracle_maps_the_largest_witness_back(monkeypatch):
    # the oracle checks the copy it gets against D[Q2 + M] built from sets,
    # then answers with the minimum quasi-kernel of largest mask, which sits
    # at ranks the least one never uses; the completed candidate must be
    # built from that witness in D's labels
    checked = []
    monkeypatch.setattr(reductions, "is_quasi_kernel", lambda d, q: checked.append((d, q)) or is_quasi_kernel(d, q))
    for n in range(1, 5):
        for d in all_digraphs(n, sink_free=True):
            split = matching_split(d, min_quasi_kernel(d).witness)
            s = split.q2 | split.m_set
            answers = []

            def largest_min(sub):
                assert sub == _rank_copy(d, s)
                size = min_quasi_kernel(sub).objective
                witness = max(q for q in quasi_kernels(sub) if q.bit_count() == size)
                labels = sorted(mask_to_set(s))
                answers.append(set_to_mask(labels[i] for i in mask_to_set(witness)))
                return SolveResult(witness, size, True)

            checked.clear()
            res = qk_via_ii_oracle(d, Fraction(1, 2), largest_min)
            assert is_quasi_kernel(d, res.witness)
            [qp] = answers
            assert checked[-1] == (d, qp | (split.q1 & ~n_minus_set(d, qp)))


@given(sink_free_4_index)
@settings(max_examples=60, deadline=None)
def test_via_ii_bound_n4(i):
    d = all_digraphs(4, sink_free=True)[i]
    res = qk_via_ii_oracle(d, Fraction(1, 2))
    assert is_quasi_kernel(d, res.witness)
    assert 3 * res.witness.bit_count() <= 2 * d.n
