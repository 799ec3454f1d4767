import dataclasses
import json
import sys
from fractions import Fraction

import pytest

import quasikernel.harness as harness
from quasikernel import ConjectureSpec, Digraph, ParseError, enumerate_digraphs, merge_reports, sweep
from quasikernel.digraph import adjacency_code
from quasikernel.generators import make, parse_family
from quasikernel.harness import check, parse_alpha, report_to_csv, slack

from conftest import all_digraphs, dg, least_codes, mask_to_set
from oracles import oracle_first_min_qk, oracle_max_large, oracle_max_sharp


HALF = Fraction(1, 2)
SMALL_HALF = ConjectureSpec("small", HALF, sink_free_version=True)


# ---------------------------------------------------------------------------
# alpha parsing and spec validation


@pytest.mark.parametrize("text,value", [
    ("1/2", Fraction(1, 2)),
    ("2/4", Fraction(1, 2)),
    ("1/1", Fraction(1)),
    (" 1/3 ", Fraction(1, 3)),
])
def test_parse_alpha(text, value):
    assert parse_alpha(text) == value


@pytest.mark.parametrize("text", [
    "0.5", "1", "1/0", "3/2", "0/2", "-1/2", "1/2/3", "a/b", "", "1/ 2", "²/3",
])
def test_parse_alpha_rejects(text):
    with pytest.raises(ParseError):
        parse_alpha(text)


def test_spec_validation():
    spec = ConjectureSpec("large", Fraction(2, 4))
    assert spec.alpha == HALF
    with pytest.raises(ValueError):
        ConjectureSpec("small", HALF)  # small without the sink-free flag
    with pytest.raises(ValueError):
        ConjectureSpec("tiny", HALF, sink_free_version=True)
    with pytest.raises(ValueError):
        ConjectureSpec("large", Fraction(0))
    with pytest.raises(ValueError):
        ConjectureSpec("large", Fraction(2))


# ---------------------------------------------------------------------------
# single-digraph checks


def test_check_small_golden(c4):
    rec = check(c4, SMALL_HALF)
    assert rec.n == 4
    assert rec.objective == 2
    assert rec.bound == Fraction(2)
    assert rec.passed
    assert mask_to_set(rec.witness) == {0, 2}
    assert rec.digraph() == c4


def test_check_sources_discount():
    # one source feeding a 2-cycle: s = 1 tightens the bound by alpha
    d = dg(3, [(0, 1), (1, 2), (2, 1)])
    rec = check(d, ConjectureSpec("sources", HALF))
    assert rec.objective == 1
    assert rec.bound == Fraction(5, 2)
    assert rec.passed


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 1)])
def test_check_bounds_are_reduced_fractions(alpha):
    # small: (1 - alpha) n; sources: n - alpha s; large: alpha n; sharp: 2 alpha n
    for variant in ("small", "sources", "large", "sharp"):
        spec = ConjectureSpec(variant, alpha, sink_free_version=variant == "small")
        shared = {}
        for n in range(4):
            for d in all_digraphs(n, sink_free=variant == "small"):
                s = sum(1 for v in range(n) if d.in_rows[v] == 0 and d.rows[v] != 0)
                want = {"small": n - alpha * n, "sources": n - alpha * s,
                        "large": alpha * n, "sharp": 2 * alpha * n}[variant]
                bound = check(d, spec).bound
                assert type(bound) is Fraction and bound == want
                assert (bound.numerator, bound.denominator) == (want.numerator, want.denominator)
                # records with one bound share one Fraction
                assert shared.setdefault(want, bound) is bound


def test_check_rejects_sinky_input_for_sink_free_spec():
    d = dg(2, [(0, 1)])
    with pytest.raises(ValueError):
        check(d, ConjectureSpec("large", HALF, sink_free_version=True))
    assert check(d, ConjectureSpec("large", HALF)).passed


def test_check_record_json(c4):
    rec = check(c4, SMALL_HALF)
    obj = rec.to_json()
    assert obj == {
        "n": 4,
        "adjacency_hex": format(adjacency_code(c4), "x"),
        "objective": 2,
        "bound": "2/1",
        "passed": True,
        "witness": [0, 2],
    }
    json.dumps(obj)


@pytest.mark.parametrize("alpha", [Fraction(1, 3), HALF, Fraction(1)])
def test_check_matches_oracles_n3(alpha):
    sources_spec = ConjectureSpec("sources", alpha)
    large_spec = ConjectureSpec("large", alpha)
    sharp_spec = ConjectureSpec("sharp", alpha)
    small_spec = ConjectureSpec("small", alpha, sink_free_version=True)
    for d in all_digraphs(3):
        n = d.n
        s = sum(1 for v in range(n) if d.in_rows[v] == 0 and d.rows[v] != 0)
        min_size = len(oracle_first_min_qk(d))
        rec = check(d, sources_spec)
        assert rec.objective == min_size
        assert rec.passed == (min_size <= n - alpha * s)

        rec = check(d, large_spec)
        assert rec.objective == oracle_max_large(d)
        assert rec.passed == (rec.objective >= alpha * n)

        rec = check(d, sharp_spec)
        assert rec.objective == oracle_max_sharp(d)
        assert rec.passed == (rec.objective >= 2 * alpha * n)

        if all(d.rows[v] for v in range(n)):
            rec = check(d, small_spec)
            assert rec.objective == min_size
            assert rec.passed == (min_size <= (1 - alpha) * n)


# ---------------------------------------------------------------------------
# slack


def test_slack_signs(c3, c4):
    rec = check(c4, ConjectureSpec("large", HALF))
    assert slack(rec, ConjectureSpec("large", HALF)) == HALF  # (4 - 2) / 4

    failing = ConjectureSpec("small", Fraction(1), sink_free_version=True)
    rec = check(c3, failing)
    assert not rec.passed
    assert slack(rec, failing) < 0

    rec = check(Digraph(()), ConjectureSpec("sources", HALF))
    assert slack(rec, ConjectureSpec("sources", HALF)) is None


def test_slack_nonnegative_iff_passed():
    spec = ConjectureSpec("sharp", Fraction(2, 3))
    for d in all_digraphs(3):
        if d.n == 0:
            continue
        rec = check(d, spec)
        assert rec.passed == (slack(rec, spec) >= 0)


# ---------------------------------------------------------------------------
# sweeping


def test_sweep_sink_free_n3_golden():
    rep = sweep(all_digraphs(3, sink_free=True), SMALL_HALF, "labeled:n=3:sink_free")
    assert rep.count == 27
    assert rep.failures == ()
    assert rep.min_slack == Fraction(1, 6)
    assert rep.records == ()
    assert rep.extremal
    for rec in rep.extremal:
        assert slack(rec, SMALL_HALF) == Fraction(1, 6)


def test_sweep_collects_failures():
    spec = ConjectureSpec("small", Fraction(1), sink_free_version=True)
    rep = sweep(all_digraphs(3, sink_free=True), spec, "c")
    assert rep.count == 27
    assert len(rep.failures) == 27  # bound is 0 and every minimum is >= 1
    assert rep.min_slack < 0


def test_sweep_shard_validation():
    for count, index in [(0, 0), (2, 2), (2, -1)]:
        with pytest.raises(ValueError):
            sweep([], SMALL_HALF, "c", shard_count=count, shard_index=index)


def test_sweep_empty_and_trivial_corpus():
    rep = sweep([], SMALL_HALF, "c")
    assert rep.count == 0 and rep.min_slack is None and rep.extremal == ()
    rep = sweep([Digraph(())], SMALL_HALF, "c")
    assert rep.count == 1 and rep.failures == () and rep.min_slack is None


@pytest.mark.parametrize("alpha", [HALF, Fraction(1, 3), Fraction(1)])
@pytest.mark.parametrize("variant", ["small", "sources", "large", "sharp"])
def test_class_sweeps_agree_with_labeled_sweeps(variant, alpha):
    # every objective is invariant under relabelling, so each labeled
    # digraph must get its class representative's objective and verdict:
    # this cross-checks the class stream and the solvers on each other.
    # Nothing fails at 1/2 or 1/3 for n <= 4; at 1 most digraphs do.
    spec = ConjectureSpec(variant, alpha, sink_free_version=variant == "small")
    for n in range(5):
        labeled = sweep(enumerate_digraphs(n, sink_free=spec.sink_free_version), spec, "l",
                        keep_records=True)
        classes = sweep(enumerate_digraphs(n, sink_free=spec.sink_free_version, canonical=True),
                        spec, "c", keep_records=True)

        def class_codes(records):
            return {least_codes(n)[int(r.code_hex, 16)] for r in records}

        rep = {int(r.code_hex, 16): r for r in classes.records}
        assert set(rep) == class_codes(classes.records) and len(rep) == classes.count
        for r in labeled.records:
            cls = rep[least_codes(n)[int(r.code_hex, 16)]]
            assert (r.objective, r.bound, r.passed) == (cls.objective, cls.bound, cls.passed)
        assert classes.min_slack == labeled.min_slack
        assert class_codes(labeled.failures) == class_codes(classes.failures)
        assert class_codes(labeled.extremal) == class_codes(classes.extremal)


def _record_key(record):
    return record.n, int(record.code_hex, 16)


def _assert_ranked_as_fractions(digraphs, spec):
    """The sweep's least slack and extremal records are those of slack()'s
    Fractions, and three shards of the corpus merge back into the sweep;
    returns the sweep and the merged shards."""
    whole = sweep(digraphs, spec, "c", keep_records=True)
    ranked = [(r, slack(r, spec)) for r in whole.records if r.n]
    least = min((sl for _, sl in ranked), default=None)
    assert whole.min_slack == least
    assert least is None or type(whole.min_slack) is Fraction
    assert whole.extremal == tuple(r for r, sl in ranked if sl == least)
    merged = _merged_shards(digraphs, spec, keep_records=True)
    assert _aggregate(merged) == _aggregate(whole)
    assert sorted(merged.records, key=_record_key) == sorted(whole.records, key=_record_key)
    return whole, merged


def _merged_shards(digraphs, spec, keep_records=False):
    left, mid, right = (sweep(digraphs, spec, "c", shard_count=3, shard_index=i, keep_records=keep_records)
                        for i in range(3))
    return merge_reports(merge_reports(left, mid), right)


def _streams(spec):
    """Every n <= 4 stream the spec's sweeps read, labeled and canonical."""
    return {(n, canonical, sink_free): list(enumerate_digraphs(n, sink_free=sink_free, canonical=canonical))
            for n in range(5) for canonical in (False, True)
            for sink_free in sorted({spec.sink_free_version, True})}


_eager_reports = {}


def _eager_pair(spec, key, stream):
    """The eager sweep of a stream and its merged shards, records emptied;
    both sweep-equivalence tests read it, so each stream is swept once."""
    if (spec, key) not in _eager_reports:
        whole, merged = _assert_ranked_as_fractions(stream, spec)
        _eager_reports[spec, key] = tuple(dataclasses.replace(r, records=()) for r in (whole, merged))
    return _eager_reports[spec, key]


@pytest.mark.parametrize("alpha", [Fraction(1, 3), HALF, Fraction(2, 3), Fraction(1)])
@pytest.mark.parametrize("variant", ["small", "sources", "large", "sharp"])
def test_sweep_ranks_slack_exactly_as_fraction_slack(variant, alpha):
    # the sweep ranks slack as unreduced integer pairs; one corpus of all the
    # streams mixes orders, so equal numerators meet different denominators
    spec = ConjectureSpec(variant, alpha, sink_free_version=variant == "small")
    streams = _streams(spec)
    for key, stream in streams.items():
        _eager_pair(spec, key, stream)
    _assert_ranked_as_fractions([d for stream in streams.values() for d in stream], spec)


@pytest.mark.parametrize("alpha", [Fraction(1, 3), HALF, Fraction(1)])
@pytest.mark.parametrize("variant", ["small", "sources", "large", "sharp"])
def test_sweep_without_records_keeps_what_the_eager_sweep_keeps(variant, alpha):
    # a report without records builds a record only for the digraphs it
    # keeps; at alpha = 1 most digraphs fail and many of them are extremal
    # too, so one record serves both roles
    spec = ConjectureSpec(variant, alpha, sink_free_version=variant == "small")
    for key, stream in _streams(spec).items():
        whole, merged = _eager_pair(spec, key, stream)
        assert sweep(stream, spec, "c") == whole
        assert _merged_shards(stream, spec) == merged


def test_sweep_without_records_builds_records_only_for_what_it_keeps(monkeypatch):
    # every record the sweep could ever keep: a failure, or a digraph that
    # sets or ties the least slack so far
    spec = ConjectureSpec("large", HALF)
    kept, least = 0, None
    for d in enumerate_digraphs(4):
        rec = check(d, spec)
        sl = slack(rec, spec)
        ranked = sl is not None and (least is None or sl <= least)
        if ranked:
            least = sl
        kept += ranked or not rec.passed
    calls = []
    code = harness.adjacency_code
    monkeypatch.setattr(harness, "adjacency_code", lambda d: calls.append(d) or code(d))
    rep = sweep(enumerate_digraphs(4), spec, "c")
    assert rep.count == 4096 and rep.records == ()
    assert len(calls) == kept < 4096 // 10


def test_sweep_keep_records_and_csv(two_cycle):
    spec = ConjectureSpec("large", HALF)
    rep = sweep([two_cycle], spec, "c", keep_records=True)
    assert len(rep.records) == 1
    text = report_to_csv(rep)
    code = format(adjacency_code(two_cycle), "x")
    assert text == (
        "adjacency_hex,n,objective,bound_num,bound_den,pass\n"
        f"{code},2,2,1,1,1\n"
    )


def test_csv_requires_records(two_cycle):
    rep = sweep([two_cycle], ConjectureSpec("large", HALF), "c")
    with pytest.raises(ValueError):
        report_to_csv(rep)
    # an empty sweep exports an empty table without complaint
    assert report_to_csv(sweep([], ConjectureSpec("large", HALF), "c")).count("\n") == 1


def test_sharp_is_tight_on_circulant_five():
    d = make(parse_family("circulant:5"))
    spec = ConjectureSpec("sharp", HALF)
    rec = check(d, spec)
    assert rec.objective == 5
    assert rec.bound == Fraction(5)
    assert rec.passed
    assert slack(rec, spec) == 0


# ---------------------------------------------------------------------------
# sharding and merging


def _aggregate(rep):
    return (rep.count, rep.min_slack, sorted(r.code_hex for r in rep.extremal),
            sorted(r.code_hex for r in rep.failures))


def test_sweep_takes_shard_counts_up_to_sys_maxsize():
    assert sweep(iter([]), SMALL_HALF, "c", shard_count=sys.maxsize).count == 0
    with pytest.raises(ValueError, match="^bad shard 0/"):
        sweep(iter([]), SMALL_HALF, "c", shard_count=sys.maxsize + 1)


def test_merge_reassembles_shards():
    corpus = all_digraphs(3, sink_free=True)
    whole = sweep(corpus, SMALL_HALF, "c")
    shards = [sweep(corpus, SMALL_HALF, "c", shard_count=3, shard_index=i, keep_records=True)
              for i in range(3)]
    assert sum(s.count for s in shards) == whole.count
    # shard i checks the digraphs at stream indices i, i + 3, ...: the
    # shards are disjoint and cover the corpus
    codes = [format(adjacency_code(d), "x") for d in corpus]
    for i, shard in enumerate(shards):
        assert [r.code_hex for r in shard.records] == codes[i::3]
    assert sorted(r.code_hex for s in shards for r in s.records) == sorted(codes)

    left = merge_reports(merge_reports(shards[0], shards[1]), shards[2])
    right = merge_reports(shards[0], merge_reports(shards[1], shards[2]))
    swapped = merge_reports(shards[2], merge_reports(shards[0], shards[1]))
    for merged in (left, right, swapped):
        assert sorted(merged.shard_ids) == [0, 1, 2]
        assert merged.shard_count == 3
        assert _aggregate(merged) == _aggregate(whole)


def test_merge_rejects_mismatches():
    corpus = all_digraphs(2)
    a = sweep(corpus, ConjectureSpec("large", HALF), "c", shard_count=2, shard_index=0)
    with pytest.raises(ValueError):
        merge_reports(a, a)  # overlapping shard ids
    with pytest.raises(ValueError):
        merge_reports(a, sweep(corpus, ConjectureSpec("large", HALF), "other",
                               shard_count=2, shard_index=1))
    with pytest.raises(ValueError):
        merge_reports(a, sweep(corpus, ConjectureSpec("large", Fraction(1, 3)), "c",
                               shard_count=2, shard_index=1))
    with pytest.raises(ValueError):
        merge_reports(a, sweep(corpus, ConjectureSpec("large", HALF), "c"))


def test_report_json_roundtrip():
    rep = sweep(all_digraphs(2), ConjectureSpec("sharp", HALF), "labeled:n=2",
                keep_records=True)
    obj = rep.to_json()
    json.dumps(obj)
    assert obj["version"] == "1"
    assert obj["corpus"] == "labeled:n=2"
    assert obj["conjecture"] == {"variant": "sharp", "alpha": "1/2",
                                 "sink_free_version": False}
    assert obj["count"] == rep.count == 4
    assert len(obj["records"]) == 4
    assert obj["min_slack"] is not None
