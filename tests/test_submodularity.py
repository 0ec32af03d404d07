import dataclasses
import functools
import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmuplan.estimation as estimation
import pmuplan.submodularity as submodularity
from pmuplan.cases import load_case
from pmuplan.estimation import metric_function
from pmuplan.measurements import greedy_observable_cover
from pmuplan.network import Branch, Bus, NetworkCase
from pmuplan.submodularity import (
    AuditAbortedError,
    ClassificationTally,
    MarginClass,
    MarginRecord,
    MetricEvaluationError,
    SubsetTriple,
    audit,
    check_monotone,
    classify_triple,
    count_combinations,
    enumerate_triples,
    merge_tallies,
)

NU = (2, 6, 7, 9)


def test_count_formula():
    assert count_combinations(14, 4, 12, 13) == 90
    assert count_combinations(118, 37, 116, 117) == 6480
    # degenerate A = B = nu leaves only the probe choice
    assert count_combinations(14, 4, 4, 4) == 10
    assert count_combinations(30, 0, 0, 0) == 30
    with pytest.raises(ValueError, match="size ordering"):
        count_combinations(14, 4, 3, 13)
    with pytest.raises(ValueError, match="size ordering"):
        count_combinations(14, 4, 12, 14)


def test_triple_validation():
    with pytest.raises(ValueError, match="sorted"):
        SubsetTriple(a=(2, 1), b=(1, 2, 3), s=4)
    # a list, a repeated id, a descending B, and ids that are equal as numbers
    for a, b in (([1], (1, 2)), ((1, 1), (1, 2)), ((1,), (3, 2, 1)), ((1, 1.0), (1, 2))):
        with pytest.raises(ValueError, match="strictly sorted tuple"):
            SubsetTriple(a=a, b=b, s=4)
    assert SubsetTriple(a=(), b=(), s=1).b == ()
    with pytest.raises(ValueError, match="subset"):
        SubsetTriple(a=(1, 4), b=(1, 2, 3), s=5)
    with pytest.raises(ValueError, match="already belongs"):
        SubsetTriple(a=(1,), b=(1, 2), s=2)


def test_enumeration_is_complete_and_lexicographic():
    triples = list(enumerate_triples(range(1, 15), NU, 12, 13))
    assert len(triples) == 90
    keys = [t.sort_key() for t in triples]
    assert keys == sorted(keys)
    assert len(set(keys)) == 90
    for t in triples:
        assert set(NU) <= t.a_set <= t.b_set
        assert (len(t.a), len(t.b)) == (12, 13)
        assert t.s not in t.b_set
    assert triples[0].sort_key() == (tuple(range(1, 13)), tuple(range(1, 14)), 14)
    assert triples[1].b == tuple(sorted(set(range(1, 13)) | {14}))
    assert triples[1].s == 13


def test_enumeration_rejects_foreign_nu():
    with pytest.raises(ValueError, match="subset of omega"):
        list(enumerate_triples(range(1, 15), (2, 99), 12, 13))


@pytest.mark.parametrize("bad", [True, 2.0])
def test_enumeration_ids_must_be_ints(bad):
    """A bool or float id in nu or omega is refused by value: ``(True, 6,
    7, 9)`` once yielded 90 triples whose A held True in place of bus 1."""
    with pytest.raises(ValueError, match=f"^nu bus ids must be integers, got {bad!r}$"):
        next(enumerate_triples(range(1, 15), (bad, 6, 7, 9), 12, 13))
    with pytest.raises(ValueError, match=f"^omega bus ids must be integers, got {bad!r}$"):
        next(enumerate_triples((bad, *range(3, 15)), NU, 11, 12))


def test_negated_squared_cardinality_is_submodular():
    f = lambda q: -float(len(q) ** 2)
    grown = classify_triple(f, SubsetTriple(a=(1, 2), b=(1, 2, 3, 4), s=5))
    assert grown.verdict == MarginClass.SUBMODULAR
    assert grown.margin == pytest.approx(2 * (4 - 2))
    same = classify_triple(f, SubsetTriple(a=(1, 2), b=(1, 2), s=5))
    assert same.verdict == MarginClass.TIE


def test_classification_is_affine_invariant():
    base = lambda q: -float(len(q) ** 2)
    shifted = lambda q: 3.0 * base(q) + 17.0
    flipped = lambda q: -2.0 * base(q)
    t = SubsetTriple(a=(1,), b=(1, 2, 3), s=6)
    assert classify_triple(shifted, t).verdict == MarginClass.SUBMODULAR
    assert classify_triple(flipped, t).verdict == MarginClass.SUPERMODULAR


def test_record_carries_all_four_evaluations():
    f = lambda q: float(sum(q))
    t = SubsetTriple(a=(1, 2), b=(1, 2, 4), s=7)
    r = classify_triple(f, t)
    assert (r.f_a, r.f_a_s, r.f_b, r.f_b_s) == (3.0, 10.0, 7.0, 14.0)
    assert r.lhs == r.rhs == 7.0
    assert r.verdict == MarginClass.TIE
    d = r.to_dict()
    assert d["a"] == [1, 2] and d["s"] == 7 and d["verdict"] == "tie"


def test_audit_reference_counts_both_orientations(ieee14):
    improving = audit(ieee14, metric_function(ieee14, gain=True), NU, 12, 13)
    assert (improving.total, improving.submodular, improving.supermodular) == (90, 78, 12)
    assert improving.ties == 0
    # the raw minimize-sense score mirrors the classes
    raw = audit(ieee14, metric_function(ieee14), NU, 12, 13)
    assert (raw.submodular, raw.supermodular) == (12, 78)


def test_audit_counterexamples_are_capped_and_sorted(ieee14):
    f = metric_function(ieee14, gain=True)
    tally = audit(ieee14, f, NU, 12, 13)
    assert len(tally.counterexamples) == 12
    keys = [r.triple.sort_key() for r in tally.counterexamples]
    assert keys == sorted(keys)
    for r in tally.counterexamples:
        assert r.verdict == MarginClass.SUPERMODULAR
        assert r.margin <= -1e-9
    capped = audit(ieee14, f, NU, 12, 13, counterexample_cap=5)
    assert len(capped.counterexamples) == 5
    assert capped.counterexamples == tally.counterexamples[:5]


def test_sliced_audits_merge_to_the_serial_tally(ieee14):
    f = metric_function(ieee14, gain=True)
    # |B| = 13 leaves one probe per (A, B) block and |B| = 11 three, so the
    # cuts at 31 and 62 fall inside a block
    for a_size, b_size, cuts in ((12, 13, (30, 60)), (10, 11, (31, 62))):
        whole = audit(ieee14, f, NU, a_size, b_size)
        bounds = (0, *cuts, None)
        parts = []
        for lo, hi in zip(bounds, bounds[1:]):
            part = audit(ieee14, f, NU, a_size, b_size, start=lo, stop=hi)
            ref = _reference_audit(ieee14, f, NU, a_size, b_size, 1e-9, 100, lo, hi)
            assert part.to_dict() == ref.to_dict()
            parts.append(part)
        assert sum(p.total for p in parts) == whole.total
        assert merge_tallies(parts).to_dict() == whole.to_dict()
    with pytest.raises(ValueError):
        merge_tallies([])
    with pytest.raises(ValueError, match="counterexample_cap must be a nonnegative integer, got -1"):
        merge_tallies(parts, counterexample_cap=-1)
    with pytest.raises(ValueError, match="counterexample_cap must be a nonnegative integer, got -1"):
        audit(ieee14, f, NU, 12, 13, counterexample_cap=-1)


def test_cardinality_metric_ties_everywhere(ieee14):
    tally = audit(ieee14, lambda q: float(len(q)), NU, 12, 13)
    assert (tally.total, tally.ties) == (90, 90)
    assert tally.counterexamples == ()


def test_audit_abort_preserves_partial_progress(ieee14):
    poison = frozenset(range(1, 14))  # B of the very first triple

    def metric(q):
        if q == poison:
            raise RuntimeError("boom")
        return float(len(q))

    with pytest.raises(AuditAbortedError) as err:
        audit(ieee14, metric, NU, 12, 13)
    assert err.value.processed == 0
    assert err.value.partial.total == 0
    assert isinstance(err.value.__cause__, MetricEvaluationError)
    assert err.value.__cause__.placement == poison


def test_progress_reports_final_count(ieee14):
    seen = []
    audit(ieee14, lambda q: 0.0, NU, 12, 13, progress=lambda done, planned: seen.append((done, planned)))
    assert seen == [(90, 90)]
    seen.clear()
    audit(ieee14, lambda q: 0.0, NU, 12, 13, start=10, stop=25, progress=lambda d, p: seen.append((d, p)))
    assert seen == [(15, 15)]
    # every 500 triples of the slice, then once at its end
    for stop, expected in ((1213, [(500, 1206), (1000, 1206), (1206, 1206)]),
                           (1007, [(500, 1000), (1000, 1000)])):
        seen.clear()
        audit(ieee14, lambda q: 0.0, (2, 6, 7), 9, 11, start=7, stop=stop,
              progress=lambda d, p: seen.append((d, p)))
        assert seen == expected


def test_tally_sum_check():
    with pytest.raises(ValueError, match="sum"):
        ClassificationTally(total=5, submodular=1, supermodular=1, ties=1, counterexamples=())


def test_monotone_checker(ieee14):
    score = metric_function(ieee14)
    chain = [NU, NU + (1,), NU + (1, 4), tuple(range(1, 15))]
    assert check_monotone(score, chain)
    assert not check_monotone(lambda q: float(len(q)), chain)
    with pytest.raises(ValueError, match="nested"):
        check_monotone(score, [(1, 2), (2, 3)])
    # a nan tolerance once read every chain as not monotone
    for bad in (float("nan"), True, -1.0):
        with pytest.raises(ValueError, match="tolerance must be nonnegative and finite"):
            check_monotone(score, chain, tol=bad)


# ---- differential check against the per-triple reference -------------------


def _reference_audit(case, metric, nu, a_size, b_size, tol, cap, start, stop,
                     progress=None, interval=submodularity.PROGRESS_INTERVAL):
    """The audit as one classify_triple per enumerated triple, with a
    frozenset cache: the definition the bitmask walk must reproduce.
    ``progress(done, planned)`` follows every ``interval`` triples and the
    last one."""
    cache = {}
    planned = len(range(count_combinations(
        len(case.bus_ids), len(set(nu)), a_size, b_size))[start:stop])

    def cached(placement):
        if placement not in cache:
            cache[placement] = float(metric(placement))
        return cache[placement]

    counts = {MarginClass.SUBMODULAR: 0, MarginClass.SUPERMODULAR: 0, MarginClass.TIE: 0}
    kept = []
    stream = enumerate_triples(case.bus_ids, nu, a_size, b_size)
    for triple in itertools.islice(stream, start, stop):
        try:
            record = classify_triple(cached, triple, tol=tol)
        except MetricEvaluationError as err:
            processed = sum(counts.values())
            partial = ClassificationTally(
                processed, counts[MarginClass.SUBMODULAR], counts[MarginClass.SUPERMODULAR],
                counts[MarginClass.TIE], tuple(kept),
            )
            raise AuditAbortedError(processed, partial) from err
        counts[record.verdict] += 1
        if record.verdict == MarginClass.SUPERMODULAR and len(kept) < cap:
            kept.append(record)
        done = sum(counts.values())
        if progress is not None and (done % interval == 0 or done == planned):
            progress(done, planned)
    return ClassificationTally(
        sum(counts.values()), counts[MarginClass.SUBMODULAR],
        counts[MarginClass.SUPERMODULAR], counts[MarginClass.TIE], tuple(kept),
    )


def _ids(metric, placement):
    """The ids of a placement the audit hands ``metric``: a frozenset as it
    is, a mask of the case's position bits decoded."""
    if type(placement) is int:
        return frozenset(metric.case.buses_in(placement))
    return placement


def _recording(metric, calls, poison=None):
    """Record each placement's ids and fail on ``poison``'s, passing the
    placement on unchanged, as a wrapper that shares f's tables must."""
    def f(placement):
        ids = _ids(metric, placement)
        calls.append(ids)
        if ids == poison:
            raise RuntimeError("poisoned placement")
        return metric(placement)

    return f


def _rows_agree_with_scores(metric, case):
    """Every stored row is its placement X's marginal row, read off the score
    table: f(X+s) - f(X) for each bus s outside X, in id order. Returns the
    number of rows."""
    for x, row in metric.margins.items():
        outside = [bit for bit in case.position_bits.values() if not bit & x]
        assert list(row) == outside
        assert x in metric.scores and all(x | s in metric.scores for s in outside)
        assert row == {s: metric.scores[x | s] - metric.scores[x] for s in outside}
    return len(metric.margins)


def _outcome(run):
    try:
        return run().to_dict()
    except AuditAbortedError as err:
        cause = err.__cause__
        assert isinstance(cause, MetricEvaluationError)
        return ("aborted", err.processed, err.partial.to_dict(), cause.triple,
                cause.placement, repr(cause.__cause__))


@st.composite
def small_cases(draw):
    """A connected case on a few scattered bus ids, listed out of order."""
    ids = draw(st.lists(st.integers(1, 60), min_size=2, max_size=9, unique=True))
    branches = [
        Branch(ids[draw(st.integers(0, i - 1))], ids[i], 0.0, 0.5) for i in range(1, len(ids))
    ]
    for u, v in itertools.combinations(ids, 2):
        if draw(st.integers(0, 3)) == 0:
            branches.append(Branch(u, v, 0.0, 0.25))
    return NetworkCase(name="random", buses=tuple(Bus(i) for i in ids), branches=tuple(branches))


IEEE14 = load_case("ieee14")


@st.composite
def audit_setups(draw):
    case = draw(st.one_of(st.just(IEEE14), small_cases()))
    ids = sorted(case.bus_ids)
    # at most eight free buses keep the reference loop to a few thousand triples
    nu_size = draw(st.integers(max(0, len(ids) - 8), len(ids) - 1))
    nu = draw(st.permutations(ids).map(lambda p: tuple(p[:nu_size])))
    a_size = draw(st.integers(nu_size, len(ids) - 1))
    b_size = draw(st.integers(a_size, len(ids) - 1))
    total = count_combinations(len(ids), nu_size, a_size, b_size)
    start = draw(st.integers(0, total + 2))
    stop = draw(st.one_of(st.none(), st.integers(0, total + 2)))
    return case, nu, a_size, b_size, start, stop


@settings(max_examples=150, deadline=None)
@given(
    audit_setups(),
    st.booleans(),
    st.sampled_from([0.0, 1e-9, 0.01, 0.1]),
    st.integers(0, 6),
    st.integers(1, 40),
    st.data(),
)
def test_audit_matches_the_per_triple_reference(setup, gain, tol, cap, interval, data):
    case, nu, a_size, b_size, start, stop = setup
    metric = metric_function(case, gain=gain, channel_limit=64)
    args = (nu, a_size, b_size, tol, cap, start, stop)

    def runs(poison=None):
        ref_calls, calls, ref_points, points = [], [], [], []
        expected = _outcome(lambda: _reference_audit(
            case, _recording(metric, ref_calls, poison), *args,
            progress=lambda *point: ref_points.append(point), interval=interval))
        recorded = _recording(metric, calls, poison)
        recorded.scores, recorded.margins, recorded.case = {}, {}, case  # tables the runs share

        def run():
            calls.clear()
            points.clear()
            # a short interval puts several progress points inside a drawn slice
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(submodularity, "PROGRESS_INTERVAL", interval)
                got = _outcome(lambda: audit(
                    case, recorded, nu, a_size, b_size, tol=tol, counterexample_cap=cap,
                    start=start, stop=stop, progress=lambda *point: points.append(point)))
            assert got == expected
            assert points == ref_points

        run()
        # the same placements, once each, in classify_triple's lazy order
        assert calls == ref_calls
        assert len(set(calls)) == len(calls)
        scored = list(calls)
        # again over the warm table, where blocks whose values are all scored
        # tally from rows; a failing placement was never stored, so it fails again
        run()
        failed = [expected[4]] if isinstance(expected, tuple) else []  # the aborting placement
        assert calls == failed
        # a third time, where each A whose row the second run stored reads the
        # buses outside it off that row
        run()
        assert calls == failed
        _rows_agree_with_scores(recorded, case)
        # again over fresh tables that two audits of another size pair warmed,
        # so that the rows of the second were built under other A's and B's:
        # only the placements they did not score are scored, in the same order
        others = [(a, b) for a in range(len(nu), len(case.buses))
                  for b in range(a, len(case.buses)) if (a, b) != (a_size, b_size)]
        if others:
            recorded.scores, recorded.margins = {}, {}
            other = data.draw(st.sampled_from(others))
            calls.clear()
            for _ in range(2):
                _outcome(lambda: audit(case, recorded, nu, *other, tol=tol))
            bits = case.position_bits
            warmed = {p for p in calls if sum(map(bits.__getitem__, p)) in recorded.scores}
            run()
            assert calls == [p for p in ref_calls if p not in warmed]
            _rows_agree_with_scores(recorded, case)
        return scored

    placements = runs()
    if placements:
        for poison in data.draw(st.lists(st.sampled_from(placements), max_size=4, unique=True)):
            runs(poison)


def test_audit_does_not_depend_on_the_listing_order(ieee14, ieee118):
    """The README audit, criterion 7 and an ieee14 audit at |A|=6, |B|=8 on
    each bundled case and on a copy listing its buses and branches in
    reverse, so that position bits no longer follow the ids: the same tally,
    records and metric calls, and the same again over the warm tables. The
    last audit decodes a missed placement from both sides: each A from its
    6 set bits and each B+s from its 5 clear bits."""
    cover = greedy_observable_cover(ieee118, channel_limit=8).buses
    for case, nu, a_size, b_size, limit in (
        (ieee14, NU, 12, 13, 8),
        (ieee118, cover, 116, 117, 16),
        (ieee14, NU, 6, 8, 8),
    ):
        flipped = NetworkCase(case.name, case.buses[::-1], case.branches[::-1])
        assert flipped.position_bits[min(case.bus_ids)] == 1 << (len(case.buses) - 1)
        runs = []
        for c in (case, flipped):
            calls, masks = [], []
            f = metric_function(c, gain=True, channel_limit=limit)
            recorded = _recording(f, calls)
            metric = functools.wraps(f)(lambda p: masks.append(p) or recorded(p))
            cold = audit(c, metric, nu, a_size, b_size).to_dict()
            # twice over the warm tables: the first run stores the rows, and the
            # second reads the buses outside each A off A's row
            warm = [audit(c, metric, nu, a_size, b_size).to_dict() for _ in range(2)]
            runs.append((cold, calls, warm))
            assert f.margins
            # f is handed each placement as a mask of c's position bits, undecoded
            assert all(type(p) is int for p in masks) and len(masks) == len(calls)
            assert {len(p) for p in calls} == {a_size, a_size + 1, b_size, b_size + 1}
            # and as a frozenset of c's ids when the metric does not share c
            opaque = []
            assert audit(c, _recording(f, opaque), nu, a_size, b_size).to_dict() == cold
            assert all(type(p) is frozenset for p in opaque) and opaque == calls
        assert runs[0] == runs[1]
        assert runs[0][0]["supermodular"] > 0 and runs[0][2] == [runs[0][0]] * 2


# ---- the score table one metric_function shares across audits --------------

SWEEP = tuple((a, b) for a in range(4, 14) for b in range(a, 14))


def test_sweep_at_the_tie_boundary_matches_the_reference(ieee14):
    """All 55 (|A|, |B|) pairs over NU through one metric, at tol 0, where a
    zero margin counts as submodular, and at 1e-9, where it is a tie."""
    f = metric_function(ieee14, gain=True)
    classes = {}
    for tol in (0.0, 1e-9):
        tally = [0, 0, 0]
        for a_size, b_size in SWEEP:
            got = audit(ieee14, f, NU, a_size, b_size, tol=tol)
            ref = _reference_audit(ieee14, f, NU, a_size, b_size, tol, 100, 0, None)
            assert got.to_dict() == ref.to_dict(), (tol, a_size, b_size)
            tally = [t + n for t, n in zip(tally, (got.submodular, got.supermodular, got.ties))]
        classes[tol] = tuple(tally)
    # 5,736 margins are exactly 0.0 and 94 more lie strictly inside the band
    assert classes == {0.0: (132_551, 64_279, 0), 1e-9: (126_815, 64_185, 5_830)}


def test_a_sweep_in_any_order_matches_the_reference(ieee14):
    """All 55 pairs through one metric in a shuffled order, so that rows are
    built under other pairs than in the ascending sweep: every tally and
    record is the reference's, each placement is scored once, and a second
    sweep over the warm tables stores a row for every placement but the
    whole bus set."""
    f = metric_function(ieee14, gain=True)
    calls = []

    @functools.wraps(f)
    def recorded(placement):
        calls.append(placement)
        return f(placement)

    pairs = list(SWEEP)
    random.Random(22).shuffle(pairs)
    tallies = []
    for a_size, b_size in pairs:
        got = audit(ieee14, recorded, NU, a_size, b_size)
        ref = _reference_audit(ieee14, f, NU, a_size, b_size, 1e-9, 100, 0, None)
        assert got.to_dict() == ref.to_dict(), (a_size, b_size)
        tallies.append(got)
    assert len(calls) == len(set(calls)) == len(f.scores) == 2**10
    assert _rows_agree_with_scores(f, ieee14) > 0
    assert [audit(ieee14, recorded, NU, *pair) for pair in pairs] == tallies
    assert len(calls) == 2**10
    assert _rows_agree_with_scores(f, ieee14) == 2**10 - 1


def test_a_cold_audit_stores_no_row(ieee14):
    """No A of an audit on a fresh metric is scored at its start, so no row
    is built, whole or sliced."""
    for a_size, b_size in SWEEP:
        f = metric_function(ieee14, gain=True)
        audit(ieee14, f, NU, a_size, b_size)
        assert f.margins == {} and f.scores
    f = metric_function(ieee14, gain=True)
    assert audit(ieee14, f, NU, 8, 10, start=1000, stop=3000).total == 2000
    assert f.margins == {} and f.scores


def test_one_metric_scores_each_placement_once_across_a_sweep(ieee14, monkeypatch):
    scored = []
    placement_metric = estimation.placement_metric
    monkeypatch.setattr(estimation, "placement_metric", lambda case, placement, **kw: (
        scored.append(placement.buses) or placement_metric(case, placement, **kw)))
    f = metric_function(ieee14, gain=True)
    for a_size, b_size in SWEEP:
        audit(ieee14, f, NU, a_size, b_size)
    # every superset of NU, once each
    assert len(scored) == len(set(scored)) == len(f.scores) == 2**10


def test_a_copy_of_the_case_never_reads_the_table(ieee14):
    f = metric_function(ieee14, gain=True)
    audit(ieee14, f, NU, 12, 13)
    poisoned = dict.fromkeys(f.scores, 0.0)  # every margin would tie
    f.scores.update(poisoned)
    for copy in (NetworkCase(ieee14.name, ieee14.buses, ieee14.branches),
                 NetworkCase(ieee14.name, ieee14.buses[::-1], ieee14.branches[::-1])):
        tally = audit(copy, f, NU, 12, 13)
        assert (tally.submodular, tally.supermodular, tally.ties) == (78, 12, 0)
        assert tally == audit(copy, metric_function(copy, gain=True), NU, 12, 13)
    assert f.scores == poisoned


def test_wraps_wrappers_share_the_table(ieee14):
    f = metric_function(ieee14, gain=True)
    calls = []

    @functools.wraps(f)
    def traced(*args, **kwargs):  # the shape of a tracing span
        calls.append(args[0])
        return f(*args, **kwargs)

    assert traced.scores is f.scores and traced.margins is f.margins
    assert traced.case is ieee14
    first = audit(ieee14, traced, NU, 10, 11)
    assert len(calls) == len(set(calls)) == len(f.scores) > 0 and f.margins == {}
    calls.clear()
    assert audit(ieee14, traced, NU, 10, 11) == first
    rows = dict(f.margins)  # the warm audit's rows
    assert _rows_agree_with_scores(f, ieee14) > 0
    assert audit(ieee14, f, NU, 12, 13) == audit(ieee14, traced, NU, 12, 13)
    assert calls == []  # every placement was already in the table
    assert rows.items() <= f.margins.items()


def test_a_metric_with_a_case_but_no_table_gets_one_per_call(ieee14):
    f = metric_function(ieee14, gain=True)
    calls = []

    def scored(placement):
        calls.append(placement)
        return f(placement)

    scored.case = ieee14
    assert audit(ieee14, scored, NU, 12, 13) == audit(ieee14, f, NU, 12, 13)
    assert len(calls) == len(set(calls)) > 0 and not hasattr(scored, "scores")


def test_a_metric_with_a_table_but_no_rows_gets_rows_per_call(ieee14):
    """A callable carrying ``scores`` and ``case`` but no ``margins`` shares
    its score table; each call builds its own rows, and matches the
    reference, cold and warm."""
    f = metric_function(ieee14, gain=True)
    calls = []

    def scored(placement):
        calls.append(placement)
        return f(placement)

    scored.scores, scored.case = {}, ieee14
    for a_size, b_size in ((10, 11), (10, 11), (9, 12), (10, 12), (9, 12)):
        got = audit(ieee14, scored, NU, a_size, b_size)
        ref = _reference_audit(ieee14, f, NU, a_size, b_size, 1e-9, 100, 0, None)
        assert got.to_dict() == ref.to_dict(), (a_size, b_size)
    assert len(calls) == len(set(calls)) == len(scored.scores)
    assert not hasattr(scored, "margins")


def test_a_failing_placement_is_never_cached(ieee14):
    f = metric_function(ieee14, gain=True)
    poison = frozenset(range(2, 14))  # an A of the README audit, met midway

    @functools.wraps(f)
    def poisoned(placement):
        if _ids(f, placement) == poison:
            raise RuntimeError("poisoned placement")
        return f(placement)

    args = (NU, 12, 13)
    expected = _outcome(lambda: _reference_audit(ieee14, poisoned, *args, 1e-9, 100, 0, None))
    assert expected[0] == "aborted" and expected[1] > 0
    for _ in range(2):  # the second run reads the first run's values
        assert _outcome(lambda: audit(ieee14, poisoned, *args)) == expected
    mask = sum(map(ieee14.position_bits.__getitem__, poison))
    assert mask not in f.scores
    # pairs around the poisoned placement, twice each, the second time over
    # rows: each aborts or not as the reference does, and no row holds it
    for a_size, b_size in ((11, 12), (12, 12), (11, 13), (13, 13)):
        expected = _outcome(lambda: _reference_audit(
            ieee14, poisoned, NU, a_size, b_size, 1e-9, 100, 0, None))
        for _ in range(2):
            assert _outcome(lambda: audit(ieee14, poisoned, NU, a_size, b_size)) == expected
    assert _rows_agree_with_scores(f, ieee14) > 0
    assert mask not in f.scores and mask not in f.margins


def test_audit_rejects_bad_arguments(ieee14):
    f = metric_function(ieee14, gain=True)
    with pytest.raises(ValueError, match=r"^nu buses not in the case: \[99\]$"):
        audit(ieee14, f, (2, 99), 12, 13)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            audit(ieee14, f, NU, 12, 13, tol=bad)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            classify_triple(f, SubsetTriple(a=(2, 6, 7, 9), b=(1, 2, 6, 7, 9), s=3), tol=bad)
    with pytest.raises(ValueError, match="nonnegative"):
        audit(ieee14, f, NU, 12, 13, start=-1)


@pytest.mark.parametrize("bad", [True, 2.0])
def test_audit_nu_ids_must_be_ints(ieee14, bad):
    """A bool or float id in nu is refused by value, before the metric runs:
    ``(True, 6, 7, 9)`` once audited 90 triples with bus 1 in nu, since a
    set holds True as 1."""
    calls = []
    metric = _recording(metric_function(ieee14, gain=True), calls)
    with pytest.raises(ValueError) as err:
        audit(ieee14, metric, (bad, 6, 7, 9), 12, 13)
    assert str(err.value) == f"nu bus ids must be integers, got {bad!r}"
    assert calls == []


@pytest.mark.parametrize("name", ["counterexample_cap", "start", "stop"])
@pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), True, -1, "3", 2.0])
def test_audit_counts_must_be_nonnegative_ints(ieee14, name, bad):
    """A cap, start or stop that is no int >= 0 is refused by name and value,
    before the metric runs: a float cap kept ceil(cap) records, a nan cap
    none, and a float stop cut the stream at an odd place."""
    calls = []
    metric = _recording(metric_function(ieee14, gain=True), calls)
    message = f"{name} must be a nonnegative integer, got {bad!r}"
    with pytest.raises(ValueError) as err:
        audit(ieee14, metric, NU, 12, 13, **{name: bad})
    assert str(err.value) == message
    assert calls == []


@pytest.mark.parametrize("name", ["a", "b"])
def test_audit_sizes_refuse_a_bool(ieee14, name):
    """A bool size is refused like a bool cap: ``a_size=True`` once audited
    156 triples as if it were 1."""
    calls = []
    metric = _recording(metric_function(ieee14, gain=True), calls)
    sizes = {"a": (True, 2), "b": (1, True)}[name]
    with pytest.raises(ValueError) as err:
        audit(ieee14, metric, (2,), *sizes)
    assert str(err.value) == f"{name} must be a nonnegative integer, got True"
    assert calls == []
    with pytest.raises(ValueError, match="a must be a nonnegative integer, got 2.0"):
        count_combinations(14, 4, 2.0, 5)


@pytest.mark.parametrize("bad", [True, False, "0", None])
def test_audit_tolerance_must_be_a_real_number(ieee14, bad):
    """A tolerance that is no number, or a bool, is refused by value before
    the metric runs: ``tol=True`` once tallied 90 ties, as ``tol=1`` does,
    where the default finds 78 submodular and 12 supermodular triples."""
    calls = []
    metric = _recording(metric_function(ieee14, gain=True), calls)
    message = f"tolerance must be nonnegative and finite, got {bad!r}"
    with pytest.raises(ValueError) as err:
        audit(ieee14, metric, NU, 12, 13, tol=bad)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        classify_triple(metric, SubsetTriple(a=(2, 6, 7, 9), b=(1, 2, 6, 7, 9), s=3), tol=bad)
    assert str(err.value) == message
    assert calls == []
    tally = audit(ieee14, metric, NU, 12, 13, tol=1)
    assert (tally.submodular, tally.supermodular, tally.ties) == (0, 0, 90)


@pytest.mark.parametrize("bad", [2.5, float("nan"), True, -1, None])
def test_merge_tallies_cap_must_be_a_nonnegative_int(ieee14, bad):
    part = audit(ieee14, metric_function(ieee14, gain=True), NU, 12, 13)
    with pytest.raises(ValueError) as err:
        merge_tallies([part], counterexample_cap=bad)
    assert str(err.value) == f"counterexample_cap must be a nonnegative integer, got {bad!r}"


# ---- kept records -------------------------------------------------------------


def test_records_are_frozen_hashable_and_slotted(ieee14):
    tally = audit(ieee14, metric_function(ieee14, gain=True), NU, 12, 13)
    record = tally.counterexamples[0]
    for obj, field in ((record, "margin"), (record.triple, "s")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, 0)
        # a name that is no field has no slot; CPython 3.10 and 3.11 refuse it
        # with a TypeError from the frozen class's __setattr__
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            obj.extra = 0
        assert not hasattr(obj, "__dict__") and not hasattr(obj, "extra")
    assert hash(record) == hash(dataclasses.replace(record)) and record == dataclasses.replace(record)
    assert len(set(tally.counterexamples + tally.counterexamples)) == 12
    assert repr(SubsetTriple((1,), (1, 2), 3)) == "SubsetTriple(a=(1,), b=(1, 2), s=3)"


def test_records_cross_a_pickle_unchanged(ieee14):
    """As the CLI's worker pool sends them: a capped tally comes back equal,
    and slices audited apart and pickled merge to the serial tally."""
    whole = audit(ieee14, metric_function(ieee14, gain=True), NU, 5, 9)
    # 6,300 triples, 2,885 of them supermodular: the default cap of 100 binds
    assert (whole.total, whole.supermodular, len(whole.counterexamples)) == (6300, 2885, 100)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(whole, protocol))
        assert copy == whole and copy.to_dict() == whole.to_dict()
        assert {type(r) for r in copy.counterexamples} == {MarginRecord}
    for workers in (2, 3):
        bounds = [whole.total * i // workers for i in range(workers + 1)]
        parts = [
            pickle.loads(pickle.dumps(audit(
                ieee14, metric_function(ieee14, gain=True), NU, 5, 9, start=lo, stop=hi)))
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert all(len(p.counterexamples) == 100 for p in parts)
        assert merge_tallies(parts) == whole


def _kept(run):
    """The records an audit or reference run keeps, and whether it aborted:
    an aborted run keeps those of its partial tally."""
    try:
        return run().counterexamples, False
    except AuditAbortedError as err:
        return err.partial.counterexamples, True


@settings(max_examples=200, deadline=None)
@given(audit_setups(), st.booleans(), st.sampled_from([0.0, 1e-9, 0.01]))
def test_kept_records_match_the_reference_at_every_cap(setup, gain, tol):
    """At caps 0, 1, n - 1, n and 10**6, n the slice's supermodular count,
    an audit over cold tables and one over a warm table keep the
    reference's records, field by field, and each triple is the one the
    public constructor builds, with all four of its checks."""
    case, nu, a_size, b_size, start, stop = setup
    args = (nu, a_size, b_size, tol)
    f = metric_function(case, gain=gain, channel_limit=64)
    everything, _ = _kept(lambda: _reference_audit(case, f, *args, 10**6, start, stop))
    n = len(everything)
    warm = metric_function(case, gain=gain, channel_limit=64)
    for _ in range(2):  # scores every placement it can, then stores the rows
        _kept(lambda: audit(case, warm, nu, a_size, b_size, tol=tol))
    for cap in sorted({0, 1, max(n - 1, 0), n, 10**6}):
        expected = _kept(lambda: _reference_audit(case, f, *args, cap, start, stop))
        assert expected[0] == everything[:cap]
        for metric in (metric_function(case, gain=gain, channel_limit=64), warm):
            got = _kept(lambda: audit(case, metric, nu, a_size, b_size, tol=tol,
                                      counterexample_cap=cap, start=start, stop=stop))
            assert got[1] == expected[1] and len(got[0]) == len(expected[0])
            for record, want in zip(got[0], expected[0]):
                assert type(record) is MarginRecord and type(record.triple) is SubsetTriple
                for field in dataclasses.fields(MarginRecord):
                    assert getattr(record, field.name) == getattr(want, field.name), field.name
                t = record.triple
                assert t == SubsetTriple(t.a, t.b, t.s)


def test_the_mask_builder_raises_subset_triples_errors(ieee14):
    """The builder checks nesting and the probe on the masks; a failed check
    raises the ValueError that SubsetTriple raises for the same ids. The
    memo decodes a mask once, on its first lookup, from its set bits or
    from its clear bits, to the sorted ids a walk of position_bits lists."""
    bits = ieee14.position_bits

    def mask(*ids):
        return sum(bits[bus] for bus in ids)

    def message(*triple):
        with pytest.raises(ValueError) as err:
            SubsetTriple(*triple)
        return f"^{re.escape(str(err.value))}$"

    memo = submodularity._SortedIds(ieee14)
    triple = submodularity._mask_triple(memo, mask(2, 6), mask(2, 6, 7), bits[9])
    assert triple == SubsetTriple((2, 6), (2, 6, 7), 9) and type(triple) is SubsetTriple
    assert dict(memo) == {mask(2, 6): (2, 6), mask(2, 6, 7): (2, 6, 7)}
    assert submodularity._mask_triple(memo, mask(2, 6), mask(2, 6, 7), bits[1]).a is triple.a
    # A is not a subset of B
    with pytest.raises(ValueError, match=message((2, 9), (2, 6, 7), 1)):
        submodularity._mask_triple(
            submodularity._SortedIds(ieee14), mask(2, 9), mask(2, 6, 7), bits[1])
    # the probe lies inside B
    with pytest.raises(ValueError, match=message((2,), (2, 7), 7)):
        submodularity._mask_triple(submodularity._SortedIds(ieee14), mask(2), mask(2, 7), bits[7])
    memo = submodularity._SortedIds(ieee14)
    for every in range(1 << len(bits)):
        assert memo[every] == tuple(sorted(bus for bus, bit in bits.items() if every & bit))
    assert len(memo) == 1 << len(bits)


@pytest.mark.parametrize("order", [(1, 2, 4, 3), (5, 1, 4, 2, 3), (9, 7, 30, 2, 11, 4)])
def test_the_mask_decode_is_sorted_in_any_bus_order(order):
    """A case that lists its buses out of id order decodes every mask, from
    either side, to the sorted ids a walk of position_bits lists, so no
    out-of-order tuple enters the memo or a triple; the audit's records
    over it are the public constructor's triples, in the stream's order."""
    case = NetworkCase("shuffled", tuple(Bus(i) for i in order),
                       tuple(Branch(u, v, 0.0, 0.5) for u, v in zip(order, order[1:])))
    memo = submodularity._SortedIds(case)
    bits = case.position_bits
    for mask in range(1 << len(order)):
        assert memo[mask] == tuple(sorted(bus for bus, bit in bits.items() if mask & bit))
    size = len(order)
    tally = audit(case, lambda q: float(len(q) ** 2), (), 1, size - 2)
    stream = enumerate_triples(order, (), 1, size - 2)
    assert [r.triple for r in tally.counterexamples] == list(stream)[:len(tally.counterexamples)]
    assert tally.supermodular == tally.total > 0
    for record in tally.counterexamples:
        t = record.triple
        assert type(t) is SubsetTriple and t == SubsetTriple(t.a, t.b, t.s)


class _NotedRows(dict):
    """A row table that notes every mask the audit asks it for."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def get(self, mask, default=None):
        self.asked.append(mask)
        return super().get(mask, default)


@pytest.mark.parametrize("a_size, b_size, inside", [(4, 6, "first"), (4, 7, "last")])
def test_a_cap_inside_a_row_tallied_block_keeps_the_prefix(ieee14, a_size, b_size, inside):
    """Over a warm table, caps of 1, n - 1 and n, n the supermodular count,
    keep the reference's first records; the cap of 1 (4, 6) or of n - 1
    (4, 7) falls between two records of one block tallied from rows."""
    f = metric_function(ieee14, gain=True)
    metric = functools.wraps(f)(lambda placement: f(placement))
    metric.margins = _NotedRows()
    for _ in range(2):  # score every placement, then store the rows
        full = audit(ieee14, metric, NU, a_size, b_size, counterexample_cap=10**6)
    n = full.supermodular
    records = _reference_audit(ieee14, f, NU, a_size, b_size, 1e-9, n, 0, None).counterexamples
    assert full.counterexamples == records and len(records) == n
    k = 1 if inside == "first" else n - 1
    kept, dropped = records[k - 1].triple, records[k].triple
    assert (kept.a, kept.b) == (dropped.a, dropped.b)
    block = sum(map(ieee14.position_bits.__getitem__, kept.b))
    for cap in (1, n - 1, n):
        metric.margins.asked.clear()
        tally = audit(ieee14, metric, NU, a_size, b_size, counterexample_cap=cap)
        assert tally.counterexamples == records[:cap]
        assert tally.supermodular == n
        # the block was tallied from B's row, which only the row path asks for
        assert block in metric.margins.asked and block in metric.margins
