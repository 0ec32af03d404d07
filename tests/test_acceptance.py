"""Gate suite: one test per numbered acceptance criterion.

Each test name carries its criterion number; the conftest hook turns the
results into one PASS/FAIL line per criterion at the end of the run.
Criteria 1 and 4 assert their reference tables verbatim and are expected
to fail: the exact computations disagree with those tables, the deviations
are reproduced deterministically, and the tests are marked strict-xfail so
any drift in either direction still trips the gate.
"""

import dataclasses
import functools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from pmuplan.estimation import StateScope, metric_function
from pmuplan.knapsack import budget_sweep, example_instance
from pmuplan.linalg import (
    CovarianceModel,
    build_jacobian,
    enumerate_channels,
    projection_matrix,
    sensitivity_matrix,
    sensitivity_report,
    wls_estimate,
)
from pmuplan.measurements import PmuPlacement, greedy_observable_cover
from pmuplan.network import Branch, Bus, NetworkCase
from pmuplan.planner import compare_plans
from pmuplan.submodularity import (
    MarginClass,
    MarginRecord,
    SubsetTriple,
    audit,
    classify_triple,
    count_combinations,
    enumerate_triples,
)

NU14 = (2, 6, 7, 9)


@pytest.mark.xfail(
    strict=True,
    reason="the documented six-row sweep omits one regime: on budgets in "
    "[5, 6) the pair x2+x3 (value 9) beats x1 alone (value 7), so the exact "
    "table has seven rows and the asserted [4, 6) row cannot hold",
)
def test_criterion_1_exhaustive_knapsack_table():
    t0 = time.perf_counter()
    table = budget_sweep(example_instance(), "optimal")
    assert time.perf_counter() - t0 < 1.0
    got = [(r.lo, r.hi, set(r.items), r.objective) for r in table.rows]
    assert got == [
        (0.0, 2.0, set(), 0.0),
        (2.0, 4.0, {1}, 5.0),
        (4.0, 6.0, {0}, 7.0),
        (6.0, 9.0, {0, 1}, 12.0),
        (9.0, 15.0, {0, 1, 2}, 16.0),
        (15.0, math.inf, {0, 1, 2, 3}, 17.0),
    ]


def test_criterion_2_greedy_knapsack_table():
    t0 = time.perf_counter()
    table = budget_sweep(example_instance(), "greedy")
    assert time.perf_counter() - t0 < 1.0
    got = [(r.lo, r.hi, r.items, r.objective) for r in table.rows]
    assert got == [
        (0.0, 2.0, (), 0.0),
        (2.0, 5.0, (1,), 5.0),
        (5.0, 9.0, (1, 2), 9.0),
        (9.0, 15.0, (1, 2, 0), 16.0),
        (15.0, math.inf, (1, 2, 0, 3), 17.0),
    ]


def test_criterion_3_sensitivity_rows(ieee14):
    rows = {
        NU14: (28.0, 0.7777),
        (1,) + NU14: (30.0, 0.7499),
        (2, 3, 6, 7, 9): (30.0, 0.7499),
        (2, 4, 6, 7, 9): (32.0, 0.7619),
        (2, 5, 6, 7, 9): (32.0, 0.7619),
        NU14 + (10,): (30.0, 0.7500),
        NU14 + (14,): (30.0, 0.7499),
        NU14 + (10, 14): (32.0, 0.7272),
    }
    for buses, (want_sum, want_avg) in rows.items():
        placement = PmuPlacement.of(buses)
        report = sensitivity_report(ieee14, placement, scope=StateScope.PMU)
        assert report.sum == pytest.approx(want_sum, abs=1e-3)
        assert report.average == pytest.approx(want_avg, abs=1e-3)
        assert report.min <= report.average <= report.max
        mset = enumerate_channels(ieee14, placement)
        H = build_jacobian(ieee14, mset, scope=StateScope.PMU)
        S = sensitivity_matrix(H, CovarianceModel.unit(H.m))
        assert np.trace(S) == pytest.approx(H.m - 2 * len(buses), abs=1e-6)


@pytest.mark.xfail(
    strict=True,
    reason="every stage of the reference run lands inside an exact metric "
    "tie, and its recorded choices contradict the documented lowest-id and "
    "lexicographic tie rules (stage 2 appends 14, not 1); with the "
    "deterministic rules the greedy order is 8,1,3,4,5,10,11,12,13,14, "
    "stage 4 scores 0.6800 and greedy is strictly worse at stages 3, 4, 6",
)
def test_criterion_4_ten_stage_comparison(ieee14):
    t0 = time.perf_counter()
    cmp = compare_plans(ieee14, NU14, metric_function(ieee14), stages=10)
    assert time.perf_counter() - t0 < 30.0
    budget_values = (
        0.7368, 0.7143, 0.6818, 0.6667, 0.6538,
        0.6296, 0.6207, 0.6129, 0.6061, 0.5882,
    )
    greedy_values = (
        0.7368, 0.7143, 0.6957, 0.6667, 0.6538,
        0.6429, 0.6207, 0.6129, 0.6061, 0.5882,
    )
    budget_sets = (
        {8}, {8, 14}, {8, 10, 11}, {1, 8, 10, 11}, {1, 8, 10, 11, 14},
        {8, 10, 11, 12, 13, 14}, {1, 8, 10, 11, 12, 13, 14},
        {1, 5, 8, 10, 11, 12, 13, 14}, {1, 3, 4, 8, 10, 11, 12, 13, 14},
        {1, 3, 4, 5, 8, 10, 11, 12, 13, 14},
    )
    for row, bval, gval, bset in zip(cmp.rows, budget_values, greedy_values, budget_sets):
        assert row.budget.metric_value == pytest.approx(bval, abs=1e-3)
        assert row.greedy.metric_value == pytest.approx(gval, abs=1e-3)
        assert set(row.budget.selected) == bset
    assert cmp.greedy_order == (8, 14, 11, 10, 1, 13, 12, 5, 3, 4)
    assert cmp.strictly_worse_stages == (3, 6)


def test_criterion_5_small_audit_tally(ieee14):
    t0 = time.perf_counter()
    tally = audit(ieee14, metric_function(ieee14, gain=True), NU14, 12, 13)
    assert time.perf_counter() - t0 < 10.0
    assert tally.total == 90
    assert tally.submodular == 78
    assert tally.supermodular == 12
    assert tally.ties == 0


def test_criterion_6_combination_counts():
    assert count_combinations(14, 4, 12, 13) == 90
    assert count_combinations(118, 37, 116, 117) == 6480
    rng = random.Random(20260814)
    for _ in range(30):
        omega = rng.randint(1, 10)
        nu = rng.randint(0, omega - 1)
        a = rng.randint(nu, omega - 1)
        b = rng.randint(a, omega - 1)
        stream = enumerate_triples(range(1, omega + 1), range(1, nu + 1), a, b)
        assert sum(1 for _ in stream) == count_combinations(omega, nu, a, b)


def test_criterion_7_large_audit_completes(ieee118):
    cover = greedy_observable_cover(ieee118, channel_limit=8)
    assert len(cover) == 37
    metric = metric_function(ieee118, gain=True, channel_limit=16)
    t0 = time.perf_counter()
    tally = audit(ieee118, metric, cover.buses, 116, 117)
    assert time.perf_counter() - t0 < 300.0
    assert (tally.total, tally.submodular, tally.supermodular, tally.ties) == (6480, 6390, 90, 0)
    _assert_first_counterexamples(ieee118, tally, [
        (115, [114, 115], [115]),
        (114, [114, 115], [114]),
        (109, [108, 109], [109]),
    ])
    # all 90 records, field by field, are classify_triple's records of the
    # supermodular triples of the stream, in its order: their A and B hold
    # 116 and 117 of the 118 buses, so each is decoded from its clear bits
    stream = enumerate_triples(ieee118.bus_ids, cover.buses, 116, 117)
    expected = [r for r in map(functools.partial(classify_triple, metric), stream)
                if r.verdict is MarginClass.SUPERMODULAR]
    assert len(expected) == len(tally.counterexamples) == 90
    for record, want in zip(tally.counterexamples, expected):
        assert type(record) is MarginRecord and type(record.triple) is SubsetTriple
        for field in dataclasses.fields(MarginRecord):
            assert getattr(record, field.name) == getattr(want, field.name), field.name


def test_dense_118_audit_is_pinned(ieee118):
    # every |A| = 115 placement over the 37-bus cover: 85,320 sets A, each
    # with three B and two probes per B
    cover = greedy_observable_cover(ieee118, channel_limit=8)
    metric = metric_function(ieee118, gain=True, channel_limit=16)
    tally = audit(ieee118, metric, cover.buses, 115, 116)
    assert (tally.total, tally.submodular, tally.supermodular, tally.ties) == (
        511920, 504808, 7112, 0)
    _assert_first_counterexamples(ieee118, tally, [
        (115, [114, 115, 118], [115, 118]),
        (114, [114, 115, 118], [114, 118]),
        (115, [114, 115, 117], [115, 117]),
    ])


def _gain(case, buses):
    """The audited gain -br(Q) / (|Q| + br(Q)) from the README closed form,
    correctly rounded; br(Q) counts the lines with an end in Q."""
    q = set(buses)
    br = sum(1 for b in case.branches if b.from_bus in q or b.to_bus in q)
    return -float(Fraction(br, len(q) + br))


def _assert_first_counterexamples(case, tally, expected):
    """The first records as (s, buses outside A, buses outside B), and each
    of their four values exactly the closed form's."""
    omega = set(case.bus_ids)
    first = tally.counterexamples[: len(expected)]
    got = [(r.triple.s, sorted(omega - r.triple.a_set), sorted(omega - r.triple.b_set))
           for r in first]
    assert got == expected
    for r in first:
        a, b, s = r.triple.a, r.triple.b, r.triple.s
        assert (r.f_a, r.f_a_s, r.f_b, r.f_b_s) == (
            _gain(case, a), _gain(case, a + (s,)), _gain(case, b), _gain(case, b + (s,)))


def _identity_checks(case, placement, scope, rng):
    mset = enumerate_channels(case, placement)
    H = build_jacobian(case, mset, scope=scope)
    R = CovarianceModel.for_channels(mset, sigma_v=0.7, sigma_i=1.9)
    K = projection_matrix(H, R)
    S = sensitivity_matrix(H, R)
    assert np.max(np.abs(K @ K - K)) <= 1e-8
    assert np.max(np.abs(S @ H.matrix)) <= 1e-8
    rank = round(H.m - np.trace(S))
    assert np.trace(S) == pytest.approx(H.m - rank, abs=1e-6)
    if scope == StateScope.PMU:
        assert rank == 2 * len(placement)
    scaled = CovarianceModel(tuple(3.5 * v for v in R.variances))
    assert np.max(np.abs(K - projection_matrix(H, scaled))) <= 1e-10
    if scope == StateScope.FULL:
        x = rng.normal(size=H.n)
        got = wls_estimate(H, R, H.matrix @ x)
        assert np.linalg.norm(got - x) <= 1e-9 * np.linalg.norm(x)


def test_criterion_8_linear_algebra_identities(ieee14, ieee118):
    rng = np.random.default_rng(14118)
    checked = 0
    for case, top in ((ieee14, 14), (ieee118, 118)):
        for _ in range(15):
            size = int(rng.integers(1, 11 if top == 118 else 15))
            buses = rng.choice(top, size=size, replace=False) + 1
            placement = PmuPlacement.of(buses.tolist(), channel_limit=16)
            _identity_checks(case, placement, StateScope.PMU, rng)
            checked += 1
    anchors = {
        14: (ieee14, NU14),
        118: (ieee118, greedy_observable_cover(ieee118, channel_limit=8).buses),
    }
    for top, (case, core) in anchors.items():
        for _ in range(10):
            extras = rng.choice(top, size=int(rng.integers(0, 6)), replace=False) + 1
            placement = PmuPlacement.of(set(core) | set(extras.tolist()), channel_limit=16)
            _identity_checks(case, placement, StateScope.FULL, rng)
            checked += 1
    assert checked >= 50


def _random_connected_case(rng, n):
    branches = []
    for i in range(2, n + 1):
        branches.append(Branch(rng.randint(1, i - 1), i, 0.0, rng.uniform(0.05, 1.0)))
    existing = {(min(b.from_bus, b.to_bus), max(b.from_bus, b.to_bus)) for b in branches}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in existing and rng.random() < 0.25:
                branches.append(Branch(u, v, 0.0, rng.uniform(0.05, 1.0)))
    return NetworkCase(
        name=f"random{n}",
        buses=tuple(Bus(i) for i in range(1, n + 1)),
        branches=tuple(branches),
    )


def _hash_metric(seed):
    def f(q):
        acc = seed
        for x in sorted(q):
            acc = (acc * 1103515245 + 12345 + x * 2654435761) % (1 << 31)
        return acc / float(1 << 31)

    return f


def test_criterion_9_planner_dominance():
    rng = random.Random(20260814)
    for trial in range(200):
        synthetic = trial < 150
        n = rng.randint(3, 10 if synthetic else 8)
        case = _random_connected_case(rng, n)
        nu_size = rng.randint(0 if synthetic else 1, n - 2)
        nu = tuple(sorted(rng.sample(range(1, n + 1), nu_size)))
        if synthetic:
            metric = _hash_metric(rng.randrange(1 << 31))
        else:
            metric = metric_function(case, channel_limit=32)
        stages = n - nu_size
        cmp = compare_plans(case, nu, metric, stages=stages)
        for row in cmp.rows:
            assert row.budget.metric_value <= row.greedy.metric_value + 1e-12
        last = cmp.rows[-1]
        assert last.budget.selected == last.greedy.selected
        assert last.budget.metric_value == pytest.approx(
            last.greedy.metric_value, abs=1e-12
        )
