"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/tests -q
"""

from array import array

import pytest

import cases
import run
import tracer


def test_interquartile_mean_drops_the_outer_quarters():
    assert run.interquartile_mean([3.0, 1.0, 2.0]) == 2.0
    assert run.interquartile_mean([1.0, 2.0, 4.0, 9.0]) == 3.0
    assert run.interquartile_mean([5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]) == 1.0


def test_self_time_subtracts_the_union_of_child_spans():
    # A [0, 10] has children B [1, 4] and C [3, 6], which overlap on [3, 4];
    # C has child D [4, 5]; E [8, 12] sticks out of A and only [8, 10] counts.
    start = array("d", [0, 1, 3, 4, 8])
    end = array("d", [10, 4, 6, 5, 12])
    parent = array("l", [-1, 0, 0, 2, 0])
    own = tracer.self_times(start, end, parent)
    assert own.tolist() == pytest.approx([10 - 5 - 2, 3, 2, 1, 4])


def _mix(ops: list) -> list:
    return [(c["kind"], c.get("n"), c.get("b"), c.get("blocks"), c.get("mode")) for c in ops]


@pytest.mark.parametrize("workload", sorted(cases.CASES))
def test_same_seed_gives_identical_inputs(workload):
    make = cases.CASES[workload]
    assert make(7, 0) == make(7, 0)
    assert make(8, 0) != make(7, 0)
    assert _mix(make(8, 0)) == _mix(make(7, 0))


@pytest.mark.parametrize("workload", ["score-float", "exact-attack"])
def test_every_round_draws_fresh_inputs_of_the_same_cost(workload):
    make = cases.CASES[workload]
    first, second = make(7, 0), make(7, 1)
    assert _mix(first) == _mix(second)
    costs = [_cost(c) for c in first]
    assert costs == [_cost(c) for c in second] == [_cost(c) for c in make(9, 4)]
    assert all(a != b for a, b in zip(first, second))


def _cost(case) -> tuple:
    """What sets a case's cost: sizes, law kind, code and check counts, split and event sizes."""
    law = case.get("hash")
    kind = None if law is None else ("uniform" if set(law[0]) == {1} else "witness" if law[1] == 2 else "other")
    splits = case.get("splits") or [case.get("split")]
    return (case["kind"], case.get("n"), case.get("b"), case.get("blocks"), case.get("uses"), kind,
            [len(rows) for rows in case.get("codes", [])], case.get("known") is None,
            [(s[0], None if s[2] is None else len(s[2])) for s in splits if s],
            len(case.get("event", [])), len(case.get("sub", [])))


def test_a_wrong_output_is_counted_as_failed(monkeypatch):
    import keysec

    case = cases.score_float_cases(1, 0)[0]
    failures = []
    run.run_op(cases, case, failures)
    assert failures == []
    real = keysec.statistical_distance
    monkeypatch.setattr(keysec, "statistical_distance", lambda p, q: real(p, q) + 1e-6)
    run.run_op(cases, case, failures)
    assert len(failures) == 1 and "distance to uniform" in failures[0]


def test_an_error_is_counted_as_failed(monkeypatch):
    import keysec

    def broken(*args, **kwargs):
        raise keysec.ValidationError("injected")

    monkeypatch.setattr(keysec, "entropy_stats", broken)
    failures = []
    run.run_op(cases, cases.score_float_cases(1, 0)[0], failures)
    assert len(failures) == 1 and "injected" in failures[0]


def test_the_worker_times_calls_and_the_parent_checks_them():
    ops = cases.exact_attack_cases(2, 0)[:3] + cases.score_float_cases(2, 0)[:2]
    with run.Worker() as wk:
        results = wk.run(ops)
        kib = wk.close()
    assert kib["self"] > 0
    failures = []
    for case, result in zip(ops, results):
        assert result[0] > 0 and result[2] is None and result[3] > 0  # scaled and raw CPU latency
        run.check_op(cases, case, result, failures)
    assert failures == []
    # the output of one case is wrong for another of the same kind and size
    run.check_op(cases, ops[-1], results[-2], failures)
    assert len(failures) == 1 and failures[0].startswith("score n=6")


def _traced(ops: list) -> tracer.Tracer:
    tr = tracer.Tracer()
    failures = []
    tr.install()
    try:
        run.run_round(cases, ops, failures, tracer=tr)
    finally:
        tr.uninstall()
    assert failures == []
    return tr


def test_traced_counts_repeat_exactly():
    ops = cases.exact_attack_cases(5, 0)
    first, second = _traced(ops), _traced(ops)
    one, two = first.summary(), second.summary()
    for name in ("mac.hash_value_calls", "dist.entries_built", "mac.calls", "ecpa.calls"):
        assert one[name] == two[name] > 0
    assert one["mac.self_s"] > 0 and one["verify.calls"] == 0
    assert set(first.op) == set(range(len(ops)))


def test_uninstall_restores_every_function():
    import keysec
    import keysec.dist

    before = (keysec.statistical_distance, keysec.dist.KeyDistribution.__dict__["__init__"],
              keysec.dist.KeyDistribution.__dict__["from_json"])
    tr = tracer.Tracer()
    tr.install()
    assert keysec.statistical_distance is not before[0]
    tr.uninstall()
    after = (keysec.statistical_distance, keysec.dist.KeyDistribution.__dict__["__init__"],
             keysec.dist.KeyDistribution.__dict__["from_json"])
    assert after == before


def test_calls_across_modules_become_child_spans():
    import keysec

    tr = tracer.Tracer()
    p, split = keysec.KeyDistribution.uniform(4), keysec.KeySplit(2, 2)
    tr.install()
    try:
        keysec.average_conditional_guess(p, split)
    finally:
        tr.uninstall()
    names = [tr.names[i] for i in tr.name]
    assert names[0] == "kpa.average_conditional_guess" and tr.parent[0] == -1
    assert "dist.statistical_distance" in names
    assert all(tr.parent[i] == 0 for i in range(1, len(names)) if names[i].startswith("dist."))
