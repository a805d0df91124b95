"""Tests of the benchmark itself: inputs, tracer and output checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import random
import sys
from itertools import islice
from pathlib import Path

import coverslide
from coverslide import homology, mover

import inputs
import run
import workloads
from tracer import PER_LAYER_UNITS, REQUEST, Tracer


def _cycles(workload, seed, count=3):
    return list(islice(inputs.request_stream(workload, seed), count))


def test_same_seed_same_inputs():
    for workload in inputs.WORKLOADS:
        assert _cycles(workload, 7) == _cycles(workload, 7)
        assert _cycles(workload, 7) != _cycles(workload, 8)


def test_classes_are_nonzero_and_passed_with_equals_sign():
    for workload in inputs.WORKLOADS:
        for cyc in _cycles(workload, 3, count=20):
            for req in cyc:
                if req.argv[:1] == ("verify-cw",):
                    continue
                assert len(req.vector) == inputs.h1_rank(req.group, req.n)
                assert any(req.vector)
                if req.argv:
                    assert req.argv[-1] == "--vector=" + inputs.vector_csv(req.vector)


def test_verify_cw_images_generate_the_group():
    for cyc in _cycles("cli", 5, count=10):
        for req in cyc:
            if req.argv[:1] != ("verify-cw",):
                continue
            G = coverslide.builtin_group_from_string(req.group)
            assert len(req.images) == req.n
            assert len(coverslide.subgroup_generated(G, req.images)) == G.order


def _orbit_rank_request():
    # the dihedral:32 move request of the first cli cycle
    return next(r for r in _cycles("cli", 1, count=1)[0] if r.label == "dihedral:32 n=3")


def test_rebinding_reaches_by_name_imports():
    req = _orbit_rank_request()
    runner = workloads.make("cli")
    code = homology.orbit_rank_of_chain.__code__
    direct = 0

    def count_calls(frame, event, arg):
        nonlocal direct
        if event == "call" and frame.f_code is code:
            direct += 1

    sys.setprofile(count_calls)
    try:
        assert runner.execute(req).status == 0
    finally:
        sys.setprofile(None)

    original = mover.orbit_rank_of_chain
    tracer = Tracer()
    with tracer.span(REQUEST, 1):
        assert mover.orbit_rank_of_chain is not original
        outcome = runner.execute(req)
    assert mover.orbit_rank_of_chain is original
    assert runner.check(req, outcome) is None
    metrics = tracer.layer_metrics(overhead_ratio=1.0)
    assert direct > 0
    assert metrics["homology.orbit_rank_calls"] == direct
    assert metrics["mover.candidates"] >= 1
    assert set(metrics) == set(PER_LAYER_UNITS)


def test_self_times_sum_to_the_request_span():
    req = _orbit_rank_request()
    runner = workloads.make("cli")
    tracer = Tracer()
    for k in (1, 2):
        with tracer.span(REQUEST, k):
            runner.execute(req)
    own = tracer.self_times()
    durations = tracer.durations()
    request_nid = tracer.names.index(REQUEST)
    for k in (1, 2):
        spans = [i for i in range(len(own)) if tracer.request[i] == k]
        (root,) = [i for i in spans if tracer.name[i] == request_nid]
        assert len(spans) > 10
        assert sum(own[i] for i in spans) == durations[root]
        assert all(own[i] >= 0 for i in spans)


def test_move_check_rejects_a_tampered_certificate():
    req = _orbit_rank_request()
    runner = workloads.make("cli")
    outcome = runner.execute(req)
    assert runner.check(req, outcome) is None
    data = json.loads(outcome.output)
    data["increment"][0] = str(int(data["increment"][0]) + 1)
    outcome.output = json.dumps(data)
    assert runner.check(req, outcome) is not None


def test_verify_cw_check_wants_the_known_dimensions():
    req = inputs.Request(group="elementary_abelian:2,4", n=5)
    chars = [[1] * 16] + [[1, -1] * 8] * 15  # only the first must be trivial
    good = {"verdict": True, "isotypic": {"characters": chars, "dims": [5] + [4] * 15}}
    assert workloads.check_verify_cw(req, good) is None
    bad = json.loads(json.dumps(good))
    bad["isotypic"]["dims"][3] = 5
    assert workloads.check_verify_cw(req, bad) is not None
    short = json.loads(json.dumps(good))
    del short["isotypic"]["characters"][1:], short["isotypic"]["dims"][1:]
    assert workloads.check_verify_cw(req, short) is not None
    assert workloads.check_verify_cw(req, dict(good, verdict=False)) is not None


def test_batch_request_verifies_and_uses_the_cache():
    runner = workloads.make("move-batch")
    runner.setup()
    for req in _cycles("move-batch", 2, count=2)[0] + _cycles("move-batch", 2, count=2)[1]:
        outcome = runner.execute(req)
        assert runner.check(req, outcome) is None
        assert json.loads(outcome.output)["cover"]["group_order"] == 24
    assert runner.loop_cache


def test_tail_has_ten_samples_beyond_it():
    xs = [float(x) for x in range(40)]
    random.Random(0).shuffle(xs)
    pct, value = run.tail(xs)
    assert sum(x > value for x in xs) == run.TAIL_BEYOND
    assert pct == 75.0


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
