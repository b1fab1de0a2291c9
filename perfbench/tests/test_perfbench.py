"""Tests of the benchmark's own machinery.

Run with: python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
from collections import defaultdict

import pytest

import gen
import stats
import tracer
import worker
import workloads
from toruscert import certify, classmaps, farey, serialize
from toruscert.farey import FareyPath
from toruscert.slopes import Slope

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- generator --------------------------------------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = [gen.make_round(workload, 7, i) for i in range(2)]
    again = [gen.make_round(workload, 7, i) for i in range(2)]
    other = [gen.make_round(workload, 8, i) for i in range(2)]
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)


def test_rounds_keep_their_mix_across_seeds():
    for seed in (1, 2):
        kinds = [op["kind"] for op in gen.make_round("curves", seed, 3)]
        assert kinds.count("geodesic") == len(gen.GEODESIC_CF_SUMS)
        assert kinds.count("normal") == len(gen.NORMAL_CROSSINGS) + gen.NORMAL_REPEATS
        assert kinds.count("distance") == (
            len(gen.DISTANCE_HEIGHT_BITS) * gen.DISTANCE_PER_HEIGHT + gen.DISTANCE_REPEATS
        )


def test_normal_pairs_meet_in_the_requested_number_of_points():
    import random

    rng = random.Random(3)
    for n in gen.NORMAL_CROSSINGS:
        x, y = gen.normal_pair(rng, n)
        sx = workloads.normal.decompose(workloads.normal.NormalCoordinates(*x)).essential_slope
        sy = workloads.normal.decompose(workloads.normal.NormalCoordinates(*y)).essential_slope
        assert abs(sx.p * sy.q - sx.q * sy.p) == n


def test_full_scan_classes_have_no_displacement_below_two():
    import random

    rng = random.Random(5)
    for integral in (True, False):
        gluing = gen.random_sl2z(rng, 5)
        cm = classmaps.classmap_from_json(gen.full_scan_record(rng, gluing, integral))
        phi = serialize.matrix_from_json(gen.matrix_json(gluing), integral=True)
        result = certify.map_distance(workloads.compose(phi, cm.phi), 20)
        assert result.lower_bound == 1
        assert result.empirical_min_displacement >= 2


# --- failures are counted ---------------------------------------------------

def _certificate():
    raw = gen.make_round("certify", 1, 0)[0]
    op = workloads.Certify().prepare(raw)
    return op, certify.c_distance(op["gluing"], op["classes"][:2], 20)


def test_valid_certificate_passes():
    op, cert = _certificate()
    workloads.check_certificate(cert, 20, defaultdict(int))


def test_tampered_certificate_is_a_failure():
    _, cert = _certificate()
    cm, result = cert.per_class[0]
    bad = dataclasses.replace(result, empirical_min_displacement=result.empirical_min_displacement + 1)
    tampered = dataclasses.replace(cert, per_class=((cm, bad),) + cert.per_class[1:])
    with pytest.raises(workloads.CheckFailed):
        workloads.check_certificate(tampered, 20, defaultdict(int))


def test_tampered_report_fails_verification_and_counts():
    _, cert = _certificate()
    data = certify.certificate_to_json(cert)
    data["per_class"][0]["result"]["empirical_witness"] = "7/3"
    results = [json.dumps(data).encode()]
    _, _, error = worker.attempt(workloads.Certify(), {"kind": "verify", "of": 0}, results, defaultdict(int))
    assert isinstance(error, workloads.CheckFailed)


def test_tampered_geodesic_is_a_failure():
    s, t = Slope(1, 0), Slope(5, 13)
    path = farey.geodesic(s, t)
    workloads.check_geodesic(path, s, t)
    verts = list(path.vertices)
    verts[1] = Slope(verts[1].p + 1, verts[1].q)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_geodesic(FareyPath(tuple(verts)), s, t)


def test_an_exception_in_an_operation_is_a_failure():
    class Broken:
        def execute(self, op, results):
            raise RuntimeError("boom")

        def check(self, op, value, props):
            raise AssertionError("never checked")

    results = []
    _, out, error = worker.attempt(Broken(), {"kind": "x"}, results, {})
    assert isinstance(error, RuntimeError) and out == b"" and len(results) == 1


def test_bfs_oracle_agrees_with_the_library():
    for s, t in ((Slope(0, 1), Slope(1, 0)), (Slope(2, 5), Slope(-3, 7)), (Slope(1, 0), Slope(5, 13))):
        assert workloads.bfs_distance(s, t, 16) == farey.distance(s, t)


# --- arithmetic ---------------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 21))
    assert stats.tail(samples) == (10, 50.0, 20)
    value, pct, n = stats.tail(list(range(100, 0, -1)))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for v in range(1, 101) if v > value) == 10
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_covered_length_merges_and_clips():
    assert stats.covered_length([], 0, 10) == 0
    assert stats.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert stats.covered_length([(-5, 2), (9, 20)], 0, 10) == 3


def test_self_time_is_span_minus_covered_children():
    spans = [
        ("op", None, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 1, 2.0, 3.0),
        ("b", 0, 5.0, 6.0),
        ("a", 0, 7.0, 9.0),
    ]
    assert stats.self_times(spans) == {"op": 4.0, "a": 4.0, "b": 2.0}


def test_spread_is_interquartile_distance_over_median():
    assert stats.spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def test_scan_index_follows_the_kernel_scan_order():
    kernels = pytest.importorskip("toruscert._kernels_py")
    bound = 9
    order = list(kernels._slope_box(bound))
    assert tracer.box_size(bound) == len(order)
    for i, (p, q) in enumerate(order):
        assert tracer.scan_index(p, q, bound) == i


def test_decimal_digits_past_the_string_limit():
    assert workloads.decimal_digits(0) == 1
    assert workloads.decimal_digits(-999) == 3
    assert workloads.decimal_digits(10**5000) == 5001


# --- the declared metrics -----------------------------------------------------

def _declared():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_per_layer_metrics_match_benchmark_json():
    emitted = set(tracer.Tracer().metrics()) | {"cli.import_s", "cli.interpreter_s", "trace.overhead_ratio"}
    declared = {m["name"] for m in _declared()["per_layer"]}
    assert emitted == declared


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _declared()["workloads"]] == list(gen.WORKLOADS)
