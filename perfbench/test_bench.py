"""Tests for the benchmark's own arithmetic and oracles.

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402


def test_p99_is_flagged_invalid_with_fewer_than_ten_samples_beyond():
    _, beyond, valid = stats.tail([float(i) for i in range(100)])
    assert beyond < stats.MIN_BEYOND and not valid
    value, beyond, valid = stats.tail([float(i) for i in range(2000)])
    assert beyond == 20 and valid
    assert 1978 < value < 1980


def test_median_per_op_takes_each_operations_middle_repetition():
    runs = [[3.0, 1.0, 9.0], [2.0, 5.0, 8.0], [40.0, 2.0, 7.0]]
    assert stats.median_per_op(runs) == [3.0, 2.0, 8.0]


def test_latencies_scale_by_the_calibrations_around_them():
    ref = stats.CALIBRATION_REF_S
    calibration = [ref, 3 * ref, 2 * ref]
    # op 0 and 1 sit between calibrations 0 and 1, op 2 between 1 and 2.
    assert stats.scaled([2.0, 4.0, 5.0], [0, 0, 1], calibration) == pytest.approx([1.0, 2.0, 2.0])


def test_speed_factor_scales_to_the_reference_chunk_time():
    ref = stats.CALIBRATION_REF_S
    assert stats.speed_factor([ref]) == 1.0
    assert stats.speed_factor([2 * ref, 2 * ref, 9 * ref]) == 0.5


def test_spans_scale_by_the_calibrations_around_their_midpoints():
    ref = stats.CALIBRATION_REF_S
    spans = [
        (0, "bench.calibrate", 0.0, 1.0, None, None),
        (1, "work", 1.0, 3.0, None, 1),
        (2, "bench.calibrate", 3.0, 4.0, None, None),
        (3, "work", 4.0, 6.0, None, 2),
    ]
    factors = stats.span_speed_factors(spans, {0: ref, 2: 3 * ref})
    assert factors[1] == pytest.approx(0.5) and factors[3] == pytest.approx(1 / 3)
    assert stats.busy_by_name(spans, factors)["work"] == pytest.approx(2 * 0.5 + 2 / 3)
    assert stats.span_speed_factors(spans[1:2], {}) == {1: 1.0}


def test_percentile_of_one_sample_is_that_sample():
    assert stats.percentile([4.5], 99) == 4.5


def test_self_time_subtracts_the_union_of_nested_children():
    spans = [
        (0, "root", 0.0, 10.0, None, 1),
        (1, "a", 1.0, 3.0, 0, 1),
        (2, "a", 2.0, 5.0, 0, 1),  # overlaps its sibling
        (3, "b", 8.0, 9.0, 0, 1),
        (4, "c", 8.25, 8.75, 3, 1),  # grandchild: only reduces b
    ]
    own = stats.self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 0.5, 4: 0.5}
    assert stats.busy_by_name(spans) == {"root": 5.0, "a": 5.0, "b": 0.5, "c": 0.5}
    assert stats.calls_by_name(spans)["a"] == 2


def test_tracer_links_nested_calls_and_keeps_selected_results():
    tracer = stats.Tracer(keep_results=("inner",))
    assert tracer.call("outer", lambda: tracer.call("inner", max, 2, 7, op=3), op=3) == 7
    outer, inner = tracer.spans
    assert inner[4] == outer[0] and outer[4] is None
    assert inner[5] == outer[5] == 3
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]
    assert tracer.results == {inner[0]: 7}


def test_an_injected_wrong_verdict_is_one_failure_out_of_n():
    import rep
    import workloads

    state = workloads.setup_decide(5, stats.direct)
    ops = state.ops[-20:]  # built positives
    errors, keys, latencies, calibration = rep.replay(ops, stats.direct, state.key)
    assert stats.tally(errors, []) == (20, 0)
    assert keys == [True] * 20 and len(latencies) == 20 and len(calibration) >= 2
    report = workloads.decide(ops[7].arg)
    wrong = dataclasses.replace(report, determined=False, witness=None)
    errors[7] = rep.checked(ops[7].check, wrong)
    assert errors[7] == "built table decided negative"
    assert stats.tally(errors, []) == (20, 1)
    assert stats.tally([None, "x", None], [None, "y"]) == (5, 2)


def test_the_order_three_count_is_a_whole_set_check():
    import workloads

    state = workloads.setup_decide(5, stats.direct)
    (count,) = state.set_checks
    n_exhaustive = 1 + 16 + 19_683
    keys = [True] * 32 + [False] * (n_exhaustive - 32)
    assert count(keys) is None
    keys[40] = True
    assert "33 order<=3 tables determined" in count(keys)


def test_oracle_accepts_constructions_and_rejects_a_wrong_witness():
    z5 = tuple(tuple((x + y) % 5 for y in range(5)) for x in range(5))
    assert checks.witness_error(checks.zn_twist(5), z5, checks.negation(5)) is None
    assert checks.witness_error(checks.zn_twist(5), z5, tuple(range(5))) is not None
    rows, alpha, _ = checks.cyclic_chain((2, 4))
    assert len(rows) == 6 and alpha == (0, 1, 2, 5, 4, 3)
    assert not checks.is_associative(checks.zn_twist(3))
    assert checks.is_associative(checks.left_zero_band(4))


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
