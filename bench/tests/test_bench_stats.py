import math

import pytest

from rgbench.stats import nearest_rank, samples_beyond, summarize, tail_percentile


@pytest.mark.parametrize("n, pct", [
    (1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct):
    assert tail_percentile(n) == pct
    if n >= 20:
        assert samples_beyond(n, pct) >= 10


def test_tail_respects_the_workload_cap():
    assert tail_percentile(1000, cap=75.0) == 75.0
    assert tail_percentile(30, cap=75.0) == 50.0


def test_samples_beyond_counts_nearest_rank():
    assert samples_beyond(40, 75.0) == 10
    assert samples_beyond(39, 75.0) == 9
    assert nearest_rank([1, 2, 3, 4], 50.0) == 2
    assert nearest_rank([1, 2, 3, 4], 75.0) == 3


def test_summary_reports_tail_percentile_and_count():
    durations = [i / 1000 for i in range(1, 201)]
    s = summarize(durations, [True] * 200, tail_cap=95.0)
    assert (s["tail_pct"], s["tail_beyond"]) == (95.0, 10)
    assert s["op_ms.tail"] == pytest.approx(190.0)
    assert s["op_ms.p50"] == pytest.approx(100.0)
    assert s["ops_per_s"] == pytest.approx(200 / sum(durations))


def test_failed_op_sorts_as_inf_and_counts_as_failure():
    durations = [0.001] * 11 + [0.010] * 9
    passed = [False] * 11 + [True] * 9
    s = summarize(durations, passed, tail_cap=95.0)
    # the failed ops were the fastest, yet they push the median to +inf
    assert math.isinf(s["op_ms.p50"])
    assert s["fail_ratio"] == pytest.approx(11 / 20)
    assert s["ops_per_s"] == pytest.approx(9 / sum(durations))

    one_failed = summarize(durations, [False] + [True] * 19, tail_cap=95.0)
    assert one_failed["op_ms.p50"] == pytest.approx(1.0)
    assert one_failed["fail_ratio"] == pytest.approx(1 / 20)


def test_summary_needs_one_flag_per_op():
    with pytest.raises(ValueError):
        summarize([0.1, 0.2], [True], tail_cap=95.0)


def test_rescale_maps_the_yardstick_time_to_the_reference():
    from rgbench.yardstick import REFERENCE_S, rescale

    assert rescale(0.040, REFERENCE_S, REFERENCE_S) == pytest.approx(0.040)
    # a CPU running at half speed doubles both the op and the yardstick
    assert rescale(0.080, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.040)
    assert rescale(0.060, REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.040)
