"""Calibration scaling: what it does to call times, and that every call is bracketed."""

import pytest

import calibrate
import run


def test_scale_reads_reference_time_at_reference_speed():
    ref = calibrate.REFERENCE_NS
    assert calibrate.scale(5e6, ref, ref) == pytest.approx(5e6)
    # a machine running at half speed doubles both the call and the loop
    assert calibrate.scale(10e6, 2 * ref, 2 * ref) == pytest.approx(5e6)
    assert calibrate.scale(5e6, ref, 3 * ref) == pytest.approx(2.5e6)


def test_measure_is_positive():
    assert calibrate.measure() > 0


def test_item_ns_takes_each_items_median_of_scaled_calls():
    ref = calibrate.REFERENCE_NS
    calibration_ns = [ref, ref, 2 * ref, 2 * ref]
    calls = [
        {"item": 0, "ns": 4e6, "cal": 0},
        {"item": 0, "ns": 8e6, "cal": 2},  # same call on a machine at half speed
        {"item": 0, "ns": 9e6, "cal": 0},
        {"item": 1, "ns": 2e6, "cal": 1},
    ]
    scaled = run.item_ns(calls, calibration_ns, scaled=True)
    assert scaled == {0: pytest.approx(4e6), 1: pytest.approx(2e6 / 1.5)}
    assert run.item_ns(calls, calibration_ns, scaled=False) == {0: 8e6, 1: 2e6}
