"""Rescaling of samples by a calibration kernel."""

import pytest

import clock


def test_factor_uses_the_kernel_times_around_the_sample(monkeypatch):
    times = iter([3.0e-3, 1.5e-3, 0.75e-3])
    speed_of = clock.Speed
    monkeypatch.setattr(speed_of, "calibrate", lambda self: next(times))
    speed = speed_of((lambda: None, 1.5e-3))  # kernel before the first sample: 3 ms
    # kernel after it: 1.5 ms; mean 2.25 ms
    assert speed.factor() == pytest.approx(1.5e-3 / 2.25e-3)
    # the next sample sits between 1.5 ms and 0.75 ms
    assert speed.factor() == pytest.approx(1.5e-3 / 1.125e-3)
    summary = speed.summary()
    assert summary["samples"] == 3
    assert summary["min"] == pytest.approx(0.75)
    assert summary["reference"] == pytest.approx(1.5)


@pytest.mark.parametrize("kernel", [clock.INTERPRETER, clock.ARRAYS])
def test_kernels_take_measurable_time(kernel):
    assert clock.Speed(kernel).calibrate() > 0.0
