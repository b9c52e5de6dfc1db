"""Benchmark records, the log-log fit, and CSV emission."""

import dataclasses
import io
import math

import pytest

from nlroi.bench import (
    CSV_HEADER,
    DEFAULT_SWEEP,
    BenchRecord,
    emit_csv,
    fit_scaling_exponent,
    run_bench,
)
from nlroi.errors import ConfigError, InsufficientDataError
from nlroi.operator import NlRoiConfig

SWEEP_OP = NlRoiConfig(d=8, d_f=4, d_mid=4, d_g=4, h=4, w=4)
SMALL_OP = NlRoiConfig(d=4, d_f=2, d_mid=2, d_g=2, h=2, w=2)


def synthetic_records(times):
    """Records differing only in n, with forward_ms taken from ``times``."""
    return [
        BenchRecord(n=n, config=SWEEP_OP, reps=5, forward_ms=t, backward_ms=2 * t)
        for n, t in times
    ]


class TestFit:
    def test_exact_quadratic(self):
        recs = synthetic_records([(n, 0.125 * n * n) for n in (16, 32, 64, 128, 256)])
        assert abs(fit_scaling_exponent(recs) - 2.0) < 1e-9

    def test_exact_cubic(self):
        recs = synthetic_records([(n, 3.0 * n ** 3) for n in (8, 16, 32, 64)])
        assert abs(fit_scaling_exponent(recs) - 3.0) < 1e-9

    def test_constant_times_fit_zero(self):
        recs = synthetic_records([(n, 7.0) for n in (8, 16, 32, 64)])
        assert abs(fit_scaling_exponent(recs)) < 1e-12

    def test_too_few_distinct_sizes(self):
        with pytest.raises(InsufficientDataError):
            fit_scaling_exponent(synthetic_records([(8, 1.0), (16, 4.0), (32, 16.0)]))

    def test_duplicate_n_not_distinct(self):
        recs = synthetic_records([(8, 1.0), (8, 1.1), (16, 4.0), (32, 16.0)])
        with pytest.raises(InsufficientDataError):
            fit_scaling_exponent(recs)

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            fit_scaling_exponent([])

    def test_mixed_non_n_dimensions_rejected(self):
        for change in (dict(d=16), dict(attend_to_self=False)):
            recs = synthetic_records([(n, float(n * n)) for n in (8, 16, 32, 64)])
            recs[2].config = dataclasses.replace(recs[2].config, **change)
            with pytest.raises(ValueError):
                fit_scaling_exponent(recs)


class TestRunBench:
    SMALL = tuple((n, SMALL_OP) for n in (4, 8, 16, 32))

    def test_rejects_thin_sampling(self):
        with pytest.raises(ValueError):
            run_bench(self.SMALL, reps=4, seed=0)

    @pytest.mark.parametrize("reps", [4, 0, True, 5.0])
    def test_reps_rule_names_reps(self, reps):
        with pytest.raises(ConfigError, match="reps must be an integer >= 5") as err:
            run_bench(self.SMALL, reps=reps, seed=0)
        assert err.value.fields == ("reps",)

    def test_records_match_grid(self):
        recs = run_bench(self.SMALL, reps=5, seed=0)
        assert [(r.n, r.config) for r in recs] == list(self.SMALL)
        for r in recs:
            assert r.reps == 5
            assert r.forward_ms > 0.0
            assert r.backward_ms > 0.0
            assert math.isfinite(r.forward_ms)

    def test_duplicate_grid_entries_kept(self):
        grid = (self.SMALL[0], self.SMALL[0])
        recs = run_bench(grid, reps=5, seed=1)
        assert len(recs) == 2

    def test_growth_over_strong_doubling(self):
        # 16x in N through the quadratic stage must cost measurably more
        grid = ((32, SMALL_OP), (512, SMALL_OP))
        recs = run_bench(grid, reps=5, seed=2)
        assert recs[1].forward_ms > recs[0].forward_ms

    def test_default_sweep_shape(self):
        assert DEFAULT_SWEEP == tuple((n, SWEEP_OP) for n in (64, 128, 256, 512, 1024))


class TestCsv:
    def test_header_and_rows(self):
        recs = synthetic_records([(8, 1.25), (16, 5.5)])
        out = io.StringIO()
        emit_csv(recs, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "8,8,4,4,4,4,5,1.250,2.500"
        assert lines[2] == "16,8,4,4,4,4,5,5.500,11.000"
        assert len(lines) == 3

    def test_empty_records_header_only(self):
        out = io.StringIO()
        emit_csv([], out)
        assert out.getvalue() == CSV_HEADER + "\n"

    def test_header_field_order(self):
        assert CSV_HEADER.split(",") == [
            "n", "d", "d_f", "d_g", "h", "w", "reps", "forward_ms", "backward_ms",
        ]
