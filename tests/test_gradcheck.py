"""Finite-difference machinery and the full gradient check."""

import dataclasses

import numpy as np
import pytest

from nlroi import gradcheck
from nlroi.errors import ConfigError, NumericalError
from nlroi.gradcheck import (
    GradReport,
    check_all_gradients,
    finite_diff,
    format_report,
    rel_err,
    summary_line,
)
from nlroi.operator import (
    NlRoiConfig,
    NlRoiParams,
    Scaling,
    nlroi_backward,
    nlroi_forward,
)
from nlroi.rng import Prng


class TestFiniteDiff:
    def test_quadratic(self):
        x = np.array([1.0, 2.0])
        g = finite_diff(lambda v: float(np.sum(v * v)), x)
        assert np.max(np.abs(g - np.array([2.0, 4.0]))) < 1e-8

    def test_constant_function(self):
        g = finite_diff(lambda v: 3.5, np.ones((2, 3)))
        assert np.array_equal(g, np.zeros((2, 3)))

    def test_preserves_shape(self):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        g = finite_diff(lambda v: float(v.sum()), x)
        assert g.shape == (3, 4)
        assert np.max(np.abs(g - 1.0)) < 1e-9

    def test_cubic_has_no_truncation_error(self, monkeypatch):
        # a central difference of x^3 is 3x^2 + h^2 exactly; the Richardson
        # combination cancels the h^2 term, which at h=1e-2 is 1e-4
        monkeypatch.setattr(gradcheck, "STEP", 1e-2)
        x = np.array([0.5, -2.0, 3.0])
        g = finite_diff(lambda v: float(np.sum(v**3)), x)
        assert np.max(np.abs(g - 3.0 * x * x)) < 1e-10

    def test_nonfinite_loss_raises(self):
        def bad(v):
            return float("nan")

        with pytest.raises(NumericalError):
            finite_diff(bad, np.ones(2))

    def test_nonfinite_only_after_perturbation(self):
        def fragile(v):
            if v[0] > 1.0:
                return float("inf")
            return float(v[0])

        with pytest.raises(NumericalError):
            finite_diff(fragile, np.array([1.0 - 1e-9]))


class TestRelErr:
    def test_floor_absorbs_tiny_pairs(self):
        assert rel_err(np.array([1e-12]), np.array([0.0]))[0] < 1e-3

    def test_relative_for_large(self):
        e = rel_err(np.array([2.0]), np.array([1.0]))
        assert abs(e[0] - 0.5) < 1e-12


class TestCheckAllGradients:
    def test_default_modes_pass(self):
        report = check_all_gradients(
            NlRoiConfig(d=6, d_f=3, d_mid=3, d_g=4, h=2, w=2), seed=11, n=4
        )
        assert report.passed, format_report(report)
        assert report.max_rel_err < 1e-6

    def test_masked_variant_passes(self):
        cfg = NlRoiConfig(d=6, d_f=3, d_mid=3, d_g=4, h=2, w=2, attend_to_self=False)
        report = check_all_gradients(cfg, seed=12, n=4)
        assert report.passed, format_report(report)

    def test_full_flatten_variant_passes(self):
        cfg = NlRoiConfig(
            d=6, d_f=3, d_mid=3, d_g=4, h=2, w=2, scaling=Scaling.FULL_FLATTEN
        )
        report = check_all_gradients(cfg, seed=13, n=4)
        assert report.passed, format_report(report)

    def test_covers_input_and_every_parameter(self):
        report = check_all_gradients(
            NlRoiConfig(d=6, d_f=3, d_mid=3, d_g=4, h=2, w=2), seed=14, n=3
        )
        want = {"x", "w_phi", "b_phi", "w_psi", "w_g1", "b_g1", "w_g2", "b_g2"}
        assert set(report.checks) == want

    def test_zero_tolerance_fails(self):
        report = check_all_gradients(
            NlRoiConfig(d=6, d_f=3, d_mid=3, d_g=4, h=2, w=2), seed=15, n=3
        )
        assert dataclasses.replace(report, tolerance=0.0).passed is False

    def test_passes_where_central_differences_were_truncation_bound(self):
        # at this seed a plain central difference reads w_phi's worst
        # relative error as 1.1e-6, over the tolerance
        cfg = NlRoiConfig(d=16, d_f=4, d_mid=4, d_g=4, h=3, w=3)
        report = check_all_gradients(cfg, seed=16845541668068844090)
        assert report.passed, format_report(report)

    @pytest.mark.parametrize("n", [0, -1, 2.0, True, None])
    def test_rejects_a_roi_count_that_is_no_positive_integer(self, n):
        cfg = NlRoiConfig(d=6, d_f=3, d_mid=3, d_g=4, h=2, w=2)
        with pytest.raises(ConfigError, match="n must be an integer >= 1") as err:
            check_all_gradients(cfg, seed=17, n=n)
        assert err.value.fields == ("n",)

    def test_deterministic_given_seed(self):
        cfg = NlRoiConfig(d=6, d_f=3, d_mid=3, d_g=4, h=2, w=2)
        a = check_all_gradients(cfg, seed=16, n=3)
        b = check_all_gradients(cfg, seed=16, n=3)
        assert a.max_rel_err == b.max_rel_err


def random_blob_and_params(seed, n, config, x_scale):
    prng = Prng(seed)
    x = x_scale * prng.normals(n * config.d * config.h * config.w).reshape(
        n, config.d, config.h, config.w
    )
    params = NlRoiParams(**{
        name: 0.5 * prng.normals(int(np.prod(shape))).reshape(shape)
        for name, shape in NlRoiParams.shapes(config).items()
    })
    return x, params


class TestOneHotRows:
    """Attention rows that are one-hot, exactly or nearly."""

    CFG = NlRoiConfig(d=6, d_f=3, d_mid=3, d_g=4, h=2, w=2, attend_to_self=False)

    def test_two_masked_rois_have_exactly_zero_score_gradients(self):
        # each RoI can attend only to the other, so its row is exactly
        # one-hot whatever the scores, and phi/psi cannot move the output
        for seed in range(5):
            x, params = random_blob_and_params(40 + seed, 2, self.CFG, 1.0)
            out, cache = nlroi_forward(x, params, self.CFG)
            assert np.array_equal(cache.attn[0][0], [[0.0, 1.0], [1.0, 0.0]])
            up = Prng(50 + seed).normals(out.size).reshape(out.shape)
            _, grads = nlroi_backward(cache, params, self.CFG, up)
            for name in ("w_phi", "b_phi", "w_psi"):
                assert np.array_equal(getattr(grads, name), np.zeros_like(getattr(params, name))), name
            report = check_all_gradients(self.CFG, seed=60 + seed, n=2)
            assert report.passed, format_report(report)

    def test_saturated_score_rows(self):
        # a large-magnitude blob drives every softmax row to within 1e-9 of
        # one-hot (three of the four exactly); the phi/psi gradients shrink
        # to about 1e-13, under rel_err's floor, while the g-branch and x
        # gradients keep their size, and every one must still match FD
        x, params = random_blob_and_params(31, 4, self.CFG, 12.0)
        out, cache = nlroi_forward(x, params, self.CFG)
        rows = cache.attn[0][0]
        assert np.min(np.max(rows, axis=1)) > 1.0 - 1e-9
        proj = 1e-6 * Prng(32).normals(out.size).reshape(out.shape)
        d_x, grads = nlroi_backward(cache, params, self.CFG, proj)

        def loss(blob, trial):
            return np.sum(nlroi_forward(blob, trial, self.CFG)[0] * proj)

        assert np.max(rel_err(d_x, finite_diff(lambda v: loss(v, params), x))) < 1e-6
        for name in NlRoiParams.shapes(self.CFG):
            numeric = finite_diff(
                lambda v: loss(x, dataclasses.replace(params, **{name: v})),
                getattr(params, name),
            )
            assert np.max(rel_err(getattr(grads, name), numeric)) < 1e-6, name


class TestReporting:
    def _tiny_report(self):
        return check_all_gradients(
            NlRoiConfig(d=4, d_f=2, d_mid=2, d_g=2, h=2, w=2), seed=17, n=3
        )

    def test_summary_line_shape(self):
        line = summary_line(self._tiny_report())
        assert line.startswith("GRADCHECK pass=")
        assert "max_rel_err=" in line

    def test_format_report_lists_all_tensors(self):
        report = self._tiny_report()
        text = format_report(report)
        for name in report.checks:
            assert name in text

    def test_report_max_is_max(self):
        report = self._tiny_report()
        assert report.max_rel_err == max(
            c.max_rel_err for c in report.checks.values()
        )
        assert isinstance(report, GradReport)
