"""The key=value config grammar and its validation."""

import re

import pytest

from nlroi.config import KNOWN_KEYS, ConfigFile, parse_config
from nlroi.errors import ConfigError
from nlroi.operator import NlRoiConfig, Scaling
from nlroi.toytask import Hyper, SceneSpec


class TestDefaults:
    def test_empty_text(self):
        cfg = parse_config("")
        spec, op, hyper = cfg.spec, cfg.nlroi, cfg.hyper
        assert (spec.n, op.d, op.h, op.w, spec.k) == (8, 16, 3, 3, 4)
        assert op.d_f == op.d_mid == op.d_g == 4
        assert op.attend_to_self is True
        assert op.scaling is Scaling.PER_CHANNEL
        assert cfg.seed == 0
        assert (hyper.learning_rate, hyper.momentum, hyper.weight_decay) == (0.01, 0.9, 1e-4)
        assert (hyper.steps, hyper.scenes_per_step) == (3000, 8)

    def test_absent_keys_take_the_dataclass_defaults(self):
        cfg = parse_config("")
        assert cfg.hyper == Hyper()
        # attend_to_self and scaling are left to NlRoiConfig's own defaults
        assert cfg.nlroi == NlRoiConfig(d=16, d_f=4, d_mid=4, d_g=4, h=3, w=3)

    def test_widths_follow_d(self):
        op = parse_config("d = 32").nlroi
        assert op.d_f == op.d_g == 8
        assert op.d_mid == 8

    def test_small_d_floors_widths_at_one(self):
        op = parse_config("d = 2\nk_classes = 2").nlroi
        assert op.d_f == op.d_mid == op.d_g == 1

    def test_d_mid_follows_explicit_d_f(self):
        op = parse_config("d_f = 7").nlroi
        assert op.d_mid == 7

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# full-line comment\n"
            "\n"
            "   \n"
            "d = 8   # trailing comment\n"
            "seed=5\n"
        )
        assert cfg.nlroi.d == 8
        assert cfg.seed == 5

    def test_whitespace_around_equals(self):
        assert parse_config("  n   =    12  ").spec.n == 12


class TestRoundTrip:
    FULL = "\n".join(
        [
            "n = 6",
            "d = 12",
            "d_f = 3",
            "d_mid = 5",
            "d_g = 2",
            "h = 2",
            "w = 4",
            "k_classes = 3",
            "attend_to_self = false",
            "scaling = full_flatten",
            "seed = 99",
            "learning_rate = 0.25",
            "momentum = 0.0",
            "weight_decay = 0",
            "steps = 10",
            "scenes_per_step = 2",
        ]
    )

    def test_every_key(self):
        cfg = parse_config(self.FULL)
        assert cfg == ConfigFile(
            seed=99,
            spec=SceneSpec(n=6, k=3, d=12, h=2, w=4),
            nlroi=NlRoiConfig(
                d=12, d_f=3, d_mid=5, d_g=2, h=2, w=4,
                attend_to_self=False, scaling=Scaling.FULL_FLATTEN,
            ),
            hyper=Hyper(
                learning_rate=0.25, momentum=0.0, weight_decay=0.0,
                steps=10, scenes_per_step=2,
            ),
        )

    def test_derived_views_agree(self):
        cfg = parse_config(self.FULL)
        op = cfg.nlroi
        assert (op.d, op.d_f, op.d_mid, op.d_g, op.h, op.w) == (12, 3, 5, 2, 2, 4)
        assert op.attend_to_self is False
        assert op.scaling is Scaling.FULL_FLATTEN
        spec = cfg.spec
        assert (spec.n, spec.k, spec.d, spec.h, spec.w) == (6, 3, 12, 2, 4)
        hyper = cfg.hyper
        assert (hyper.steps, hyper.scenes_per_step) == (10, 2)
        assert hyper.learning_rate == 0.25


class TestErrors:
    def test_unknown_key_carries_line_number(self):
        with pytest.raises(ConfigError, match=r"line 2.*'depth'"):
            parse_config("d = 8\ndepth = 3")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match=r"line 3.*'d'.*line 1"):
            parse_config("d = 8\nn = 4\nd = 16")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words")

    def test_non_integer_value(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("d = eight")

    def test_non_number_value(self):
        with pytest.raises(ConfigError, match="line 2: learning_rate expects a number"):
            parse_config("d = 8\nlearning_rate = fast")

    def test_float_where_int_expected(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("n = 4.5")

    def test_bool_is_strict(self):
        for raw in ("True", "1", "yes", "FALSE"):
            with pytest.raises(ConfigError, match="true or false"):
                parse_config(f"attend_to_self = {raw}")

    def test_enum_values(self):
        assert parse_config("scaling = per_channel").nlroi.scaling is Scaling.PER_CHANNEL
        assert parse_config("scaling = full_flatten").nlroi.scaling is Scaling.FULL_FLATTEN
        with pytest.raises(ConfigError, match="scaling"):
            parse_config("scaling = layerwise")

    def test_positive_size_required(self):
        with pytest.raises(ConfigError, match=">= 1"):
            parse_config("d_f = 0")

    def test_zero_steps_allowed(self):
        assert parse_config("steps = 0").hyper.steps == 0

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed = -1")

    def test_seed_64_bit_bound(self):
        assert parse_config(f"seed = {2**64 - 1}").seed == 2**64 - 1
        with pytest.raises(ConfigError, match="64 bits"):
            parse_config(f"seed = {2**64}")

    def test_nonfinite_float(self):
        for raw in ("nan", "inf", "-0.5"):
            with pytest.raises(ConfigError):
                parse_config(f"momentum = {raw}")


class TestCrossField:
    def test_pair_width_exceeds_input(self):
        with pytest.raises(ConfigError, match=r"line 2.*d_f=9"):
            parse_config("d = 8\nd_f = 9")

    def test_mid_width_exceeds_input(self):
        with pytest.raises(ConfigError, match="d_mid=20"):
            parse_config("d = 8\nd_mid = 20")

    def test_classes_exceed_channels(self):
        with pytest.raises(ConfigError, match=r"line 2: k_classes: k=9"):
            parse_config("d = 8\nk_classes = 9")

    def test_defaults_can_violate_cross_checks(self):
        # k_classes defaults to 4, which no longer fits when d = 2
        with pytest.raises(ConfigError, match="k_classes"):
            parse_config("d = 2")


class TestEveryKeyNamesItsLine:
    """Each key, set out of range on line 3, is rejected with that line,
    whichever rule (the parser's or a constructor's) rejects it."""

    BAD = {
        "n": "1",
        "d": "0",
        "d_f": "17",
        "d_mid": "17",
        "d_g": "0",
        "h": "0",
        "w": "-2",
        "k_classes": "1",
        "attend_to_self": "yes",
        "scaling": "none",
        "seed": "-1",
        "learning_rate": "nan",
        "momentum": "inf",
        "weight_decay": "-0.5",
        "steps": "-1",
        "scenes_per_step": "0",
    }

    def test_table_covers_every_key(self):
        assert set(self.BAD) == KNOWN_KEYS

    @pytest.mark.parametrize("key", sorted(BAD))
    def test_out_of_range_value(self, key):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"# header\n\n{key} = {self.BAD[key]}")
        assert str(exc.value).startswith("line 3: ")
        assert re.search(rf"\b{key}\b", str(exc.value))
