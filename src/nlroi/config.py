"""key=value configuration files.

Grammar: one `key = value` pair per line, `#` starts a comment (anywhere in
a line), blank lines are skipped, whitespace around the `=` is ignored.
Unknown and repeated keys are hard errors so typos never pass silently;
every error message carries the offending line number.

``parse_config`` builds the library's own objects, a ``SceneSpec``, an
``NlRoiConfig`` and a ``Hyper``, so a file is valid or invalid whatever
command reads it. The parser checks only the file's own rules: syntax
and keys. Every value rule belongs to the constructor that owns it, the
seed's 64-bit range to ``ConfigFile`` itself; its ConfigError names the
field it rejects, and the parser puts that key's line in front
(``k_classes`` is the file's spelling of ``SceneSpec.k``). A rule between
a default and a given value names the given value's line.

Defaults when a key is absent: n = 8, d = 16, h = w = 3, k_classes = 4,
seed 0, and bottleneck widths that derive from the input width (d_f = d_g
= d/4, floored at 1, and d_mid = d_f). Every other key takes its
dataclass's default.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .operator import NlRoiConfig, Scaling
from .toytask import Hyper, SceneSpec

_INT_KEYS = {
    "n", "d", "d_f", "d_mid", "d_g", "h", "w",
    "k_classes", "seed", "steps", "scenes_per_step",
}
_FLOAT_KEYS = {"learning_rate", "momentum", "weight_decay"}
_BOOL_KEYS = {"attend_to_self"}
_ENUM_KEYS = {"scaling"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _ENUM_KEYS
# the file's key for a field that it spells another way
_KEY_OF_FIELD = {"k": "k_classes"}


@dataclass(frozen=True)
class ConfigFile:
    seed: int
    spec: SceneSpec
    nlroi: NlRoiConfig
    hyper: Hyper

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(
                f"seed must fit in 64 bits (0 <= seed < 2**64), got {self.seed}", "seed"
            )


def _parse_int(key, raw, ln):
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigError(f"line {ln}: {key} expects an integer, got {raw!r}") from None


def _parse_float(key, raw, ln):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {ln}: {key} expects a number, got {raw!r}") from None


def _build(cls, lines: dict, **fields):
    """``cls(**fields)``; a ConfigError it raises gets the line of the first
    field it names that the file sets."""
    try:
        return cls(**fields)
    except ConfigError as exc:
        keys = [_KEY_OF_FIELD.get(f, f) for f in exc.fields]
        in_file = [k for k in keys if k in lines]
        if not in_file:
            raise
        named = "" if keys[0] == exc.fields[0] else f"{keys[0]}: "
        raise ConfigError(f"line {lines[in_file[0]]}: {named}{exc}") from None


def parse_config(text: str) -> ConfigFile:
    seen: dict = {}
    lines: dict = {}
    for ln, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {ln}: expected key = value, got {body!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"line {ln}: {key!r} already set on line {lines[key]}"
            )
        lines[key] = ln
        if key in _INT_KEYS:
            seen[key] = _parse_int(key, raw, ln)
        elif key in _FLOAT_KEYS:
            seen[key] = _parse_float(key, raw, ln)
        elif key in _BOOL_KEYS:
            if raw not in ("true", "false"):
                raise ConfigError(f"line {ln}: {key} expects true or false, got {raw!r}")
            seen[key] = raw == "true"
        else:
            try:
                seen[key] = Scaling(raw)
            except ValueError:
                raise ConfigError(
                    f"line {ln}: scaling expects per_channel or full_flatten, got {raw!r}"
                ) from None

    def given(*keys):
        return {k: seen[k] for k in keys if k in seen}

    d = seen.get("d", 16)
    d_f = seen.get("d_f", max(1, d // 4))
    shape = dict(d=d, h=seen.get("h", 3), w=seen.get("w", 3))
    nlroi = _build(
        NlRoiConfig, lines, d_f=d_f, d_mid=seen.get("d_mid", d_f),
        d_g=seen.get("d_g", max(1, d // 4)), **shape, **given("attend_to_self", "scaling"),
    )
    spec = _build(SceneSpec, lines, n=seen.get("n", 8), k=seen.get("k_classes", 4), **shape)
    hyper = _build(
        Hyper, lines,
        **given("learning_rate", "momentum", "weight_decay", "steps", "scenes_per_step"),
    )
    return _build(ConfigFile, lines, seed=seen.get("seed", 0), spec=spec, nlroi=nlroi, hyper=hyper)
