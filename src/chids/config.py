"""Flat, commented key=value run configuration.

One file fully determines a run given the dataset: every knob the pipeline
reads lives here, is diffable, and can be overridden per-invocation with
`--set key=value`. The fields of RunConfig are the schema: a key is its
field's name with the first `_` written as `.`, and a value is parsed by the
type of the field's default.
"""

from __future__ import annotations

from . import artifact
from .errors import ConfigError, DataError
from .rule_config import RuleConfig, Settings
from .sections import (CHI2, DEFAULT_PRUNE, FEATURE_TABLE, IGR, AttackClass, PipelineConfig,
                       SplitSpec, TreeParams)

SELECT_METHODS = (CHI2, IGR)
DETECT_MODES = ("all", "none", "oracle")


class RunConfig(Settings):
    dataset: str = ""
    seed: int = 0
    threads: int = 1
    out: str = "out"

    split_train_size: int = SplitSpec.train_size
    split_test_size: int = SplitSpec.test_size
    split_minority: tuple[str, ...] = tuple(c.tag for c in SplitSpec.minority_classes)

    prune: tuple[str, ...] = DEFAULT_PRUNE
    select_method: str = CHI2
    select_k: int = 4

    part_min_leaf: int = TreeParams.min_leaf
    part_confidence: float = TreeParams.confidence

    rules_interval_lower: float = RuleConfig.interval_lower
    rules_interval_upper: float = RuleConfig.interval_upper
    rules_retransmission_deadline: float = RuleConfig.retransmission_deadline
    rules_delay_window: float = RuleConfig.delay_window
    rules_repetition_limit: int = RuleConfig.repetition_limit
    rules_rssi_min: float = RuleConfig.rssi_min
    rules_rssi_max: float = RuleConfig.rssi_max
    rules_collision_limit: int = RuleConfig.collision_limit
    rules_window: float = RuleConfig.window
    rules_max_sources_per_message: int = RuleConfig.max_sources_per_message

    pipeline_policy: str = PipelineConfig.policy
    pipeline_alert_sink: str = PipelineConfig.alert_sink
    detect_mode: str = "all"

    def split_spec(self) -> SplitSpec:
        return SplitSpec(
            train_size=self.split_train_size,
            test_size=self.split_test_size,
            minority_classes=tuple(AttackClass.from_tag(t) for t in self.split_minority),
            seed=self.seed,
        )

    def _section(self, prefix: str, cls):
        """`cls` built from this config's `<prefix>_<field>` values, one per
        name that `cls` annotates."""
        return cls(**{name: getattr(self, f"{prefix}_{name}") for name in cls.__annotations__})

    def tree_params(self) -> TreeParams:
        return self._section("part", TreeParams)

    def rule_config(self) -> RuleConfig:
        return self._section("rules", RuleConfig)

    def pipeline_config(self) -> PipelineConfig:
        return self._section("pipeline", PipelineConfig)

    def validate(self) -> None:
        if self.select_method not in SELECT_METHODS:
            raise ConfigError(f"select.method must be one of {SELECT_METHODS}")
        if self.detect_mode not in DETECT_MODES:
            raise ConfigError(f"detect.mode must be one of {DETECT_MODES}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.split_train_size < 1:
            raise ConfigError("split.train_size must be >= 1")
        if self.split_test_size < 0:
            raise ConfigError("split.test_size must be >= 0")
        for key, listed in (("prune", self.prune), ("split.minority", self.split_minority)):
            twice = sorted({name for name in listed if listed.count(name) > 1})
            if twice:
                raise ConfigError(f"{key}: names {twice} more than once")
        names = {name for name, _ in FEATURE_TABLE}
        if not names.issuperset(self.prune):
            raise ConfigError(f"prune: unknown features {sorted(set(self.prune) - names)}")
        kept = len(names - set(self.prune))
        if not 1 <= self.select_k <= kept:
            raise ConfigError(f"select.k must be from 1 to {kept}, the features left after prune")
        known = {c.tag for c in AttackClass}
        bad = set(self.split_minority) - known
        if bad:
            raise ConfigError(f"split.minority: unknown classes {sorted(bad)}")
        for prefix, build in (("rules", self.rule_config), ("part", self.tree_params),
                              ("pipeline", self.pipeline_config)):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{prefix}.{exc}") from None


# key -> RunConfig field name; a key is its field's name with the first `_` as `.`
_FIELDS = {name.replace("_", ".", 1): name for name in RunConfig.__annotations__}


def _coerce(key: str, kind: type, raw: str):
    """`raw` parsed as a value of `kind`: a tuple is a comma list, any other
    type (str, int or float) its own constructor's input."""
    raw = raw.strip()
    if kind is tuple:
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r} (expected {kind.__name__})") from None


def apply_setting(cfg: RunConfig, key: str, raw: str) -> RunConfig:
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    name = _FIELDS[key]
    return cfg._replace(**{name: _coerce(key, type(getattr(RunConfig, name)), raw)})


def parse_config_lines(lines, base: RunConfig | None = None) -> RunConfig:
    """`base` with the `key = value` lines of `lines`; `#` starts a comment."""
    cfg = base or RunConfig()
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected `key = value`, got {line!r}")
        key, raw = stripped.split("=", 1)
        cfg = apply_setting(cfg, key.strip(), raw)
    return cfg


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    try:
        return artifact.read_lines(path, lambda lines: parse_config_lines(lines, base))
    except DataError as exc:  # a config file that is not text is a config error
        raise ConfigError(str(exc)) from None


def render_config(cfg: RunConfig) -> str:
    """Commented flat dump of every knob (valid input for load_config)."""
    lines = ["# chids run configuration (key = value; `#` starts a comment)"]
    for key, name in _FIELDS.items():
        v = getattr(cfg, name)
        if isinstance(v, tuple):
            v = ",".join(v)
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"
