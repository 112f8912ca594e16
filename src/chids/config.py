"""Flat, commented key=value run configuration.

One file fully determines a run given the dataset: every knob the pipeline
reads lives here, is diffable, and can be overridden per-invocation with
`--set key=value`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .anomaly import RuleConfig
from . import artifact
from .errors import ConfigError, DataError
from .kdd import AttackClass
from .learner import TreeParams
from .pipeline import POLICIES, POLICY_ALERT_UNRESOLVED, PipelineConfig
from .preprocess import DEFAULT_MINORITY, DEFAULT_PRUNE, SplitSpec

MODEL_KINDS = ("part", "tree", "majority")
SELECT_METHODS = ("chi2", "igr")
DETECT_MODES = ("all", "none", "oracle", "stream")


@dataclass
class RunConfig:
    dataset: str = ""
    seed: int = 0
    threads: int = 1
    out: str = "out"

    split_train_size: int = 20000
    split_test_size: int = 10000
    split_minority: tuple[str, ...] = tuple(c.tag for c in DEFAULT_MINORITY)

    prune: tuple[str, ...] = DEFAULT_PRUNE
    select_method: str = "chi2"
    select_k: int = 4

    model_kind: str = "part"
    part_min_leaf: int = 2
    part_confidence: float = 0.25
    part_prune: bool = True

    rules_interval_lower: float = 0.5
    rules_interval_upper: float = 30.0
    rules_retransmission_deadline: float = 2.0
    rules_delay_window: float = 1.0
    rules_repetition_limit: int = 3
    rules_rssi_min: float = -95.0
    rules_rssi_max: float = -20.0
    rules_collision_limit: int = 5
    rules_window: float = 10.0
    rules_max_sources_per_message: int = 1

    pipeline_policy: str = POLICY_ALERT_UNRESOLVED
    pipeline_alert_sink: str = "alerts.log"
    detect_mode: str = "all"

    def split_spec(self) -> SplitSpec:
        return SplitSpec(
            train_size=self.split_train_size,
            test_size=self.split_test_size,
            minority_classes=tuple(AttackClass.from_tag(t) for t in self.split_minority),
            seed=self.seed,
        )

    def tree_params(self) -> TreeParams:
        return TreeParams(
            min_leaf=self.part_min_leaf,
            confidence=self.part_confidence,
            prune=self.part_prune,
        )

    def rule_config(self) -> RuleConfig:
        return RuleConfig(
            interval_lower=self.rules_interval_lower,
            interval_upper=self.rules_interval_upper,
            retransmission_deadline=self.rules_retransmission_deadline,
            delay_window=self.rules_delay_window,
            repetition_limit=self.rules_repetition_limit,
            rssi_min=self.rules_rssi_min,
            rssi_max=self.rules_rssi_max,
            collision_limit=self.rules_collision_limit,
            window=self.rules_window,
            max_sources_per_message=self.rules_max_sources_per_message,
        )

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(policy=self.pipeline_policy, alert_sink=self.pipeline_alert_sink)

    def validate(self) -> None:
        if self.select_method not in SELECT_METHODS:
            raise ConfigError(f"select.method must be one of {SELECT_METHODS}")
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"model.kind must be one of {MODEL_KINDS}")
        if self.pipeline_policy not in POLICIES:
            raise ConfigError(f"pipeline.policy must be one of {POLICIES}")
        if self.detect_mode not in DETECT_MODES:
            raise ConfigError(f"detect.mode must be one of {DETECT_MODES}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.select_k < 0:
            raise ConfigError("select.k must be >= 0")
        known = {c.tag for c in AttackClass}
        bad = set(self.split_minority) - known
        if bad:
            raise ConfigError(f"split.minority: unknown classes {sorted(bad)}")
        for prefix, build in (("rules", self.rule_config), ("part", self.tree_params)):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{prefix}.{exc}") from None


# config-file key -> (dataclass field, coercion)
_KEYMAP: dict[str, tuple[str, str]] = {
    "dataset": ("dataset", "str"),
    "seed": ("seed", "int"),
    "threads": ("threads", "int"),
    "out": ("out", "str"),
    "split.train_size": ("split_train_size", "int"),
    "split.test_size": ("split_test_size", "int"),
    "split.minority": ("split_minority", "csv"),
    "prune": ("prune", "csv"),
    "select.method": ("select_method", "str"),
    "select.k": ("select_k", "int"),
    "model.kind": ("model_kind", "str"),
    "part.min_leaf": ("part_min_leaf", "int"),
    "part.confidence": ("part_confidence", "float"),
    "part.prune": ("part_prune", "bool"),
    "rules.interval_lower": ("rules_interval_lower", "float"),
    "rules.interval_upper": ("rules_interval_upper", "float"),
    "rules.retransmission_deadline": ("rules_retransmission_deadline", "float"),
    "rules.delay_window": ("rules_delay_window", "float"),
    "rules.repetition_limit": ("rules_repetition_limit", "int"),
    "rules.rssi_min": ("rules_rssi_min", "float"),
    "rules.rssi_max": ("rules_rssi_max", "float"),
    "rules.collision_limit": ("rules_collision_limit", "int"),
    "rules.window": ("rules_window", "float"),
    "rules.max_sources_per_message": ("rules_max_sources_per_message", "int"),
    "pipeline.policy": ("pipeline_policy", "str"),
    "pipeline.alert_sink": ("pipeline_alert_sink", "str"),
    "detect.mode": ("detect_mode", "str"),
}

_FIELD_TO_KEY = {f: k for k, (f, _) in _KEYMAP.items()}


def _coerce(key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "csv":
            return tuple(s.strip() for s in raw.split(",") if s.strip())
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r} (expected {kind})") from None


def apply_setting(cfg: RunConfig, key: str, raw: str) -> RunConfig:
    if key not in _KEYMAP:
        raise ConfigError(f"unknown config key {key!r}")
    fname, kind = _KEYMAP[key]
    return replace(cfg, **{fname: _coerce(key, kind, raw)})


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base or RunConfig()
    for ln_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln_no}: expected `key = value`, got {line!r}")
        key, raw = stripped.split("=", 1)
        cfg = apply_setting(cfg, key.strip(), raw)
    return cfg


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    try:
        text = artifact.read_text(path)
    except DataError as exc:  # a config file that is not text is a config error
        raise ConfigError(str(exc)) from None
    return parse_config_text(text, base)


def render_config(cfg: RunConfig) -> str:
    """Commented flat dump of every knob (valid input for load_config)."""
    lines = ["# chids run configuration (key = value; `#` starts a comment)"]
    for f in fields(RunConfig):
        key = _FIELD_TO_KEY[f.name]
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"
