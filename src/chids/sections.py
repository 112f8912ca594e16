"""The plain settings and tables that `config` and the classifier's stage
modules share.

The `part.*`, `pipeline.*` and `split.*` sections of a run configuration are
the `rule_config.Settings` records below. The feature table, the five
classes and the scorer names are what `config` checks a value against. This module and
`rule_config`, which holds the `rules.*` section, import only the standard
library and `errors`. So `config` and `cli` load no stage module, and no
numpy, to build and check a run's settings. Each stage module imports from
here what it uses.
"""

from __future__ import annotations

import enum

from .errors import DataError
from .rule_config import Settings

NUMERIC = "numeric"
NOMINAL = "nominal"

# Standard 41-feature connection-record schema: 34 numeric + 7 nominal
# (protocol_type, service, flag, land, logged_in, is_host_login,
# is_guest_login are the symbolic ones).
FEATURE_TABLE: tuple[tuple[str, str], ...] = (
    ("duration", NUMERIC),
    ("protocol_type", NOMINAL),
    ("service", NOMINAL),
    ("flag", NOMINAL),
    ("src_bytes", NUMERIC),
    ("dst_bytes", NUMERIC),
    ("land", NOMINAL),
    ("wrong_fragment", NUMERIC),
    ("urgent", NUMERIC),
    ("hot", NUMERIC),
    ("num_failed_logins", NUMERIC),
    ("logged_in", NOMINAL),
    ("num_compromised", NUMERIC),
    ("root_shell", NUMERIC),
    ("su_attempted", NUMERIC),
    ("num_root", NUMERIC),
    ("num_file_creations", NUMERIC),
    ("num_shells", NUMERIC),
    ("num_access_files", NUMERIC),
    ("num_outbound_cmds", NUMERIC),
    ("is_host_login", NOMINAL),
    ("is_guest_login", NOMINAL),
    ("count", NUMERIC),
    ("srv_count", NUMERIC),
    ("serror_rate", NUMERIC),
    ("srv_serror_rate", NUMERIC),
    ("rerror_rate", NUMERIC),
    ("srv_rerror_rate", NUMERIC),
    ("same_srv_rate", NUMERIC),
    ("diff_srv_rate", NUMERIC),
    ("srv_diff_host_rate", NUMERIC),
    ("dst_host_count", NUMERIC),
    ("dst_host_srv_count", NUMERIC),
    ("dst_host_same_srv_rate", NUMERIC),
    ("dst_host_diff_srv_rate", NUMERIC),
    ("dst_host_same_src_port_rate", NUMERIC),
    ("dst_host_srv_diff_host_rate", NUMERIC),
    ("dst_host_serror_rate", NUMERIC),
    ("dst_host_srv_serror_rate", NUMERIC),
    ("dst_host_rerror_rate", NUMERIC),
    ("dst_host_srv_rerror_rate", NUMERIC),
)

# Features with no discriminating value on the stock corpus; pruned by default.
DEFAULT_PRUNE = (
    "is_host_login",
    "num_outbound_cmds",
    "urgent",
    "su_attempted",
    "land",
    "num_failed_logins",
)


class AttackClass(enum.IntEnum):
    """Five traffic classes; the integer order is the fixed tie-break order."""

    NORMAL = 0
    DOS = 1
    PROBE = 2
    R2L = 3
    U2R = 4

    @property
    def tag(self) -> str:
        return self.name.lower()

    @classmethod
    def from_tag(cls, tag: str) -> "AttackClass":
        if tag.upper() not in cls.__members__:
            raise DataError(f"unknown class {tag!r}")
        return cls[tag.upper()]


# feature scorers (`select.method`)
CHI2 = "chi2"
IGR = "igr"

POLICY_ALERT_UNRESOLVED = "alert_unresolved"
POLICY_TRUST_MISUSE = "trust_misuse"
POLICIES = (POLICY_ALERT_UNRESOLVED, POLICY_TRUST_MISUSE)


class TreeParams(Settings):
    """The `part.*` section: the settings of PART's partial trees, which are
    always pruned by subtree replacement."""

    min_leaf: int = 2          # smallest admissible branch size
    confidence: float = 0.25   # pessimistic-error confidence factor

    def _check(self) -> None:
        if not self.min_leaf >= 1:
            raise ValueError("min_leaf must be >= 1")
        if not (0 < self.confidence <= 0.5 and 1.0 - self.confidence < 1.0):  # inv_cdf(1 - c) needs 1 - c < 1
            raise ValueError("confidence must be in (0, 0.5], with 1 - confidence below 1")


class PipelineConfig(Settings):
    policy: str = POLICY_ALERT_UNRESOLVED
    alert_sink: str = "alerts.log"  # file name (or path) emit_alerts writes to

    def _check(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if not self.alert_sink:
            raise ValueError("alert_sink must not be empty")


class SplitSpec(Settings):
    """Sampling plan: minority classes are fully enumerated 2/3-1/3, the rest
    fill the remaining slots proportionally to their deduplicated frequencies."""

    train_size: int = 20000
    test_size: int = 10000
    minority_classes: tuple[AttackClass, ...] = (AttackClass.PROBE, AttackClass.R2L, AttackClass.U2R)
    seed: int = 0
