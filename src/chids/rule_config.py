"""The rule engine's settings: `RuleConfig`, the `rules.*` section of a run
configuration, and the names of the scenarios `chids simulate` generates.

It imports only the standard library, so `config` and `cli` read these
without loading the engine. It is a module of its own, apart from
`sections`, so that `anomaly`, which the first-line filter loads alone,
builds none of the classifier's settings.
"""

from __future__ import annotations

from math import inf, isfinite

# synthetic event scenarios (`chids simulate --scenario`)
SCENARIOS = (
    "benign",
    "hello-flood",
    "selective-forwarding",
    "sinkhole",
    "modification",
    "replay",
    "sybil",
    "jamming",
)


class RuleConfig:
    """Thresholds for the seven rules. The defaults suit the synthetic
    harness; deployments are expected to tune them.

    Built by keyword, checked at construction and immutable, with value
    equality, hash and repr over its annotated fields, as a frozen
    dataclass would be; written out so that the first-line filter loads no
    `dataclasses`. The class attributes are the defaults.
    """

    interval_lower: float = 0.5
    interval_upper: float = 30.0
    retransmission_deadline: float = 2.0
    delay_window: float = 1.0
    repetition_limit: int = 3
    rssi_min: float = -95.0
    rssi_max: float = -20.0
    collision_limit: int = 5
    window: float = 10.0
    max_sources_per_message: int = 1

    def __init__(self, **values):
        unknown = values.keys() - self.__annotations__
        if unknown:
            raise TypeError(f"RuleConfig() got unexpected keyword arguments {sorted(unknown)}")
        for name in self.__annotations__:
            object.__setattr__(self, name, values.get(name, getattr(RuleConfig, name)))
        for name in ("interval_lower", "interval_upper", "rssi_min", "rssi_max"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.interval_lower < self.interval_upper):
            raise ValueError("interval_lower must be below interval_upper")
        if not (self.rssi_min < self.rssi_max):
            raise ValueError("rssi_min must be below rssi_max")
        for name in ("retransmission_deadline", "delay_window", "window"):
            if not 0 < getattr(self, name) < inf:  # also rejects nan
                raise ValueError(f"{name} must be positive and finite")
        for name in ("repetition_limit", "collision_limit", "max_sources_per_message"):
            if not isinstance(getattr(self, name), int) or getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive int")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__annotations__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is RuleConfig else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__annotations__)
        return f"RuleConfig({fields})"
