"""The rule engine's settings: `RuleConfig`, the `rules.*` section of a run
configuration, and the names of the scenarios `chids simulate` generates;
and `Settings`, the base of every settings record.

It imports only the standard library, so `config` and `cli` read these
without loading the engine. It is a module of its own, apart from
`sections`, so that `anomaly`, which the first-line filter loads alone,
builds none of the classifier's settings.

A `Settings` subclass declares its fields as annotated class attributes,
whose values are the defaults. An instance is built by position, in field
order, or by keyword, and its `_check` runs once every field is set. It is
immutable, compares equal only to an instance of its own class with equal
fields, hashes and prints as a frozen dataclass would, and `_replace` gives
a checked copy with some fields changed. So no command loads `dataclasses`.
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


class Settings:
    """Base of a settings record; see the module docstring."""

    def __init__(self, *args, **values):
        cls = type(self)
        names = tuple(cls.__annotations__)
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments, got {len(args)}")
        for name, value in zip(names, args):
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        unknown = values.keys() - names
        if unknown:
            raise TypeError(f"{cls.__name__}() got unexpected keyword arguments {sorted(unknown)}")
        for name in names:
            object.__setattr__(self, name, values.get(name, getattr(cls, name)))
        self._check()

    def _check(self) -> None:
        """Raise ValueError if a field's value is out of range."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__annotations__)

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self.__annotations__, self._values())), **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__annotations__, self._values()))
        return f"{type(self).__qualname__}({fields})"


class RuleConfig(Settings):
    """Thresholds for the seven rules. The defaults suit the synthetic
    harness; deployments are expected to tune them."""

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

    def _check(self) -> None:
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
