"""Streaming first-line filter: seven threshold rules over cluster message
events, with bounded per-source state, plus a deterministic synthetic
scenario generator for exercising each rule.

Event model: the engine sits on the cluster head and watches its neighbors.
A `reception` event means `neighbor` received a message from `source` and is
expected to forward it; a `forward` event means the monitor overheard
`neighbor` retransmitting that message (source still names the message
originator); `collision` events are the monitor's own channel observations.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import artifact
from .errors import DataError, UnknownScenario, UnorderedStream

RECEPTION = "reception"
FORWARD = "forward"
COLLISION = "collision"
EVENT_KINDS = (RECEPTION, FORWARD, COLLISION)

RULE_INTERVAL = "interval"
RULE_RETRANSMISSION = "retransmission"
RULE_INTEGRITY = "integrity"
RULE_DELAY = "delay"
RULE_REPETITION = "repetition"
RULE_RADIO_RANGE = "radio_range"
RULE_JAMMING = "jamming"

RULE_IDS = (
    RULE_INTERVAL,
    RULE_RETRANSMISSION,
    RULE_INTEGRITY,
    RULE_DELAY,
    RULE_REPETITION,
    RULE_RADIO_RANGE,
    RULE_JAMMING,
)

# Suspected-attack tags carried by each rule's verdicts.
RULE_TAGS: dict[str, tuple[str, ...]] = {
    RULE_INTERVAL: ("dos", "hello_flood"),
    RULE_RETRANSMISSION: ("sinkhole", "selective_forwarding"),
    RULE_INTEGRITY: ("modification",),
    RULE_DELAY: ("dos",),
    RULE_REPETITION: ("dos",),
    RULE_RADIO_RANGE: ("sybil", "wormhole", "hello_flood"),
    RULE_JAMMING: ("jamming",),
}


@dataclass(frozen=True)
class AnomalyEvent:
    ts: float
    source: str
    neighbor: str
    kind: str
    msg_id: str
    digest: str
    rssi: float


@dataclass(frozen=True)
class RuleConfig:
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

    def __post_init__(self):
        if not (self.interval_lower < self.interval_upper):
            raise ValueError("interval_lower must be below interval_upper")
        if not (self.rssi_min < self.rssi_max):
            raise ValueError("rssi_min must be below rssi_max")
        for name in ("retransmission_deadline", "delay_window", "window", "repetition_limit",
                     "collision_limit", "max_sources_per_message"):
            if not getattr(self, name) > 0:  # also rejects nan
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class RuleVerdict:
    event_index: int
    ts: float
    rule: str
    tags: tuple[str, ...]
    detail: str = ""


def _verdict(index: int, ts: float, rule: str, detail: str = "") -> RuleVerdict:
    return RuleVerdict(index, ts, rule, RULE_TAGS[rule], detail)


class StreamEngine:
    """Online evaluator with sliding-window state.

    Retention horizon for message sightings is cfg.window; entries at or
    beyond the horizon are evicted, so state stays bounded by the window
    length times the event rate. Verdicts never depend on future events
    (prefix consistency).

    Timestamps must be finite and non-decreasing. A key is armed only while
    absent from `_pending`, so the dict's insertion order is (ts, index)
    order and the expired forwards are always a prefix of it: expiry pops
    from the front and its cost does not grow with the number armed.
    """

    def __init__(self, cfg: RuleConfig | None = None):
        self.cfg = cfg or RuleConfig()
        self._index = -1
        self._last_ts = float("-inf")
        self._last_rx: dict[str, float] = {}
        self._pending: dict[tuple[str, str], tuple[float, int]] = {}
        self._sightings: dict[str, deque] = {}
        self._touch: deque = deque()
        self._collisions: deque = deque()

    def state_size(self) -> int:
        # every retained sighting has one `_touch` entry: both are appended
        # together and evicted at the same horizon, so the sightings count twice
        return len(self._last_rx) + len(self._pending) + 2 * len(self._touch) + len(self._collisions)

    def process(self, event: AnomalyEvent) -> list[RuleVerdict]:
        self._index += 1
        i = self._index
        if not math.isfinite(event.ts):
            raise DataError(f"event {i}: non-finite timestamp {event.ts!r}")
        if not math.isfinite(event.rssi):
            raise DataError(f"event {i}: non-finite rssi {event.rssi!r}")
        if event.ts < self._last_ts:
            raise UnorderedStream(
                f"event {i}: timestamp {event.ts} precedes {self._last_ts}"
            )
        if event.kind not in EVENT_KINDS:
            raise DataError(f"event {i}: unknown kind {event.kind!r}")
        self._last_ts = event.ts
        cfg = self.cfg
        out: list[RuleVerdict] = []

        # Expire armed receptions whose forward deadline has passed, oldest
        # first (see the class docstring for why they form a prefix).
        pending = self._pending
        while pending:
            key = next(iter(pending))
            ts, idx = pending[key]
            if not event.ts > ts + cfg.retransmission_deadline:
                break
            del pending[key]
            out.append(_verdict(idx, ts, RULE_RETRANSMISSION, f"{key[0]}:{key[1]}"))

        # Garbage-collect idle message state beyond the horizon.
        horizon = event.ts - cfg.window
        while self._touch and self._touch[0][0] <= horizon:
            _, msg = self._touch.popleft()
            dq = self._sightings.get(msg)
            if dq is not None:
                while dq and dq[0][0] <= horizon:
                    dq.popleft()
                if not dq:
                    del self._sightings[msg]

        if event.kind == RECEPTION:
            prev = self._last_rx.get(event.source)
            if prev is not None:
                dt = event.ts - prev
                if dt < cfg.interval_lower or dt > cfg.interval_upper:
                    out.append(_verdict(i, event.ts, RULE_INTERVAL, f"dt={dt:.6g}"))
            self._last_rx[event.source] = event.ts
            key = (event.neighbor, event.msg_id)
            if key not in self._pending:
                self._pending[key] = (event.ts, i)
            out.extend(self._sighting_rules(event, i))
        elif event.kind == FORWARD:
            key = (event.neighbor, event.msg_id)
            armed = self._pending.pop(key, None)
            if armed is not None and event.ts - armed[0] > cfg.delay_window:
                out.append(_verdict(i, event.ts, RULE_DELAY, f"lag={event.ts - armed[0]:.6g}"))
            out.extend(self._sighting_rules(event, i))
        else:  # collision
            self._collisions.append(event.ts)
            while self._collisions and self._collisions[0] <= horizon:
                self._collisions.popleft()
            if len(self._collisions) > cfg.collision_limit:
                out.append(_verdict(i, event.ts, RULE_JAMMING, f"n={len(self._collisions)}"))
        return out

    def _sighting_rules(self, event: AnomalyEvent, i: int) -> list[RuleVerdict]:
        cfg = self.cfg
        out = []
        dq = self._sightings.setdefault(event.msg_id, deque())
        if any(d != event.digest for _, d, _, _ in dq):
            out.append(_verdict(i, event.ts, RULE_INTEGRITY, event.msg_id))
        count_bad = False
        if event.kind == RECEPTION:
            repeats = 1 + sum(
                1 for _, _, src, k in dq if k == RECEPTION and src == event.source
            )
            if repeats > cfg.repetition_limit:
                out.append(_verdict(i, event.ts, RULE_REPETITION, f"n={repeats}"))
            prev_sources = {src for _, _, src, k in dq if k == RECEPTION}
            count_bad = (
                event.source not in prev_sources
                and len(prev_sources) + 1 > cfg.max_sources_per_message
            )
        rssi_bad = event.rssi < cfg.rssi_min or event.rssi > cfg.rssi_max
        if rssi_bad or count_bad:
            why = "rssi" if rssi_bad else "sources"
            out.append(_verdict(i, event.ts, RULE_RADIO_RANGE, why))
        dq.append((event.ts, event.digest, event.source, event.kind))
        self._touch.append((event.ts, event.msg_id))
        return out


def evaluate_stream(
    events: Iterable[AnomalyEvent], cfg: RuleConfig | None = None
) -> list[RuleVerdict]:
    """Run the full rule set over a time-ordered event stream."""
    engine = StreamEngine(cfg)
    out: list[RuleVerdict] = []
    for e in events:
        out.extend(engine.process(e))
    return out


def filter_packets(records: Sequence, flagged) -> tuple[list, list]:
    """Partition records into (normal-pass, abnormal) by flagged index.

    `flagged` is any container of record positions carrying at least one
    verdict. The partition is exact: order preserved, disjoint, exhaustive.
    """
    flagged = set(flagged)
    normal, abnormal = [], []
    for i, r in enumerate(records):
        (abnormal if i in flagged else normal).append(r)
    return normal, abnormal


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

# The rule each attack scenario is built to violate.
SCENARIO_RULE = {
    "hello-flood": RULE_INTERVAL,
    "selective-forwarding": RULE_RETRANSMISSION,
    "sinkhole": RULE_RETRANSMISSION,
    "modification": RULE_INTEGRITY,
    "replay": RULE_REPETITION,
    "sybil": RULE_RADIO_RANGE,
    "jamming": RULE_JAMMING,
}


def generate_stream(
    scenario: str, seed: int, cfg: RuleConfig | None = None
) -> list[AnomalyEvent]:
    """Deterministic synthetic event stream for one scenario.

    The benign scenario violates no rule under the given (default) config;
    each attack scenario violates at least its designated rule.
    """
    cfg = cfg or RuleConfig()
    if scenario not in SCENARIOS:
        raise UnknownScenario(f"unknown scenario {scenario!r} (choose from {SCENARIOS})")
    rng = random.Random(seed)
    events: list[AnomalyEvent] = []

    def rssi():
        return rng.uniform(-80.0, -40.0)

    def emit(ts, source, neighbor, kind, msg, digest, level=None):
        events.append(AnomalyEvent(ts, source, neighbor, kind, msg, digest, level if level is not None else rssi()))

    def benign_traffic(sources, neighbor, start, horizon, alter=None, drop=None):
        """Forwarded traffic with in-band spacing; per-message hooks let the
        attack scenarios alter digests or drop forwards."""
        for src in sources:
            t = start + rng.uniform(0.0, 1.0)
            k = 0
            while t < horizon:
                msg = f"m-{src}-{k}"
                digest = f"d-{msg}"
                emit(t, src, neighbor, RECEPTION, msg, digest)
                if drop is None or not drop(src, k):
                    fwd_digest = digest if alter is None else alter(src, k, digest)
                    emit(t + rng.uniform(0.1, 0.5), src, neighbor, FORWARD, msg, fwd_digest)
                t += rng.uniform(
                    cfg.interval_lower * 4.0,
                    min(cfg.interval_upper * 0.5, cfg.interval_lower * 16.0),
                )
                k += 1

    horizon = 60.0
    benign_traffic(("s1", "s2", "s3"), "relay1", 1.0, horizon)

    if scenario == "hello-flood":
        gap = cfg.interval_lower / 10.0
        t = 20.0
        for k in range(6):
            msg = f"hf-{k}"
            emit(t, "adv", "relay1", RECEPTION, msg, f"d-{msg}")
            emit(t + gap / 2.0, "adv", "relay1", FORWARD, msg, f"d-{msg}")
            t += gap
    elif scenario == "selective-forwarding":
        benign_traffic(("s4",), "relay2", 5.0, 40.0, drop=lambda src, k: k in (2, 4, 6))
    elif scenario == "sinkhole":
        benign_traffic(("s5", "s6"), "sink", 5.0, 30.0, drop=lambda src, k: True)
    elif scenario == "modification":
        benign_traffic(
            ("s7",), "relay3", 5.0, 30.0, alter=lambda src, k, d: ("x" + d) if k % 2 == 0 else d
        )
    elif scenario == "replay":
        t = 10.0
        for k in range(cfg.repetition_limit + 3):
            emit(t, "rp", "relay1", RECEPTION, "m-replayed", "d-m-replayed")
            emit(t + 0.3, "rp", "relay1", FORWARD, "m-replayed", "d-m-replayed")
            t += cfg.interval_lower * 3.0
    elif scenario == "sybil":
        t = 15.0
        for k in range(cfg.max_sources_per_message + 3):
            emit(t, f"sy{k}", "relay1", RECEPTION, "m-sybil", "d-m-sybil")
            emit(t + 0.3, f"sy{k}", "relay1", FORWARD, "m-sybil", "d-m-sybil")
            t += 1.5
    elif scenario == "jamming":
        t = 25.0
        for k in range(cfg.collision_limit + 3):
            emit(t, "env", "relay1", COLLISION, f"c-{k}", "-", level=-60.0)
            t += cfg.window / (cfg.collision_limit + 4.0)

    events.sort(key=lambda e: e.ts)
    return events


STREAM_MAGIC = "#chids-stream v1"
STREAM_HEADER = "ts\tsource\tneighbor\tkind\tmsg_id\tdigest\trssi"
VERDICT_MAGIC = "#chids-verdicts v1"


def write_stream(events: Iterable[AnomalyEvent], path) -> None:
    with artifact.open_text(path, "w") as fh:
        fh.write(STREAM_MAGIC + "\n")
        fh.write(STREAM_HEADER + "\n")
        for e in events:
            fh.write(
                f"{e.ts!r}\t{e.source}\t{e.neighbor}\t{e.kind}\t{e.msg_id}\t{e.digest}\t{e.rssi!r}\n"
            )


def _event(ts, source, neighbor, kind, msg_id, digest, rssi) -> AnomalyEvent:
    return AnomalyEvent(float(ts), source, neighbor, kind, msg_id, digest, float(rssi))


def read_stream(path) -> list[AnomalyEvent]:
    return artifact.read_rows(path, STREAM_MAGIC, STREAM_HEADER, _event)


def write_verdicts(verdicts: Iterable[RuleVerdict], path) -> None:
    with artifact.open_text(path, "w") as fh:
        fh.write(VERDICT_MAGIC + "\n")
        fh.write("event_index\tts\trule\ttags\tdetail\n")
        for v in verdicts:
            fh.write(f"{v.event_index}\t{v.ts!r}\t{v.rule}\t{','.join(v.tags)}\t{v.detail}\n")
