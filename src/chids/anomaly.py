"""Streaming first-line filter: seven threshold rules over cluster message
events, with sliding-window message state, plus a deterministic synthetic
scenario generator for exercising each rule.

Event model: the engine sits on the cluster head and watches its neighbors.
A `reception` event means `neighbor` received a message from `source` and is
expected to forward it; a `forward` event means the monitor overheard
`neighbor` retransmitting that message (source still names the message
originator); `collision` events are the monitor's own channel observations.
"""

from __future__ import annotations

import gc
import gzip
import os
import random
from collections import deque
from contextlib import contextmanager
from itertools import islice, repeat
from math import inf, isfinite
from sys import intern
from typing import Iterable, NamedTuple

from . import artifact
from .errors import DataError, InvalidOperation, IoError, UnknownScenario, UnorderedStream
from .rule_config import SCENARIOS, RuleConfig

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
RULE_IDS = tuple(RULE_TAGS)


class AnomalyEvent(NamedTuple):
    ts: float
    source: str
    neighbor: str
    kind: str
    msg_id: str
    digest: str
    rssi: float


class RuleVerdict(NamedTuple):
    event_index: int
    ts: float
    rule: str
    tags: tuple[str, ...]
    detail: str = ""


def _verdict(index: int, ts: float, rule: str, detail: str = "") -> RuleVerdict:
    return RuleVerdict(index, ts, rule, RULE_TAGS[rule], detail)


# A message keeps up to SMALL sightings as events, past it as counts: up to
# about 4, scanning the events costs no more time than keeping counts.
SMALL = 4


class _Counts:
    """The retained sightings of a message that passed SMALL of them, as
    counts: `n` sightings, the sightings per digest and the receptions per
    source, with no zero entries."""

    __slots__ = ("n", "digests", "rx")

    def __init__(self, events: tuple[AnomalyEvent, ...]):
        self.n, self.digests, self.rx = 0, {}, {}
        for e in events:
            self.shift(e, 1)

    def shift(self, e: AnomalyEvent, by: int) -> int:
        """Count a sighting in (`by` 1) or out (-1); the sightings left."""
        self.n += by
        _shift(self.digests, e.digest, by)
        if e.kind == RECEPTION:
            _shift(self.rx, e.source, by)
        return self.n


def _shift(counts: dict[str, int], key: str, by: int) -> None:
    if left := counts.get(key, 0) + by:
        counts[key] = left
    else:
        del counts[key]


class StreamEngine:
    """Online evaluator with sliding-window state.

    Retention horizon for message sightings is cfg.window; entries at or
    beyond the horizon are evicted, so the sightings are bounded by the
    window length times the event rate, and the armed forwards by the
    retransmission deadline times the reception rate. The last reception
    time of each source is never evicted, so state also grows with the
    number of distinct sources seen: the interval rule fires on a source's
    next reception after `interval_upper`, with that gap in its detail.
    Verdicts never depend on future events (prefix consistency).

    Timestamps must be finite and non-decreasing. A key is armed only while
    absent from `_pending`, so the dict's insertion order is (ts, index)
    order and the expired forwards are always a prefix of it: expiry scans
    and deletes that prefix, and its cost does not grow with the number
    armed. `_expiry` is a lower bound on the earliest armed deadline, so
    expiry does not scan at all while `ts <= _expiry`: the bound is the
    exact deadline when a key is armed into an empty `_pending` or a scan
    stops at an unexpired key, and inf when a scan empties `_pending`. A
    forward only removes a key, and a key armed later has a later deadline,
    so neither can lower the earliest deadline below the bound.

    Each retained sighting is its event in `_touch`, in time order, and is
    also held in its message's record in `_sightings`, in one of two forms.
    Up to SMALL sightings are the events themselves: a lone one is the
    event, and more are an exactly sized tuple in time order, which the
    rules scan. A message that passes SMALL sightings switches to
    `_Counts`, which the rules read in constant time, and keeps it until
    its last sighting leaves. Each message's events are a subsequence of
    `_touch`, so each eviction from `_touch` removes exactly its own
    sighting: the first event of the small form, or one from the counts.
    So the cost per event does not grow with a message's repeats.
    """

    def __init__(self, cfg: RuleConfig | None = None):
        self.cfg = cfg or RuleConfig()
        self._index = -1
        self._last_ts = float("-inf")
        self._last_rx: dict[str, float] = {}
        self._pending: dict[tuple[str, str], tuple[float, int]] = {}
        self._expiry = inf  # no armed deadline falls before it
        # a retained sighting is its event in `_touch` and in its message's record
        self._sightings: dict[str, AnomalyEvent | tuple[AnomalyEvent, ...] | _Counts] = {}
        self._touch: deque[AnomalyEvent] = deque()
        self._collisions: deque = deque()

    def state_size(self) -> int:
        # every retained sighting has one `_touch` entry: both are appended
        # together and evicted at the same horizon, so the sightings count twice
        return len(self._last_rx) + len(self._pending) + 2 * len(self._touch) + len(self._collisions)

    def process(self, event: AnomalyEvent) -> list[RuleVerdict]:
        self._index = i = self._index + 1
        ts, source, neighbor, kind, msg_id, digest, rssi = event
        if not isfinite(ts):
            raise DataError(f"event {i}: non-finite timestamp {ts!r}")
        if not isfinite(rssi):
            raise DataError(f"event {i}: non-finite rssi {rssi!r}")
        if ts < self._last_ts:
            raise UnorderedStream(f"event {i}: timestamp {ts} precedes {self._last_ts}")
        if kind not in EVENT_KINDS:
            raise DataError(f"event {i}: unknown kind {kind!r}")
        self._last_ts = ts
        cfg = self.cfg
        out: list[RuleVerdict] = []

        # Expire armed receptions whose forward deadline has passed, oldest
        # first (see the class docstring for why they form a prefix).
        pending = self._pending
        deadline = cfg.retransmission_deadline
        if ts > self._expiry:
            for key, (armed_ts, armed_i) in pending.items():
                if not ts > armed_ts + deadline:
                    self._expiry = armed_ts + deadline
                    break
                out.append(_verdict(armed_i, armed_ts, RULE_RETRANSMISSION, f"{key[0]}:{key[1]}"))
            else:
                self._expiry = inf
            if out:  # so far `out` holds one verdict per expired key
                for key in list(islice(pending, len(out))):
                    del pending[key]

        # Garbage-collect idle message state beyond the horizon, one
        # sighting at a time (see the class docstring).
        horizon = ts - cfg.window
        touch = self._touch
        sightings = self._sightings
        while touch and touch[0].ts <= horizon:
            old = touch.popleft()
            msg = old.msg_id
            seen = sightings[msg]
            if type(seen) is tuple:
                sightings[msg] = seen[1] if len(seen) == 2 else seen[1:]
            elif seen is old or not seen.shift(old, -1):  # a lone event, or no count left
                del sightings[msg]

        if kind == RECEPTION:
            prev = self._last_rx.get(source)
            if prev is not None:
                dt = ts - prev
                if dt < cfg.interval_lower or dt > cfg.interval_upper:
                    out.append(_verdict(i, ts, RULE_INTERVAL, f"dt={dt:.6g}"))
            self._last_rx[source] = ts
            key = (neighbor, msg_id)
            if key not in pending:
                if not pending:
                    self._expiry = ts + deadline
                pending[key] = (ts, i)
        elif kind == FORWARD:
            armed = pending.pop((neighbor, msg_id), None)
            if armed is not None and ts - armed[0] > cfg.delay_window:
                out.append(_verdict(i, ts, RULE_DELAY, f"lag={ts - armed[0]:.6g}"))
        else:  # collision
            collisions = self._collisions
            collisions.append(ts)
            while collisions and collisions[0] <= horizon:
                collisions.popleft()
            if len(collisions) > cfg.collision_limit:
                out.append(_verdict(i, ts, RULE_JAMMING, f"n={len(collisions)}"))
            return out

        # Sighting rules for receptions and forwards: integrity, then
        # repetition, then radio range. `repeats` counts this source's
        # receptions of the message, this one included; `others` counts the
        # other sources it was received from.
        seen = sightings.get(msg_id)
        repeats = 1
        others = 0
        if seen is None:  # first sighting: nothing earlier to compare with
            sightings[msg_id] = event
        elif (form := type(seen)) is _Counts:
            if seen.n > seen.digests.get(digest, 0):
                out.append(_verdict(i, ts, RULE_INTEGRITY, msg_id))
            if kind == RECEPTION:
                rx = seen.rx
                repeats += rx.get(source, 0)
                others = len(rx) - (source in rx)
            seen.shift(event, 1)
        else:  # scanned with this sighting, which matches itself
            seen = seen + (event,) if form is tuple else (seen, event)
            for e in seen:
                if e.digest != digest:
                    out.append(_verdict(i, ts, RULE_INTEGRITY, msg_id))
                    break
            if kind == RECEPTION:
                sources = [e.source for e in seen if e.kind == RECEPTION]
                repeats = sources.count(source)
                others = len(set(sources)) - 1
            sightings[msg_id] = seen if len(seen) <= SMALL else _Counts(seen)
        touch.append(event)
        rssi_bad = rssi < cfg.rssi_min or rssi > cfg.rssi_max
        if kind == RECEPTION:
            if repeats > cfg.repetition_limit:
                out.append(_verdict(i, ts, RULE_REPETITION, f"n={repeats}"))
            if rssi_bad or (repeats == 1 and others + 1 > cfg.max_sources_per_message):
                out.append(_verdict(i, ts, RULE_RADIO_RANGE, "rssi" if rssi_bad else "sources"))
        elif rssi_bad:
            out.append(_verdict(i, ts, RULE_RADIO_RANGE, "rssi"))
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


MIN_SEND_GAP = 0.1  # s between a benign source's sends, at least: every stream ends
MAX_EVENTS = 100_000  # in one generated scenario, at most; more is an InvalidOperation


def generate_stream(
    scenario: str, seed: int, cfg: RuleConfig | None = None
) -> list[AnomalyEvent]:
    """Deterministic synthetic event stream for one scenario.

    The benign scenario violates no rule under the given (default) config;
    each attack scenario violates at least its designated rule. The events
    are built as `read_stream` builds them, under `_building`.
    """
    with _building():
        return _generate(scenario, seed, cfg or RuleConfig())


def _generate(scenario: str, seed: int, cfg: RuleConfig) -> list[AnomalyEvent]:
    if scenario not in SCENARIOS:
        raise UnknownScenario(f"unknown scenario {scenario!r} (choose from {SCENARIOS})")
    rng = random.Random(seed)
    events: list[AnomalyEvent] = []

    def rssi():
        return rng.uniform(-80.0, -40.0)

    def emit(ts, source, neighbor, kind, msg, digest, level=None):
        if len(events) == MAX_EVENTS:
            raise InvalidOperation(f"{scenario}: more than {MAX_EVENTS} events under this config")
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
                t += max(MIN_SEND_GAP, rng.uniform(
                    cfg.interval_lower * 4.0,
                    min(cfg.interval_upper * 0.5, cfg.interval_lower * 16.0),
                ))
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
VERDICT_HEADER = "event_index\tts\trule\ttags\tdetail"


def write_stream(events: Iterable[AnomalyEvent], path) -> None:
    rows = ((repr(e.ts), e.source, e.neighbor, e.kind, e.msg_id, e.digest, repr(e.rssi))
            for e in events)
    artifact.write_text(path, artifact.table_text(STREAM_HEADER, rows, STREAM_MAGIC))


def _events(fields: list[str]) -> list[AnomalyEvent]:
    """The events of whole stream rows, given as their fields row after row,
    built a column at a time. Few distinct sources, neighbors and kinds:
    every event shares one copy of each."""
    n = len(AnomalyEvent._fields)
    return list(map(tuple.__new__, repeat(AnomalyEvent), zip(
        map(float, fields[0::n]), map(intern, fields[1::n]), map(intern, fields[2::n]),
        map(intern, fields[3::n]), fields[4::n], fields[5::n], map(float, fields[6::n]))))


@contextmanager
def _building():
    """Build many long-lived events: the cyclic GC is paused meanwhile, and
    once the build succeeds every tracked object is moved to the oldest
    generation unscanned (`gc.freeze()` then `gc.unfreeze()`, two list
    splices). Events are tracked tuples that make no cycles and outlive
    the build, so no collection could free one of them, yet the
    collections the build would set off, and the first two young ones
    after it, would walk them again and again.
    For the rest of the process this means that garbage cycles made before
    the build wait for the next full collection, and that objects a caller
    had frozen are unfrozen. The caller's enabled state is restored, also
    on a fault."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        gc.freeze()
        gc.unfreeze()
    finally:
        if enabled:
            gc.enable()


def _text_kib(path) -> int:
    """KiB of text in the stream file `path`: its size, or the length a gzip
    file's trailer gives (mod 2**32), taken as at most 8 times its size. It
    is 0 when the file cannot be read, and `read_rows` reports the fault."""
    try:
        size = os.path.getsize(path)
        if size >= 4:  # so no FIFO, whose size is 0, is opened
            with artifact.open_binary(path) as fh:
                if isinstance(fh, gzip.GzipFile):  # the trailer, read from the file beneath
                    fh.fileobj.seek(-4, os.SEEK_END)
                    size = min(int.from_bytes(fh.fileobj.read(4), "little"), 8 * size)
    except (OSError, IoError):
        return 0
    return size >> 10


def read_stream(path) -> list[AnomalyEvent]:
    """The events of a stream file, in file order, built by `_events` under
    `_building`.

    A forward shares its reception's `msg_id` object, and its `digest`
    object when the two digests are equal, through a table that lives for
    this read only: two lists with one slot per KiB of the file's text
    (`_text_kib`), at least 16, so 16 bytes per KiB. Each id has two slots,
    chosen by its hash. Before a block's events are built, each reception
    takes its first slot, or its second when only the first is occupied,
    and each forward that finds its id in either takes that slot's objects
    in place of its own and frees the slot for a later reception. The table
    never grows, so a colliding id only misses a share; values never
    change, only which object holds them. On the d10k benchmark stream 96%
    of the forwards share, and on the tests' `dense_traffic()` 52%, where
    an event holds 243 bytes instead of the 272 it holds with nothing
    shared."""
    n = max(16, _text_kib(path))
    ids, digests = [""] * n, [""] * n

    def build(fields: list[str]) -> list[AnomalyEvent]:
        for at in range(4, len(fields), len(AnomalyEvent._fields)):
            msg_id, kind = fields[at], fields[at - 1]
            h = hash(msg_id)
            slot = h % n  # the first of the id's two slots; h // n % n is the other
            if kind == RECEPTION:
                if ids[slot] and not ids[other := h // n % n]:
                    slot = other
                ids[slot], digests[slot] = msg_id, fields[at + 1]
            elif kind == FORWARD:
                if ids[slot] != msg_id:
                    slot = h // n % n
                if ids[slot] == msg_id:
                    fields[at] = ids[slot]
                    if digests[slot] == fields[at + 1]:
                        fields[at + 1] = digests[slot]
                    ids[slot] = digests[slot] = ""
        return _events(fields)

    with _building():
        return artifact.read_rows(path, STREAM_MAGIC, STREAM_HEADER, build)


def write_verdicts(verdicts: Iterable[RuleVerdict], path) -> None:
    rows = ((str(v.event_index), repr(v.ts), v.rule, ",".join(v.tags), v.detail) for v in verdicts)
    artifact.write_text(path, artifact.table_text(VERDICT_HEADER, rows, VERDICT_MAGIC))
