import functools
import gc
import gzip
import hashlib
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SCENARIO_RULE, StreamEngineOracle, read_stream_oracle, replay_verdicts
from chids.anomaly import (
    COLLISION,
    EVENT_KINDS,
    FORWARD,
    RECEPTION,
    RULE_IDS,
    RULE_TAGS,
    SCENARIOS,
    STREAM_HEADER,
    STREAM_MAGIC,
    AnomalyEvent,
    RuleConfig,
    StreamEngine,
    RuleVerdict,
    SMALL,
    evaluate_stream,
    generate_stream,
    read_stream,
    write_stream,
    write_verdicts,
    _Counts,
)
from chids.errors import ChidsError, DataError, UnknownScenario, UnorderedStream

CFG = RuleConfig()


def ev(ts, kind=RECEPTION, source="s1", neighbor="n1", msg="m1", digest="d1", rssi=-60.0):
    return AnomalyEvent(ts, source, neighbor, kind, msg, digest, rssi)


def pairs(verdicts):
    return sorted((v.event_index, v.rule) for v in verdicts)


def random_stream(seed, n_events=40):
    """Fuzz stream covering every event kind and all rule families."""
    rng = random.Random(seed)
    t = 0.0
    events = []
    for _ in range(n_events):
        t += rng.uniform(0.0, 1.2)
        kind = rng.choices((RECEPTION, FORWARD, COLLISION), weights=(6, 3, 2))[0]
        events.append(
            AnomalyEvent(
                t,
                f"s{rng.randrange(4)}",
                f"n{rng.randrange(2)}",
                kind,
                f"m{rng.randrange(6)}",
                rng.choice(("da", "db")),
                rng.uniform(-120.0, -10.0),
            )
        )
    return events


class TestRules:
    def test_empty_stream(self):
        assert evaluate_stream([], CFG) == []

    def test_interval_too_fast(self):
        verdicts = evaluate_stream([ev(0.0, msg="a"), ev(0.1, msg="b")], CFG)
        interval = [v for v in verdicts if v.rule == "interval"]
        assert len(interval) == 1
        assert interval[0].event_index == 1
        assert "dos" in interval[0].tags and "hello_flood" in interval[0].tags

    def test_interval_too_slow(self):
        events = [ev(0.0, msg="a"), ev(0.3, kind=FORWARD, msg="a"), ev(40.0, msg="b")]
        verdicts = evaluate_stream(events, CFG)
        assert [(v.event_index, v.rule) for v in verdicts] == [(2, "interval")]

    def test_interval_is_per_source(self):
        verdicts = evaluate_stream(
            [ev(0.0, source="a", msg="1"), ev(0.1, source="b", msg="2")], CFG
        )
        assert [v for v in verdicts if v.rule == "interval"] == []

    def test_retransmission_fires_after_deadline(self):
        events = [ev(0.0), ev(5.0, source="s2", msg="m2")]  # clock passes deadline
        verdicts = evaluate_stream(events, CFG)
        retr = [v for v in verdicts if v.rule == "retransmission"]
        assert len(retr) == 1 and retr[0].event_index == 0

    def test_forward_within_deadline_silences(self):
        events = [ev(0.0), ev(0.5, kind=FORWARD)]
        assert [v.rule for v in evaluate_stream(events, CFG)] == []

    def test_no_fire_when_deadline_unreached_at_stream_end(self):
        # pending at end of stream stays silent (prefix consistency)
        assert evaluate_stream([ev(0.0)], CFG) == []

    def test_delay_rule(self):
        events = [ev(0.0), ev(1.5, kind=FORWARD)]
        verdicts = evaluate_stream(events, CFG)
        assert [(v.event_index, v.rule) for v in verdicts] == [(1, "delay")]

    def test_integrity_rule(self):
        events = [ev(0.0, digest="d1"), ev(0.6, kind=FORWARD, digest="CHANGED")]
        verdicts = evaluate_stream(events, CFG)
        assert ("integrity" in [v.rule for v in verdicts])
        tags = [v.tags for v in verdicts if v.rule == "integrity"][0]
        assert tags == ("modification",)

    def test_repetition_rule(self):
        events = [ev(1.0 * k, msg="mm") for k in range(1, 6)]
        # forwards keep the retransmission rule quiet
        events += [ev(1.0 * k + 0.2, kind=FORWARD, msg="mm") for k in range(1, 6)]
        events.sort(key=lambda e: e.ts)
        verdicts = evaluate_stream(events, CFG)
        reps = [v for v in verdicts if v.rule == "repetition"]
        assert len(reps) == 2  # 4th and 5th reception exceed limit 3

    def test_radio_range_rssi(self):
        verdicts = evaluate_stream([ev(0.0, rssi=-10.0)], CFG)
        assert [v.rule for v in verdicts] == ["radio_range"]
        assert "sybil" in verdicts[0].tags

    def test_radio_range_too_many_sources(self):
        events = [
            ev(0.0, source="a", msg="m"),
            ev(1.0, source="b", msg="m"),
            ev(2.0, kind=FORWARD, source="a", msg="m"),
        ]
        verdicts = evaluate_stream(events, CFG)
        radio = [v for v in verdicts if v.rule == "radio_range"]
        assert [v.event_index for v in radio] == [1]

    def test_jamming_rule(self):
        events = [ev(0.2 * k, kind=COLLISION, msg=f"c{k}") for k in range(8)]
        verdicts = evaluate_stream(events, CFG)
        jams = [v for v in verdicts if v.rule == "jamming"]
        assert len(jams) == 3  # collisions 6, 7 and 8 each exceed limit 5
        assert all(v.rule == "jamming" for v in verdicts)

    def test_unordered_stream_rejected(self):
        with pytest.raises(UnorderedStream):
            evaluate_stream([ev(1.0), ev(0.5, msg="m2")], CFG)

    @pytest.mark.parametrize(
        "bad",
        [
            {"ts": float("nan")},
            {"ts": float("inf")},
            {"rssi": float("nan")},
            {"rssi": float("-inf")},
        ],
    )
    def test_non_finite_event_rejected(self, bad):
        event = ev(**{"ts": 2.0, "msg": "m2", **bad})
        with pytest.raises(DataError):
            evaluate_stream([ev(1.0), event], CFG)

    def test_verdict_order(self):
        # Two receptions share a timestamp and expire on the same later
        # event; their neighbor names sort opposite to their indices. Key
        # (n3, m3) is disarmed by its forward and re-armed, so only its
        # second arming may expire. Expiry verdicts precede the event's own.
        events = [
            ev(0.0, source="s1", neighbor="nb", msg="m1"),
            ev(0.0, source="s2", neighbor="na", msg="m2"),
            ev(0.5, source="s3", neighbor="n3", msg="m3"),
            ev(0.8, kind=FORWARD, source="s3", neighbor="n3", msg="m3"),
            ev(1.5, source="s3", neighbor="n3", msg="m3"),
            ev(2.5, source="s4", neighbor="n4", msg="m4", rssi=-10.0),
            ev(4.0, kind=COLLISION, source="env", msg="c0"),
        ]
        retx, radio = RULE_TAGS["retransmission"], RULE_TAGS["radio_range"]
        assert evaluate_stream(events, CFG) == [
            RuleVerdict(0, 0.0, "retransmission", retx, "nb:m1"),
            RuleVerdict(1, 0.0, "retransmission", retx, "na:m2"),
            RuleVerdict(5, 2.5, "radio_range", radio, "rssi"),
            RuleVerdict(4, 1.5, "retransmission", retx, "n3:m3"),
        ]

    def test_rule_ids_and_tags_complete(self):
        assert len(RULE_IDS) == 7
        assert set(RULE_TAGS) == set(RULE_IDS)


class TestReplayEquivalence:
    @pytest.mark.parametrize("seed", range(50))
    def test_random_streams_match_replayer(self, seed):
        events = random_stream(seed)
        assert pairs(evaluate_stream(events, CFG)) == replay_verdicts(events, CFG)

    def test_scenario_streams_match_replayer(self):
        for scenario in SCENARIOS:
            for seed in (0, 1):
                events = generate_stream(scenario, seed, CFG)
                assert pairs(evaluate_stream(events, CFG)) == replay_verdicts(events, CFG), scenario


class TestPrefixConsistency:
    @pytest.mark.parametrize("seed", range(10))
    def test_prefix_verdicts_are_subset(self, seed):
        events = random_stream(seed, n_events=30)
        full = pairs(evaluate_stream(events, CFG))
        for cut in range(len(events) + 1):
            prefix = pairs(evaluate_stream(events[:cut], CFG))
            assert set(prefix) <= set(full)


class TestMemoryContract:
    def test_state_bounded_on_long_stream(self):
        # steady 10 ev/s for 200 s from 6 sources: state must track the
        # window, not the stream length
        rng = random.Random(99)
        engine = StreamEngine(CFG)
        peak = 0
        t = 0.0
        for k in range(2000):
            t += 0.1
            e = AnomalyEvent(
                t, f"s{k % 6}", "n1", RECEPTION if k % 3 else FORWARD,
                f"m{k // 2}", "d", rng.uniform(-80, -40),
            )
            engine.process(e)
            peak = max(peak, engine.state_size())
        # window 10 s * 10 ev/s = 100 retained sightings plus touch queue,
        # pending and per-source scalars; far below the 2000-event stream
        assert peak < 450


def dense_traffic(n_sources=10500, duration=2.0, seed=3):
    """Dense in-band cluster traffic: each source sends a message every
    1-3 s, its relay forwards it 0.1-0.5 s later, and 1% of the forwards
    are dropped. About 15k events, with every sighting still retained."""
    rng = random.Random(seed)
    events = []
    for s in range(n_sources):
        t = rng.uniform(0.0, 3.0)
        k = 0
        while t < duration:
            path = (f"s{s}", f"r{s % 16}")
            events.append(AnomalyEvent(t, *path, RECEPTION, f"m{s}.{k}", f"h{s}.{k}", rng.uniform(-80, -40)))
            if rng.random() >= 0.01:
                fw = t + rng.uniform(0.1, 0.5)
                events.append(AnomalyEvent(fw, *path, FORWARD, f"m{s}.{k}", f"h{s}.{k}", rng.uniform(-80, -40)))
            t += rng.uniform(1.0, 3.0)
            k += 1
    events.sort(key=lambda e: e.ts)
    return events


def traced(fn):
    """`fn()`, and the bytes tracemalloc counted as live after it and at its peak."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


class TestVerdictBytes:
    """The verdict file's sha256 for fixed streams. The replay oracle
    compares (index, rule) pairs only; these digests also pin each
    verdict's ts, tags and detail and the order of the verdicts. TIGHT
    makes the repetition rule and the "sources" reason of the radio-range
    rule fire often; with the default config every rule fires."""

    TIGHT = RuleConfig(window=2.0, repetition_limit=1, max_sources_per_message=2)
    DENSE = "a1275db24a77b9151d952210a3e61bdbaba1e4cdfd9abc63dd8e5da837a0a62e"
    RANDOM = {
        "default": (
            "813686972891718614e9d1dcabfc48a80653e5671d9790e923f25a528f36877a",
            "3e259a77f35a7e6229b03d74577443bf85b1b13fb784c3200ded5cb0fa9bb647",
            "44bd0a6205ea58ceb6973257b87dda9d098cf13e47ea0ca130a25732e01b0afc",
            "b574de0e8cb2144c2359e812b8eef5bb1523b8318198837a4a281a00b12bf6cf",
            "10c1f7d5addcd90fb21b7144d2db2bf5b2b786e10a1a96099dac9b08c8edbdd7",
        ),
        "tight": (
            "fc081e709290e469b6fee1914f23c63edeb2b1ef6deb0c240dd09006e6319650",
            "760a114c725bcc73e20968ec81b3d7af099670d632f81c9336b4eb164a336fb5",
            "cac3368c06273d6dbbe609706d708e8c6e9a9bc24ff913d6f3c16ac4ff4d0fc7",
            "b9cd4f43161e514fc5fd2ef5cca5a53cf2279ad632f3ffa3becf64f9332ae842",
            "b4c8412e7a96ae2624de2a5f5ba2a899ced77785fbb04d8506ba5791c9545e2c",
        ),
    }

    @staticmethod
    def digest(events, cfg, path):
        write_verdicts(evaluate_stream(events, cfg), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_dense_traffic(self, tmp_path):
        assert self.digest(dense_traffic(), CFG, tmp_path / "v.tsv") == self.DENSE

    @pytest.mark.parametrize("name", ["default", "tight"])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_stream(self, tmp_path, name, seed):
        cfg = CFG if name == "default" else self.TIGHT
        got = self.digest(random_stream(seed, n_events=2000), cfg, tmp_path / "v.tsv")
        assert got == self.RANDOM[name][seed]

    def test_every_rule_and_reason_fires(self):
        seen = set()
        for cfg in (CFG, self.TIGHT):
            for seed in range(5):
                for v in evaluate_stream(random_stream(seed, n_events=2000), cfg):
                    seen.add((v.rule, v.detail) if v.rule == "radio_range" else v.rule)
        assert seen == set(RULE_IDS) - {"radio_range"} | {
            ("radio_range", "rssi"), ("radio_range", "sources")}

    @pytest.mark.parametrize("bad, error, message", [
        ({"ts": float("nan")}, DataError, "event 1: non-finite timestamp nan"),
        ({"ts": float("inf")}, DataError, "event 1: non-finite timestamp inf"),
        ({"rssi": float("-inf")}, DataError, "event 1: non-finite rssi -inf"),
        ({"ts": 0.5}, UnorderedStream, "event 1: timestamp 0.5 precedes 1.0"),
        ({"kind": "beacon"}, DataError, "event 1: unknown kind 'beacon'"),
    ], ids=["nan-ts", "inf-ts", "inf-rssi", "unordered", "unknown-kind"])
    def test_rejected_event_message(self, bad, error, message):
        engine = StreamEngine(CFG)
        engine.process(ev(1.0))
        with pytest.raises(error) as caught:
            engine.process(ev(**{"ts": 2.0, "msg": "m2", **bad}))
        assert str(caught.value) == message


class TestMemoryFootprint:
    """Memory regression bounds: what the stream reader and the engine
    allocate, measured in-process with tracemalloc."""

    @pytest.fixture(scope="class")
    def stream_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("dense") / "stream.tsv"
        write_stream(dense_traffic(), path)
        return path

    def test_read_holds_no_copy_of_the_file(self, stream_file):
        _, current, peak = traced(lambda: read_stream(stream_file))
        assert peak - current < 0.05 * stream_file.stat().st_size

    def test_bytes_retained_per_event(self, stream_file):
        # a first copy keeps the strings events share alive, so the count
        # below leaves out the table that holds them, whose size depends on
        # what the process interned before
        first = read_stream(stream_file)
        events, current, _ = traced(lambda: read_stream(stream_file))
        assert events == first
        assert len(events) > 14000
        assert current / len(events) < 400

    def test_engine_bytes_per_state_unit(self, stream_file):
        events = read_stream(stream_file)

        def replay():
            engine = StreamEngine(CFG)
            for e in events:
                engine.process(e)
            return engine

        engine, current, _ = traced(replay)
        assert engine.state_size() > 2 * len(events)  # nothing has expired
        assert current / engine.state_size() < 35


class TestStateSize:
    """`state_size()` counts the retained sightings through `_touch`; it
    equals the sum over every piece of engine state after each event. A
    message's record holds one sighting if it is the event itself, else a
    tuple's events or the counts' `n`."""

    @staticmethod
    def brute_force(engine):
        def retained(record):
            if isinstance(record, _Counts):
                return record.n
            return 1 if isinstance(record, AnomalyEvent) else len(record)

        return (len(engine._last_rx) + len(engine._pending) + len(engine._touch)
                + sum(map(retained, engine._sightings.values())) + len(engine._collisions))

    @pytest.mark.parametrize("window", [0.5, 2.0, 10.0])
    def test_equals_sum_after_every_event(self, window):
        cfg = RuleConfig(window=window)
        streams = [random_stream(seed, n_events=80) for seed in range(20)]
        streams += [generate_stream(scenario, 0, cfg) for scenario in SCENARIOS]
        for events in streams:
            engine = StreamEngine(cfg)
            for e in events:
                engine.process(e)
                assert engine.state_size() == self.brute_force(engine)


@st.composite
def repeated_sightings(draw):
    """A config with a small window and repetition limit, and a stream of
    1-3 messages from 1-3 sources with 1-2 digests, dense enough that a
    message passes SMALL retained sightings and has them evicted again."""
    cfg = RuleConfig(window=draw(st.sampled_from((1.0, 2.0, 4.0))),
                     repetition_limit=draw(st.integers(1, 4)),
                     max_sources_per_message=draw(st.integers(1, 3)))
    n_msgs, n_sources, n_digests = (draw(st.integers(1, 3)) for _ in range(3))
    event = st.tuples(
        st.sampled_from((0.0, 0.0, 0.05, 0.1, 0.1, 0.25, 1.0, 5.0)),
        st.sampled_from((RECEPTION, RECEPTION, FORWARD, COLLISION)),
        st.integers(0, n_msgs - 1), st.integers(0, n_sources - 1), st.integers(0, n_digests - 1),
        st.sampled_from((-60.0, -60.0, -60.0, -100.0)))
    t = 0.0
    events = []
    n = draw(st.integers(1, 100))
    for step, kind, msg, src, digest, rssi in draw(st.lists(event, min_size=n, max_size=n)):
        t += step
        events.append(ev(t, kind, f"s{src}", f"n{src % 2}", f"m{msg}", f"d{digest}", rssi))
    return cfg, events


class TestEngineOracle:
    """The engine's per-message records give the verdicts and the state
    size of the reference engine, which scans each message's sightings,
    after every event: the full verdicts, in order."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(repeated_sightings())
    def test_matches_the_scanning_engine(self, case):
        cfg, events = case
        engine, oracle = StreamEngine(cfg), StreamEngineOracle(cfg)
        for e in events:
            assert engine.process(e) == oracle.process(e)
            assert engine.state_size() == oracle.state_size()

    def test_a_message_passes_small_and_drops_to_none(self):
        cfg = RuleConfig(window=2.0, repetition_limit=2)
        events = [ev(k / 8, source=f"s{k % 3}", digest=f"d{k % 2}") for k in range(3 * SMALL)]
        events.append(ev(20.0, source="s1"))  # every earlier sighting leaves
        engine, oracle = StreamEngine(cfg), StreamEngineOracle(cfg)
        forms = set()
        for e in events:
            assert engine.process(e) == oracle.process(e)
            assert engine.state_size() == oracle.state_size()
            forms.add(type(engine._sightings["m1"]).__name__)
        assert forms == {"AnomalyEvent", "tuple", "_Counts"}
        assert engine._sightings["m1"] is events[-1]  # the counts left with their last sighting


def best_cpu_time(fn, *args):
    """The least CPU time of three calls of `fn(*args)`, each with the
    cyclic GC paused: a full collection walks the whole test process."""
    best = float("inf")
    enabled = gc.isenabled()
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            t0 = time.process_time()
            fn(*args)
            best = min(best, time.process_time() - t0)
        finally:
            if enabled:
                gc.enable()
    return best


# one message seen again every 0.1 ms, all within the window
REPEATS = {
    "one_source": lambda k: ev(k * 1e-4),
    "new_source_each_time": lambda k: ev(k * 1e-4, source=f"s{k}"),
    "alternating_digests": lambda k: ev(k * 1e-4, digest=f"d{k % 2}"),
}


class TestScaling:
    """A message repeated within the window costs time linear in its
    repeats: 4N sightings take under 8 times as long as N. Scanning every
    retained sighting of the message made it about 15 times."""

    N = 2000

    @pytest.mark.parametrize("shape", REPEATS)
    def test_repeated_sightings(self, shape):
        def cost(n):
            return best_cpu_time(evaluate_stream, [REPEATS[shape](k) for k in range(n)], CFG)

        assert cost(4 * self.N) < 8 * cost(self.N)

    def test_replay_scenario(self):
        def cost(n):
            cfg = RuleConfig(interval_lower=1e-300, repetition_limit=n)
            return best_cpu_time(evaluate_stream, generate_stream("replay", 0, cfg), cfg)

        assert cost(4 * self.N) < 8 * cost(self.N)


class TestExpiry:
    """Armed receptions expire exactly as the replay oracle says when the
    expiry scan is skipped under its bound; the state count stays exact."""

    @staticmethod
    def replay(events):
        engine = StreamEngine(CFG)
        out = []
        for e in events:
            out += engine.process(e)
            assert engine.state_size() == TestStateSize.brute_force(engine)
        assert pairs(out) == replay_verdicts(events, CFG)
        return pairs(out)

    def test_head_forwarded_while_a_later_key_expires(self):
        events = [
            ev(0.0, source="s1", msg="a"),  # armed first: deadline 2.0
            ev(0.5, source="s2", msg="b"),  # deadline 2.5
            ev(1.0, kind=FORWARD, source="s1", msg="a"),  # the head leaves
            ev(2.25, source="s3", msg="c"),  # past 2.0, but b is not due
            ev(2.4, kind=COLLISION, msg="x0"),
            ev(2.75, kind=COLLISION, msg="x1"),  # b expires, c is not due
            ev(3.0, kind=FORWARD, source="s3", msg="c"),
            ev(5.0, kind=COLLISION, msg="x2"),
        ]
        assert self.replay(events) == [(1, "retransmission")]

    def test_all_expire_then_a_key_is_armed_into_the_empty_pending(self):
        events = [
            ev(0.0, source="s1", msg="a"),
            ev(0.5, source="s2", msg="b"),
            ev(3.0, source="s3", msg="c"),  # a and b expire, then c is armed
            ev(4.0, kind=COLLISION, msg="x0"),
            ev(5.5, kind=COLLISION, msg="x1"),  # c expires
            ev(6.0, source="s4", msg="d"),  # armed into the empty pending
            ev(6.5, kind=FORWARD, source="s4", msg="d"),
            ev(9.0, source="s5", msg="e"),
            ev(11.5, kind=COLLISION, msg="x2"),  # e expires
        ]
        assert self.replay(events) == [(0, "retransmission"), (1, "retransmission"),
                                       (2, "retransmission"), (7, "retransmission")]

    def test_an_event_at_the_deadline_does_not_fire(self):
        events = [
            ev(0.5, source="s1", msg="a"),  # deadline 2.5
            ev(1.0, source="s2", msg="b"),  # deadline 3.0
            ev(2.5, kind=COLLISION, msg="x0"),
            ev(2.5, kind=COLLISION, msg="x1"),
            ev(2.75, kind=COLLISION, msg="x2"),  # a expires, the scan stops at b
            ev(3.0, kind=COLLISION, msg="x3"),
            ev(3.25, kind=COLLISION, msg="x4"),  # b expires
        ]
        assert self.replay(events) == [(0, "retransmission"), (1, "retransmission")]
        assert [v.event_index for v in evaluate_stream(events[:6], CFG)] == [0]


class TestScenarios:
    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            generate_stream("meteor-strike", 0, CFG)

    @pytest.mark.parametrize("seed", range(3))
    def test_benign_is_silent(self, seed):
        events = generate_stream("benign", seed, CFG)
        assert len(events) > 20
        assert evaluate_stream(events, CFG) == []

    @pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s != "benign"])
    def test_attack_fires_designated_rule(self, scenario):
        for seed in (0, 1, 2):
            events = generate_stream(scenario, seed, CFG)
            rules = {v.rule for v in evaluate_stream(events, CFG)}
            assert SCENARIO_RULE[scenario] in rules, (scenario, seed, rules)

    def test_jamming_has_no_integrity_verdicts(self):
        events = generate_stream("jamming", 0, CFG)
        rules = [v.rule for v in evaluate_stream(events, CFG)]
        assert "jamming" in rules and "integrity" not in rules

    def test_hello_flood_tagged(self):
        events = generate_stream("hello-flood", 0, CFG)
        interval = [v for v in evaluate_stream(events, CFG) if v.rule == "interval"]
        assert interval and all("hello_flood" in v.tags for v in interval)


class TestStreamIo:
    def test_round_trip(self, tmp_path):
        events = generate_stream("sybil", 5, CFG)
        p = tmp_path / "stream.tsv"
        write_stream(events, p)
        assert read_stream(p) == events

    def test_missing_header_row_rejected(self, tmp_path):
        # without the check, the first event was taken for the header
        p = tmp_path / "stream.tsv"
        p.write_text(
            f"{STREAM_MAGIC}\n1.0\ts0\tn0\treception\tm0\td\t-60.0\n"
            "2.0\ts0\tn0\treception\tm1\td\t-60.0\n"
        )
        with pytest.raises(DataError, match="line 2"):
            read_stream(p)

    ROW = "1.0\ts0\tn0\treception\tm0\td\t-60.0"

    def write_rows(self, path, *rows, encoding="ascii"):
        path.write_bytes("\n".join([STREAM_MAGIC, STREAM_HEADER, *rows, ""]).encode(encoding))

    def test_crlf_line_endings(self, tmp_path):
        events = generate_stream("replay", 1, CFG)
        p = tmp_path / "stream.tsv"
        write_stream(events, p)
        p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
        assert read_stream(p) == events

    def test_blank_rows_skipped_line_numbers_kept(self, tmp_path):
        p = tmp_path / "stream.tsv"
        self.write_rows(p, "", self.ROW, "   ", " \t ", self.ROW)
        assert read_stream(p) == [ev(1.0, source="s0", neighbor="n0", msg="m0", digest="d")] * 2
        self.write_rows(p, "", self.ROW, "   ", " \t ", self.ROW.rsplit("\t", 1)[0])
        with pytest.raises(DataError, match=r"stream\.tsv: line 7: expected 7 fields, got 6"):
            read_stream(p)

    def test_six_field_row_exits_4_naming_its_line(self, tmp_path):
        p = tmp_path / "stream.tsv"
        self.write_rows(p, self.ROW, "2.0\ts0\tn0\treception\tm1\t-60.0")
        with pytest.raises(DataError, match=r"stream\.tsv: line 4: expected 7 fields") as info:
            read_stream(p)
        assert info.value.exit_code == 4

    def test_magic_line_only_reports_line_2(self, tmp_path):
        p = tmp_path / "stream.tsv"
        p.write_text(STREAM_MAGIC + "\n")
        with pytest.raises(DataError, match=r"stream\.tsv: line 2: expected"):
            read_stream(p)

    @pytest.mark.parametrize("row", [5, 2000])  # inside and beyond the first decoded chunk
    def test_non_ascii_row_is_not_ascii_text(self, tmp_path, row):
        p = tmp_path / "stream.tsv"
        rows = [self.ROW] * (row - 2)
        rows[-1] = rows[-1].replace("m0", "mé")
        self.write_rows(p, *rows, encoding="latin-1")
        with pytest.raises(DataError, match=r"stream\.tsv: not ASCII text"):
            read_stream(p)

    def test_control_characters_in_a_field_round_trip(self, tmp_path):
        # str.splitlines would break a row at each of these
        events = [ev(float(k), msg=f"m{k}", digest=f"a{c}b") for k, c in enumerate("\v\f\x1c\x1d\x1e")]
        p = tmp_path / "stream.tsv"
        write_stream(events, p)
        assert read_stream(p) == events


CONTROLS = ("", "a", "a\vb", "\f", "\x1c\x1d", "b\x1e")
# rows without an event: empty, whitespace only, or whitespace with as many
# tabs as an event row
BLANK_ROWS = ("", "   ", " \t ", "\t" * 6, " \t\t\t\t\t\t\v", "\x1c", "\f\v")
# the first row, either side of the boundaries between the reader's first
# blocks of 32 rows, and the last row
FAULT_ROWS = (1, 31, 32, 33, 63, 64, 65, "last")
FAULTS = (
    lambda row: row.rsplit("\t", 1)[0],  # 6 fields
    lambda row: row + "\t-60.0",  # 8 fields
    lambda row: "x" + row,  # a non-numeric ts
    lambda row: row + "x",  # a non-numeric rssi
    lambda row: "#" + row,  # an event row, not a comment: its ts is not a number
    lambda row: "# comment",
)


@st.composite
def stream_texts(draw):
    """A stream file's text: event rows with control characters in their
    fields, blank rows, mixed line ends, and at most one faulty row."""
    fault_at = draw(st.none() | st.sampled_from(FAULT_ROWS))
    n = draw(st.integers(fault_at if isinstance(fault_at, int) else 1, 100))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def event_row(k):
        return "\t".join((repr(k / 4), "s" + rng.choice(CONTROLS), "n" + rng.choice(CONTROLS),
                          rng.choice(EVENT_KINDS), "m" + rng.choice(CONTROLS),
                          rng.choice(CONTROLS), repr(-40.0 - k / 8)))

    rows = [rng.choice(BLANK_ROWS) if rng.random() < 0.125 else event_row(k) for k in range(n)]
    if fault_at is not None:
        k = n - 1 if fault_at == "last" else fault_at - 1
        rows[k] = draw(st.sampled_from(FAULTS))(event_row(k))
    lines = [STREAM_MAGIC, STREAM_HEADER, *rows]
    ends = [rng.choice(("\n", "\r\n", "\r")) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestStreamReaderOracle:
    """`read_stream` reads a block of rows at a time; it gives the events of
    the line-by-line reader, or its error with the same line number."""

    @staticmethod
    def outcome(read, path):
        try:
            return read(path)
        except ChidsError as exc:
            return type(exc), str(exc)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=stream_texts())
    def test_matches_the_line_by_line_reader(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "oracle-stream.tsv"
        p.write_bytes(text.encode("ascii"))
        assert self.outcome(read_stream, p) == self.outcome(read_stream_oracle, p)

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("bad_row", [None, 40], ids=["clean", "row-40-fails"])
    def test_gc_state_is_restored(self, tmp_path, enabled, bad_row):
        rows = [TestStreamIo.ROW] * 70
        if bad_row is not None:
            rows[bad_row - 1] = "x" + rows[bad_row - 1]
        p = tmp_path / "stream.tsv"
        p.write_text("\n".join([STREAM_MAGIC, STREAM_HEADER, *rows, ""]))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if bad_row is None:
                assert len(read_stream(p)) == 70
            else:
                with pytest.raises(DataError, match=r"stream\.tsv: line 42: malformed"):
                    read_stream(p)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_events_leave_in_the_oldest_generation(self, tmp_path, enabled):
        # No young collection can free an event, so none should walk them.
        rows = [f"{k}.0\ts{k % 7}\tn0\treception\tm{k}\td\t-60.0" for k in range(2000)]
        p = tmp_path / "stream.tsv"
        p.write_text("\n".join([STREAM_MAGIC, STREAM_HEADER, *rows, ""]))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            events = read_stream(p)
            young = gc.get_objects(generation=0) + gc.get_objects(generation=1)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert len(events) == 2000
        ids = set(map(id, events))
        assert not any(id(obj) in ids for obj in young)


def shared_forwards(events):
    """Of the forwards whose reception comes earlier, how many there are and
    how many hold the latest such reception's `msg_id` and `digest` objects."""
    last, n, shared = {}, 0, 0
    for e in events:
        if e.kind == RECEPTION:
            last[e.msg_id] = e
        elif e.kind == FORWARD and e.msg_id in last:
            rx = last[e.msg_id]
            n += 1
            shared += e.msg_id is rx.msg_id and e.digest is rx.digest
    return n, shared


class TestSharedIds:
    """`read_stream` hands a forward its reception's `msg_id` and `digest`
    objects through a table that never grows; the values are those a plain
    per-row parse gives, whatever the table shares or misses."""

    def test_forwards_hold_their_receptions_ids(self, tmp_path):
        p = tmp_path / "stream.tsv"
        write_stream(dense_traffic(), p)
        events = read_stream(p)
        n, shared = shared_forwards(events)
        assert n > 7000
        assert shared >= 0.45 * n
        assert events == read_stream_oracle(p)
        packed = tmp_path / "stream.tsv.gz"
        packed.write_bytes(gzip.compress(p.read_bytes()))
        assert read_stream(packed) == events

    @staticmethod
    def row(ts, kind, msg, digest, source="s0"):
        return f"{ts!r}\t{source}\tr0\t{kind}\t{msg}\t{digest}\t-60.0"

    def read_both(self, tmp_path, rows):
        p = tmp_path / "stream.tsv"
        p.write_text("\n".join([STREAM_MAGIC, STREAM_HEADER, *rows, ""]))
        try:
            events = read_stream(p)
        except ChidsError as exc:
            with pytest.raises(type(exc)) as oracle:
                read_stream_oracle(p)
            assert str(oracle.value) == str(exc)
            return None
        assert events == read_stream_oracle(p)
        assert all(type(v) is str for e in events for v in e[1:6])
        return events

    def test_a_changed_digest_shares_the_id_only(self, tmp_path):
        events = self.read_both(tmp_path, [self.row(0.0, RECEPTION, "m1", "d1"),
                                           self.row(0.1, FORWARD, "m1", "d1x")])
        rx, fwd = events
        assert fwd.msg_id is rx.msg_id and fwd.digest == "d1x"

    def test_unreceived_forwards_and_repeated_receptions(self, tmp_path):
        rows = [self.row(0.0, FORWARD, "m9", "d9"), self.row(0.1, RECEPTION, "m1", "d1"),
                self.row(0.2, FORWARD, "m1", "d1"), self.row(0.3, RECEPTION, "m1", "d1", "s1"),
                self.row(0.4, FORWARD, "m1", "d1", "s1"), self.row(0.5, FORWARD, "m8", "d1"),
                self.row(0.6, COLLISION, "m1", "d1")]
        events = self.read_both(tmp_path, rows)
        assert shared_forwards(events) == (2, 2)  # each forward after its reception
        assert events[2].msg_id is events[1].msg_id and events[4].msg_id is events[3].msg_id

    @pytest.mark.parametrize("n", [10, 400], ids=["under-1-KiB", "collisions"])
    def test_slot_collisions_only_miss_shares(self, tmp_path, n):
        """n receptions, then their forwards in reverse order. A file under
        1 KiB gets 16 slots and one of 31 KiB gets 31, so no more forwards
        share than the table has slots, and every value is kept."""
        rows = [self.row(k / 8, RECEPTION, f"m{k}", f"d{k}") for k in range(n)]
        rows += [self.row(n / 8 + k / 8, FORWARD, f"m{k}", f"d{k}" if k % 3 else "dx")
                 for k in reversed(range(n))]
        events = self.read_both(tmp_path, rows)
        size = (tmp_path / "stream.tsv").stat().st_size
        assert (size < 1024) == (n == 10)
        forwards, shared = shared_forwards(events)
        assert forwards == n and shared <= max(16, size >> 10)

    @staticmethod
    def slots(msg_id, n=16):
        """The two slots `read_stream`'s table of `n` slots offers `msg_id`."""
        h = hash(msg_id)
        return h % n, h // n % n

    def test_receptions_whose_first_slots_collide_both_share(self, tmp_path):
        a, *rest = (f"m{k}" for k in range(1000))
        first = self.slots(a)[0]
        b = next(m for m in rest if self.slots(m)[0] == first != self.slots(m)[1])
        events = self.read_both(tmp_path, [
            self.row(0.0, RECEPTION, a, "da"), self.row(0.1, RECEPTION, b, "db"),
            self.row(0.2, FORWARD, a, "da"), self.row(0.3, FORWARD, b, "db")])
        assert (tmp_path / "stream.tsv").stat().st_size < 1024  # 16 slots
        assert shared_forwards(events) == (2, 2)

    def test_a_freed_slot_takes_a_later_reception(self, tmp_path):
        """c's first slot holds d's pending reception and its second held a's,
        which a's forward has freed: c takes the freed slot, so d's forward
        still shares. Were a's slot kept, c would evict d."""
        d, a, *rest = (f"m{k}" for k in range(1, 20000))
        if self.slots(a)[0] == self.slots(d)[0]:
            a = next(m for m in rest if self.slots(m)[0] != self.slots(d)[0])
        want = self.slots(d)[0], self.slots(a)[0]
        c = next(m for m in rest if self.slots(m) == want)
        events = self.read_both(tmp_path, [
            self.row(0.0, RECEPTION, d, "dd"), self.row(0.1, RECEPTION, a, "da"),
            self.row(0.2, FORWARD, a, "da"), self.row(0.3, RECEPTION, c, "dc"),
            self.row(0.4, FORWARD, d, "dd"), self.row(0.5, FORWARD, c, "dc")])
        assert (tmp_path / "stream.tsv").stat().st_size < 1024  # 16 slots
        assert shared_forwards(events) == (3, 3)

    def test_a_gzip_stream_shares_as_the_plain_one(self, tmp_path):
        # the table is sized from the text the gzip trailer gives, not the bytes stored
        p = tmp_path / "stream.tsv"
        write_stream(dense_traffic(), p)
        packed = tmp_path / "stream.tsv.gz"
        packed.write_bytes(gzip.compress(p.read_bytes()))
        assert packed.stat().st_size < p.stat().st_size / 2
        assert shared_forwards(read_stream(packed)) == shared_forwards(read_stream(p))

    def test_a_gzip_trailer_that_claims_4_gib(self, tmp_path):
        """A trailer is trusted up to 8 slots per KiB stored: a small file
        that claims 4 GiB of text gets a small table, and fails as the plain
        parse fails it, naming the file."""
        rows = [self.row(k / 8, RECEPTION, f"m{k}", f"d{k}") for k in range(200)]
        p = tmp_path / "stream.tsv.gz"
        p.write_bytes(gzip.compress("\n".join([STREAM_MAGIC, STREAM_HEADER, *rows, ""]).encode())[:-4]
                      + b"\xff\xff\xff\xff")
        assert p.stat().st_size < 2048

        def read():
            with pytest.raises(DataError, match=r"stream\.tsv\.gz: damaged gzip data") as info:
                read_stream(p)
            return str(info.value)

        message, _, peak = traced(read)
        assert peak < 1 << 20  # a table sized from the trailer would take 64 MiB
        with pytest.raises(DataError) as oracle:
            read_stream_oracle(p)
        assert str(oracle.value) == message

    @pytest.mark.parametrize("fault", [None, "x"], ids=["blank-row", "faulty-row"])
    def test_a_block_built_row_by_row(self, tmp_path, fault):
        """Row 40 makes `read_rows` build its block (rows 33-64) row by row:
        a blank row is skipped, and a faulty one fails the read as the plain
        parse fails it, after the block's build has used the table."""
        rows = []
        for k in range(48):
            rows += [self.row(k / 4, RECEPTION, f"m{k}", f"d{k}"),
                     self.row(k / 4 + 0.1, FORWARD, f"m{k}", f"d{k}")]
        rows[39] = "\t" * 6 if fault is None else fault + rows[39]
        events = self.read_both(tmp_path, rows)
        if fault is None:
            assert len(events) == 95
            assert shared_forwards(events) == (47, 47)
        else:
            assert events is None


@functools.cache
def relation_stream(name):
    """The eight scenarios at seed 1 (74-89 events), and prefixes of dense
    traffic whose lengths straddle the reader's 32-row blocks and the
    writer's 1,024-row pieces."""
    if name in SCENARIOS:
        return generate_stream(name, 1, CFG)
    n = int(name.removeprefix("dense-"))
    events = dense_traffic(n_sources=1600, seed=5)[:n]
    assert len(events) == n
    return events


RELATION_STREAMS = (*SCENARIOS, "dense-31", "dense-33", "dense-1023", "dense-1025", "dense-2430")


def renamed(events, fields, seed):
    """`events` with the values of `fields` renamed by one seeded bijection
    onto new names."""
    names = sorted({getattr(e, f) for e in events for f in fields})
    new = [f"v{k}" for k in range(len(names))]
    random.Random(seed).shuffle(new)
    to = dict(zip(names, new))
    return [e._replace(**{f: to[getattr(e, f)] for f in fields}) for e in events]


class TestMetamorphicRelations:
    """The verdicts of a stream, as (event index, rule) pairs, written and
    read back through a file, do not move when its names are renamed or
    its clock is shifted. Each side reads its own file, so the reader's
    blocks and id table see other bytes, other sizes and other hashes."""

    @staticmethod
    def verdicts(events, path):
        write_stream(events, path)
        return pairs(evaluate_stream(read_stream(path), CFG))

    def check(self, tmp_path, name, moved):
        events = relation_stream(name)
        assert self.verdicts(moved(events), tmp_path / "moved.tsv") == \
            self.verdicts(events, tmp_path / "stream.tsv")

    @pytest.mark.parametrize("name", RELATION_STREAMS)
    def test_renaming_sources_and_neighbors(self, tmp_path, name):
        self.check(tmp_path, name, lambda events: renamed(events, ("source", "neighbor"), 11))

    @pytest.mark.parametrize("name", RELATION_STREAMS)
    def test_renaming_message_ids(self, tmp_path, name):
        self.check(tmp_path, name, lambda events: renamed(events, ("msg_id",), 12))

    @pytest.mark.parametrize("shift", [0.1, 1e3, 1e6, 1.7e9])
    @pytest.mark.parametrize("name", RELATION_STREAMS)
    def test_shifting_every_timestamp(self, tmp_path, name, shift):
        self.check(tmp_path, name, lambda events: [e._replace(ts=e.ts + shift) for e in events])


class TestGeneratorGc:
    """`generate_stream` builds its events with the cyclic GC paused, as
    `read_stream` does, and leaves the caller's GC state as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("limit", [None, 50], ids=["clean", "max-events-fails"])
    def test_gc_state_is_restored(self, monkeypatch, enabled, limit):
        from chids import anomaly
        from chids.errors import InvalidOperation

        if limit is not None:
            monkeypatch.setattr(anomaly, "MAX_EVENTS", limit)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if limit is None:
                assert len(generate_stream("sybil", 0)) > 50
            else:
                with pytest.raises(InvalidOperation, match="more than 50 events"):
                    generate_stream("sybil", 0)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_events_leave_in_the_oldest_generation(self):
        was = gc.isenabled()
        gc.enable()
        try:
            events = generate_stream("replay", 0, RuleConfig(repetition_limit=2000))
            young = gc.get_objects(generation=0) + gc.get_objects(generation=1)
        finally:
            (gc.enable if was else gc.disable)()
        assert len(events) > 4000
        ids = set(map(id, events))
        assert not any(id(obj) in ids for obj in young)


class TestRuleConfigValidation:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            RuleConfig(interval_lower=5.0, interval_upper=1.0)
        with pytest.raises(ValueError):
            RuleConfig(rssi_min=-10.0, rssi_max=-20.0)
        with pytest.raises(ValueError):
            RuleConfig(repetition_limit=0)
        with pytest.raises(ValueError):
            RuleConfig(window=-1.0)

    @pytest.mark.parametrize("name", ["repetition_limit", "collision_limit",
                                      "max_sources_per_message"])
    @pytest.mark.parametrize("value", [0.5, 2.0])
    def test_count_limits_are_ints(self, name, value):
        # generate_stream counts events with them: range() takes no float
        with pytest.raises(ValueError, match=f"{name} must be a positive int"):
            RuleConfig(**{name: value})


# Every rules.* key at each edge value: every config RuleConfig accepts
# generates each scenario's stream and evaluates it, or is refused as too
# large (InvalidOperation). Prints the refused (key, value, scenario) triples.
_EVERY_CONFIG_ENDS = """
import resource
from chids.anomaly import SCENARIOS, RuleConfig, evaluate_stream, generate_stream
from chids.errors import InvalidOperation

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # a runaway stream fails, not the host
for name in RuleConfig.__annotations__:
    for value in (0, -1, 1e-300, 1e308, 10**9):
        try:
            cfg = RuleConfig(**{name: value})
        except ValueError:
            continue
        for scenario in SCENARIOS:
            try:
                evaluate_stream(generate_stream(scenario, 0, cfg), cfg)
            except InvalidOperation:
                print(name, value, scenario)
"""


def test_every_accepted_rules_config_ends():
    # one child with a timeout, so that a scenario that never ends fails here
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _EVERY_CONFIG_ENDS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # only a count limit of 10**9 asks for more than MAX_EVENTS events
    assert proc.stdout.splitlines() == [
        "repetition_limit 1000000000 replay", "collision_limit 1000000000 jamming",
        "max_sources_per_message 1000000000 sybil"]


class TestLightweightImport:
    def test_anomaly_stage_loads_no_numpy(self):
        # the first-line filter on a cluster head loads only what it uses
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, chids.anomaly; print('numpy' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_stream_replay_loads_no_introspection(self, tmp_path):
        # reading a stream and replaying it, verdicts included, needs no
        # `dataclasses`, and so none of the modules it loads
        path = tmp_path / "s.tsv"
        write_stream(generate_stream("selective-forwarding", 0), path)
        child = ("import sys\n"
                 "from chids.anomaly import StreamEngine, read_stream\n"
                 "engine = StreamEngine()\n"
                 "n = sum(len(engine.process(e)) for e in read_stream(sys.argv[1]))\n"
                 "print(n, *sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
                 ".intersection(sys.modules)))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", child, str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        verdicts, *loaded = proc.stdout.split()
        assert int(verdicts) > 0
        assert loaded == []
