import random

import pytest

from oracles import replay_verdicts
from chids.anomaly import (
    COLLISION,
    FORWARD,
    RECEPTION,
    RULE_IDS,
    RULE_TAGS,
    SCENARIO_RULE,
    SCENARIOS,
    STREAM_MAGIC,
    AnomalyEvent,
    RuleConfig,
    StreamEngine,
    RuleVerdict,
    evaluate_stream,
    filter_packets,
    generate_stream,
    read_stream,
    write_stream,
)
from chids.errors import DataError, UnknownScenario, UnorderedStream

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


class TestStateSize:
    """`state_size()` counts the retained sightings through `_touch`; it
    equals the sum over every piece of engine state after each event."""

    @staticmethod
    def brute_force(engine):
        return (len(engine._last_rx) + len(engine._pending) + len(engine._touch)
                + sum(len(d) for d in engine._sightings.values()) + len(engine._collisions))

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


class TestFilterPackets:
    def test_all_normal_passes(self):
        records = list(range(10))
        normal, abnormal = filter_packets(records, set())
        assert normal == records and abnormal == []

    def test_single_violation_forwarded(self):
        records = list(range(10))
        normal, abnormal = filter_packets(records, {4})
        assert abnormal == [4]
        assert normal == [0, 1, 2, 3, 5, 6, 7, 8, 9]

    @pytest.mark.parametrize("seed", range(10))
    def test_partition_exact(self, seed):
        rng = random.Random(seed)
        records = [f"r{i}" for i in range(100)]
        flagged = {i for i in range(100) if rng.random() < 0.3}
        normal, abnormal = filter_packets(records, flagged)
        assert len(normal) + len(abnormal) == 100
        assert set(normal) | set(abnormal) == set(records)
        assert not (set(normal) & set(abnormal))
        assert abnormal == [f"r{i}" for i in sorted(flagged)]


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
