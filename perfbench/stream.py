"""Seeded cluster traffic for the `stream` workload, and its replay child.

`generate` builds in-band traffic at a fixed density: every source sends a
message every 1-3 s, the relay forwards it 0.1-0.5 s later, and 1% of the
forwards are dropped. Under the default rule config only the
retransmission rule can fire, and exactly for the dropped forwards whose
2 s deadline passed before the last event.

`python3 perfbench/stream.py EVENTS RESULT [--trace]` replays one event
file through a fresh `anomaly.StreamEngine`, one `process()` call per event,
and writes throughput, per-event latency and verdicts to RESULT as JSON.
With `--trace`, `process()` is wrapped by the benchmark's recorder and
`state_size()` is sampled. The child runs under the speed sampler
(perfbench/speed.py); during the replay its reference blocks run between
events, outside the per-event latencies.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from speed import PERIOD_S, Sampler

FORWARD_DROP = 0.01
RETRANSMISSION_DEADLINE = 2.0  # RuleConfig default, which the replay uses
RELAYS = 16
STATE_SAMPLE_EVERY = 2000


def generate(density: int, duration: float, seed: int, path) -> list[int]:
    """Write events of roughly `density` per second of stream time over
    `duration` seconds to `path` in the chids stream format; returns the
    event indices the engine must report as retransmission failures: the
    dropped forwards whose deadline passed before the last event."""
    from chids.anomaly import FORWARD, RECEPTION, STREAM_MAGIC

    rng = random.Random(f"stream-{seed}-{density}")
    # each source emits (1 + (1 - drop)) events per mean 2 s send interval
    n_sources = max(1, round(density * 2.0 / (2.0 - FORWARD_DROP)))
    rows = []  # (ts, seq, line, dropped)
    for s in range(n_sources):
        tail = f"\ts{s}\tr{s % RELAYS}\t"
        t = rng.uniform(0.0, 3.0)
        k = 0
        while t < duration:
            msg = f"m{s}.{k}\th{s}.{k}\t"
            dropped = rng.random() < FORWARD_DROP
            rssi = rng.uniform(-80.0, -40.0)
            rows.append((t, len(rows), f"{t!r}{tail}{RECEPTION}\t{msg}{rssi!r}\n", dropped))
            if not dropped:
                fw, rssi = t + rng.uniform(0.1, 0.5), rng.uniform(-80.0, -40.0)
                rows.append((fw, len(rows), f"{fw!r}{tail}{FORWARD}\t{msg}{rssi!r}\n", False))
            t += rng.uniform(1.0, 3.0)
            k += 1
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(STREAM_MAGIC + "\nts\tsource\tneighbor\tkind\tmsg_id\tdigest\trssi\n")
        fh.writelines(r[2] for r in rows)
    last = rows[-1][0] if rows else 0.0
    return [i for i, r in enumerate(rows) if r[3] and last > r[0] + RETRANSMISSION_DEADLINE]


def replay(events_path: str, result_path: str, trace: bool) -> int:
    sampler = Sampler()
    sampler.start()
    from chids import anomaly

    rec = None
    if trace:
        from tracer import Recorder

        rec = Recorder()
        anomaly.StreamEngine.process = rec.wrap("anomaly.process", anomaly.StreamEngine.process)
    events = anomaly.read_stream(events_path)
    engine = anomaly.StreamEngine()
    process = engine.process
    clock = time.perf_counter_ns
    lat = [0] * len(events)
    verdicts = []
    failed = 0
    peak_state = 0
    period_ns = round(PERIOD_S * 1e9)
    sampler.pause()  # from here on the loop ticks between events
    raw0, adjusted0 = sampler.raw_s, sampler.adjusted_s
    next_tick = clock() + period_ns
    for i, e in enumerate(events):
        c0 = clock()
        try:
            out = process(e)
        except Exception:  # counted against the attempted events
            failed += 1
            out = ()
        c1 = clock()
        lat[i] = c1 - c0
        for v in out:
            verdicts.append((v.event_index, v.rule))
        if trace and i % STATE_SAMPLE_EVERY == 0:
            peak_state = max(peak_state, engine.state_size())
        if c1 >= next_tick:
            sampler.tick()
            next_tick = clock() + period_ns
    sampler.tick()
    replay_s = sampler.raw_s - raw0
    replay_adjusted_s = sampler.adjusted_s - adjusted0
    if trace:
        peak_state = max(peak_state, engine.state_size())
    lat.sort()
    n = len(lat)
    result = {
        "events": n,
        "failed": failed,
        "replay_s": replay_s,
        "replay_adjusted_s": replay_adjusted_s,
        "eps": n / replay_adjusted_s if replay_adjusted_s > 0 else 0.0,
        "p50_us": lat[n // 2] / 1e3 if n else 0.0,
        "p99_us": lat[min(n - 1, (99 * n) // 100)] / 1e3 if n else 0.0,
        "verdicts": verdicts,
    }
    if rec is not None:
        result["peak_state"] = peak_state
        result["trace"] = rec.to_json()
    sampler.stop()
    result["speed"] = sampler.to_json()
    Path(result_path).write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(replay(args[0], args[1], "--trace" in args[2:]))
