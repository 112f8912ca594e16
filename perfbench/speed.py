"""Speed-adjusted timing: the program's time at the machine's reference speed.

The benchmark's machine is a shared virtual machine whose CPU speed drifts
by up to 2x over seconds to minutes, in user time as much as in wall time,
so raw times of the same code spread by more than any useful bound. The
sampler below measures that speed while the program runs: a timer signal
interrupts the program every `PERIOD_S` seconds and runs one fixed
reference block, a few milliseconds of pure-Python string and dict work.
Each stretch of program time between two blocks is scaled by how much
slower than nominal the block right after it ran:

    adjusted_s = sum(stretch_s * BLOCK_S / block_s)

`raw_s` is the program's own time, the blocks left out. On a machine that
runs at the nominal speed the two agree; a change that makes the program
twice as fast halves both. The blocks run on the same CPU as the program
(the benchmark pins itself and its children to one CPU), so they see the
same slowdowns.

`python3 perfbench/speed.py RESULT_JSON [--trace] CLI_ARGS...` runs
`chids.cli.main(CLI_ARGS)` under the sampler and writes {"speed": `raw_s`,
`adjusted_s` and the block statistics} to RESULT_JSON; its exit code is
the command's. With `--trace`, chids' public functions are wrapped first
(perfbench/tracer.py) and the recorder goes to RESULT_JSON as "trace". The
blocks then also run inside wrapped calls, in proportion to their time.
"""

from __future__ import annotations

import json
import signal
import sys
import time

PERIOD_S = 0.1
BLOCK_N = 3000
# Nominal time of one block: its mean over 100 s of CLI runs on the 2-vCPU
# virtual machine the benchmark was tuned on. Only a scale: changing it
# rescales every adjusted time alike.
BLOCK_S = 0.004


def block() -> float:
    """Run the reference work once; its wall time."""
    t0 = time.perf_counter()
    d = {}
    for i in range(BLOCK_N):
        parts = f"{i},tcp,http,SF,{i * 7 % 1000}.5".split(",")
        d[parts[0]] = float(parts[4]) + len(parts[2])
    return time.perf_counter() - t0


class Sampler:
    """Splits the time since `start` into program stretches and reference
    blocks. `tick` closes a stretch with a block; it is called by the
    timer signal, and may be called directly."""

    def __init__(self):
        self.raw_s = 0.0
        self.adjusted_s = 0.0
        self.blocks: list[float] = []
        self._last = 0.0
        self._busy = False

    def start(self) -> None:
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def pause(self) -> None:
        """Close the current stretch and stop the timer, e.g. while a child
        process runs on the same CPU."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.tick()

    def resume(self) -> None:
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def add(self, other: dict) -> None:
        """Count a child's time, from its `to_json()`, as this sampler's."""
        self.raw_s += other["raw_s"]
        self.adjusted_s += other["adjusted_s"]

    def tick(self) -> None:
        if self._busy:  # the timer fired during a direct tick
            return
        self._busy = True
        try:
            stretch = time.perf_counter() - self._last
            b = block()
            self.raw_s += stretch
            self.adjusted_s += stretch * BLOCK_S / b
            self.blocks.append(b)
            self._last = time.perf_counter()
        finally:
            self._busy = False

    def to_json(self) -> dict:
        n = len(self.blocks)
        return {
            "raw_s": self.raw_s,
            "adjusted_s": self.adjusted_s,
            "blocks": n,
            "block_mean_s": sum(self.blocks) / n if n else 0.0,
        }


def main(argv) -> int:
    result_path, cli_args = argv[0], argv[1:]
    trace = cli_args[:1] == ["--trace"]
    if trace:
        cli_args = cli_args[1:]
    sampler = Sampler()
    sampler.start()
    result = {}
    try:
        if trace:
            from tracer import Recorder, instrument

            rec = Recorder()
            instrument(rec)
        from chids import cli

        return cli.main(cli_args)
    finally:
        sampler.stop()
        result["speed"] = sampler.to_json()
        if trace:
            result["trace"] = rec.to_json()
        with open(result_path, "w", encoding="ascii") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
