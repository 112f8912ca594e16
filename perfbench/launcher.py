"""Starts the benchmark's child processes and measures each one.

Linux carries a parent's peak RSS into every child it forks or spawns, so
a child's `ru_maxrss` is at least its parent's high-water mark. The
benchmark process grows while it sets up inputs; this small process does
not, so the children's peak RSS is their own.

Protocol: one JSON request per stdin line, {"argv", "env", "cwd", "log",
"timeout"}, answered by one JSON line {"code", "wall_s", "cpu_s",
"rss_mb"}. The child's stdout is discarded and its stderr goes to "log";
it is killed once "timeout" seconds have passed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.perf_counter()
        with open(req["log"], "wb") as err:
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
