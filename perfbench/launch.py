"""Run one command and report its wall time and peak RSS as JSON on stdout.

    python3 perfbench/launch.py LOG TIMEOUT_S COMMAND...

A child's peak RSS as reported by wait4 includes the high-water mark of the
process that forked it, so the benchmark, which holds whole tensors while
it checks outputs, does not fork the program itself.  This launcher imports
nothing heavy and stays small; it spawns the command, sends its stderr to
LOG, and times it from spawn to exit.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    log_path, timeout_s, command = argv[0], float(argv[1]), argv[2:]
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    print(json.dumps({"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
                      "rss_mb": usage.ru_maxrss * 1024 / 1e6}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
