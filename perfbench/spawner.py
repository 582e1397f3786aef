"""Runs the benchmark's child processes and reports each one's wall
time, CPU time and peak resident memory.

Reads one JSON request per line on stdin, {"argv", "env", "cwd",
"log"}, and answers each with one JSON line [exit code, wall seconds,
CPU seconds, peak RSS in MB].  CPU time (user + system) and RSS come
from the child's own ``wait4`` rusage.

It runs as a separate small process because a child spawned with
vfork, as ``subprocess`` does, inherits its spawner's memory
high-water mark at exec: spawned from the benchmark process, which
holds library results of hundreds of MB, every child would report at
least that much.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=log,
                                    stderr=subprocess.STDOUT, env=req["env"],
                                    cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        print(json.dumps([proc.returncode, elapsed, cpu,
                          usage.ru_maxrss / 1024.0]), flush=True)


if __name__ == "__main__":
    main()
