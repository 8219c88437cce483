"""Runs the benchmark's CLI commands from a process that stays small.

A child started by fork or vfork begins with its parent's peak RSS as
its own ru_maxrss, so a command launched straight from the benchmark
process, which holds generated inputs and a loaded model, would report
the benchmark's memory instead of its own. This helper is a bare
interpreter: it reads one JSON request per stdin line
({"argv", "cwd", "env"}), runs the command to completion and writes one
JSON reply per stdout line with the exit code, wall time, the child's
own peak RSS and its stderr. It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        with proc.stderr:
            stderr = proc.stderr.read()
        # wait4 rather than wait: it returns this child's own rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss,
            "stderr": stderr.decode("utf-8", "replace")[-4000:],
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
