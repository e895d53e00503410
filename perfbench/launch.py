"""Job launcher: runs each requested command and reports its wall time,
exit code and peak RSS.

A child's ru_maxrss counts the peak memory of the process that spawned it
(Linux folds the spawner's address space into it at exec), so jobs are not
spawned by run.py, which holds the generated inputs.  This helper imports
only the standard library and stays a few MB.

Protocol: one JSON request per stdin line, {"argv", "stdout", "stderr",
"timeout"}; one JSON reply per stdout line, {"wall_s", "rc", "rss_mb"}.
Children inherit this process's environment.  A job still running after
"timeout" seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
