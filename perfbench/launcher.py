"""Starts the benchmark's child processes from a process with a small footprint.

Linux charges a child's peak resident set from the moment it is forked, so a
child forked by the runner (which holds large reference series) would report
the runner's size as its own.  The runner therefore starts this launcher
once and sends it one request per line on standard input:

    {"argv": [...], "stderr": "path", "timeout": seconds}

For each request the launcher runs the child with the launcher's own
environment and working directory, times it from spawn to reaping, and
replies with one JSON line

    {"wall": s, "code": exit code, "maxrss_kib": n, "nbytes": n}

followed by the child's standard output (nbytes bytes).  A child still
running after `timeout` seconds is killed.  End of input ends the launcher.
"""

import json
import os
import select
import signal
import sys
from time import perf_counter


def run(argv, stderr_path, timeout):
    rfd, wfd = os.pipe()
    err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    devnull = os.open(os.devnull, os.O_RDONLY)
    chunks = []
    t0 = perf_counter()
    pid = os.posix_spawn(
        argv[0], argv, os.environ,
        file_actions=[
            (os.POSIX_SPAWN_DUP2, devnull, 0),
            (os.POSIX_SPAWN_DUP2, wfd, 1),
            (os.POSIX_SPAWN_DUP2, err, 2),
        ],
    )
    try:
        os.close(wfd)
        deadline = t0 + timeout
        while True:
            ready, _, _ = select.select([rfd], [], [], max(0.0, deadline - perf_counter()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                break
            data = os.read(rfd, 1 << 16)
            if not data:
                break
            chunks.append(data)
    finally:
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - t0
        for fd in (rfd, err, devnull):
            os.close(fd)
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, b"".join(chunks)


def main():
    out = sys.stdout.buffer
    for line in sys.stdin:
        req = json.loads(line)
        wall, code, maxrss, stdout = run(req["argv"], req["stderr"], req["timeout"])
        head = {"wall": wall, "code": code, "maxrss_kib": maxrss, "nbytes": len(stdout)}
        out.write(json.dumps(head).encode() + b"\n" + stdout)
        out.flush()


if __name__ == "__main__":
    main()
