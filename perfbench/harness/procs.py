"""Running the program from outside: wall time, readiness and peak RSS.

Children are started with posix_spawn and reaped with wait4, so each
one's own peak RSS comes back with its exit status.  A batch child writes
stdout to a pseudo-terminal, where C stdio flushes every line: its first
line (prop_cli prints the loaded graph before it partitions) then arrives
the moment it is written, which times set-up from outside.
"""

import errno
import os
import signal
import time
from dataclasses import dataclass


@dataclass
class Finished:
    returncode: int
    wall_s: float
    ready_s: float        # spawn to first stdout line; None if none came
    peak_rss_mb: float
    stdout: str
    stderr: str


def _spawn(argv, stdout_fd, stderr_fd, stdin_fd=None):
    actions = [(os.POSIX_SPAWN_DUP2, stdout_fd, 1),
               (os.POSIX_SPAWN_DUP2, stderr_fd, 2)]
    if stdin_fd is not None:
        actions.append((os.POSIX_SPAWN_DUP2, stdin_fd, 0))
    return os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)


def reap(pid):
    """Waits for `pid`; returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def run(argv, stderr_path, stop_when_ready=False):
    """Runs argv to completion (or, with stop_when_ready, kills it once
    its first stdout line arrives) and returns what it cost."""
    master, slave = os.openpty()
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        pid = _spawn(argv, slave, err.fileno())
    os.close(slave)
    out = bytearray()
    ready = None
    try:
        while True:
            try:
                chunk = os.read(master, 65536)
            except OSError as e:   # EIO: the child closed the terminal
                if e.errno != errno.EIO:
                    raise
                break
            if not chunk:
                break
            out += chunk
            if ready is None and b"\n" in out:
                ready = time.perf_counter() - start
                if stop_when_ready:
                    os.kill(pid, signal.SIGKILL)
                    break
    finally:
        code, rss = reap(pid)
        wall = time.perf_counter() - start
        os.close(master)
    with open(stderr_path, errors="replace") as f:
        stderr = f.read()
    return Finished(code, wall, ready, rss,
                    out.decode(errors="replace").replace("\r\n", "\n"), stderr)


class Piped:
    """A child serving line protocol on stdin/stdout pipes (prop_serve)."""

    def __init__(self, argv, stderr_path):
        child_in, self.stdin = os.pipe()
        self.stdout, child_out = os.pipe()
        with open(stderr_path, "wb") as err:
            self.start = time.perf_counter()
            self.pid = _spawn(argv, child_out, err.fileno(), child_in)
        os.close(child_in)
        os.close(child_out)
        self.stderr_path = stderr_path
        self.returncode = None
        self.peak_rss_mb = 0.0

    def close(self):
        """Closes stdin (EOF ends the server), drains stdout and reaps."""
        if self.returncode is not None:
            return
        try:
            os.close(self.stdin)
        except OSError:   # already closed by the client
            pass
        os.set_blocking(self.stdout, True)
        while os.read(self.stdout, 65536):
            pass
        os.close(self.stdout)
        self.returncode, self.peak_rss_mb = reap(self.pid)
