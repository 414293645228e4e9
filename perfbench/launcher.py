"""Runs the child processes of ``cli-oneshot``, one request at a time.

    python3 perfbench/launcher.py

Reads one JSON request a line from standard input,
``{"command": [...], "env": {...}}``, runs the command from the current
directory with exactly that environment, and writes one JSON line back:
``{"code": exit code, "stdout": text, "maxrss_kib": peak resident KiB}``.
It ends at the end of its input.

Why a process of its own: on Linux a child's ``ru_maxrss`` starts from the
resident size of the process that started it, carried over at ``exec``.
Started from the benchmark process, every CLI child would read at least the
benchmark's own size. Started from this small process, a child reads its
own peak, or this process's size (about 14 MiB) if that is larger.
"""
import json
import os
import subprocess
import sys
import threading

TIMEOUT_S = 120


def run(command: list[str], env: dict[str, str]) -> dict:
    """Run ``command``; a child still running after ``TIMEOUT_S`` is killed and reads as failed.

    The child is reaped with ``os.wait4``, which gives the resource usage
    of that child alone.
    """
    with subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    ) as child:
        watchdog = threading.Timer(TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            stdout = child.stdout.read()
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
    return {"code": child.returncode, "stdout": stdout, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(run(request["command"], request["env"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
