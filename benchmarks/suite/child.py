"""Child processes of the suite: started, stopped and always waited for.

The harness (:func:`harness.build`) and the HTTP server
(:func:`serve.serve_main`) each run in a child process of their own.
They are started with :mod:`subprocess`, not :mod:`multiprocessing`,
whose spawn start method also launches a resource-tracker process that
outlives the run and is never waited for.

Run as a script, this module is the children's entry point::

    python child.py harness <spec-json> <out-dir>
    python child.py serve <connection-fd> <store-root> <registry-root>
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
SRC = SUITE.parent.parent / "src"


def start(role: str, *args, pass_fds=()) -> subprocess.Popen:
    """Start the ``role`` child with ``args``; ``pass_fds`` stay open in it."""
    return subprocess.Popen(
        [sys.executable, str(SUITE / "child.py"), role, *map(str, args)],
        pass_fds=pass_fds,
    )


def stop(process: subprocess.Popen) -> None:
    """Kill ``process`` if it is still running, then wait for it to end."""
    if process.poll() is None:
        process.kill()
    process.wait()


def main(argv: list[str]) -> None:
    sys.path.insert(0, str(SRC))
    role, args = argv[0], argv[1:]
    if role == "harness":
        from harness import build

        build(json.loads(args[0]), args[1])
    elif role == "serve":
        from multiprocessing.connection import Connection

        from serve import serve_main

        serve_main(Connection(int(args[0])), args[1], args[2])
    else:
        raise SystemExit(f"unknown child role {role!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
