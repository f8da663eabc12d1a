#!/usr/bin/env python3
"""Peak resident memory of a command: run it as this process's only child and
print the child's peak RSS in bytes (``ru_maxrss`` of ``RUSAGE_CHILDREN``).

Linux folds the resident high-water mark of the process a child was forked
(or vforked) from into the child's ``ru_maxrss`` when it execs.  This
wrapper is small, so the figure it prints is the command's own whenever the
command peaks above a bare interpreter: start the wrapper from a large
process (a test runner) rather than read that process's own counters.

Usage: python scripts/peak_rss.py COMMAND [ARG ...]
Exits with the command's status; prints nothing if the command fails.
"""

import resource
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print("usage: python scripts/peak_rss.py COMMAND [ARG ...]", file=sys.stderr)
        return 2
    code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
    if code != 0:
        return code
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(peak if sys.platform == "darwin" else peak * 1024)  # bytes on macOS, KiB elsewhere
    return 0


if __name__ == "__main__":
    sys.exit(main())
