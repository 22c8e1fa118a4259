"""Run the senserate CLI the way its console script does, and mark its phases.

Usage: python3 perfbench/launch.py MARK_FILE CLI_ARGS...

MARK_FILE receives two CLOCK_MONOTONIC times in nanoseconds, one a line:
right after ``senserate.cli`` is imported, and right after ``main``
returns.  The parent compares them with the time it spawned this process.
Everything printed is the CLI's own output.
"""

import sys
import time

from senserate import cli

_imported = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

if __name__ == "__main__":
    with open(sys.argv[1], "w") as fh:
        fh.write(f"{_imported}\n")
        code = cli.main(sys.argv[2:])
        fh.write(f"{time.clock_gettime_ns(time.CLOCK_MONOTONIC)}\n")
    sys.exit(code)
