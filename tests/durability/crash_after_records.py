"""Run the ``repro`` CLI and SIGKILL it right after its Nth run-journal record.

Usage::

    PYTHONPATH=src python tests/durability/crash_after_records.py N ARGS...

runs ``python -m repro ARGS...`` (a sweep given ``--checkpoint DIR``) with
:meth:`~repro.durability.runjournal.RunCheckpoint._append` wrapped: once the
append of the N-th journal record returns, and so has been fsync'd, the
process sends itself SIGKILL.  No cleanup handler runs, as in a crash or an
OOM kill, and the crash point does not depend on how fast the sweep runs.
A run that appends fewer than N records exits with its own status.

``test_kill_resume.py`` and CI's crash-resume job launch their victim
through this script, then resume it with ``--resume`` and diff the output
against an uninterrupted run.
"""

from __future__ import annotations

import os
import signal
import sys

from repro.cli import main
from repro.durability.runjournal import RunCheckpoint


def crash_after(records: int) -> None:
    """SIGKILL this process once its *records*-th journal append returns."""
    append = RunCheckpoint._append
    appended = 0

    def append_then_crash(self, record: dict) -> None:
        nonlocal appended
        append(self, record)
        appended += 1
        if appended == records:
            os.kill(os.getpid(), signal.SIGKILL)

    RunCheckpoint._append = append_then_crash


if __name__ == "__main__":
    crash_after(int(sys.argv[1]))
    sys.exit(main(sys.argv[2:]))
