"""End-to-end process-kill chaos: SIGKILL a figure sweep, resume, diff.

The real-process twin of the in-process crash matrix: a checkpointed
``repro figure`` run SIGKILLs itself right after its second run-journal
record is durable (``crash_after_records.py``), is resumed with
``--resume``, and its output is compared byte-for-byte against an
uninterrupted reference run (the CI crash-resume job repeats this outside
pytest).
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.durability.journal import read_records

ROOT = pathlib.Path(__file__).resolve().parents[2]
LAUNCHER = pathlib.Path(__file__).with_name("crash_after_records.py")

FIGURE_ARGS = [
    "figure", "5",
    "--n", "50000", "--k", "20", "--trials", "3", "--rates", "0.05,0.2",
]


#: Runs a two-worker map under the start method named by its argument,
#: prints the pids of the workers that ran trials and of every live worker,
#: then SIGKILLs itself.
_KILL_PARENT_SCRIPT = """
import multiprocessing, os, signal, sys
from repro.experiments.parallel import TrialPool

def worker_pid(_):
    return os.getpid()

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    pool = TrialPool(max_workers=2, chunk_size=1)
    pids = set(pool.map(worker_pid, range(8)))
    pids.update(child.pid for child in multiprocessing.active_children())
    print(*sorted(pids), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie (Linux ``/proc``)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _repro(args: list, env: dict, launcher: list | None = None):
    """Run the CLI (through *launcher*, when given) to completion."""
    command = launcher or ["-m", "repro"]
    return subprocess.run(
        [sys.executable, *command, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


class TestKillAndResume:
    def test_killed_sweep_resumes_bit_identically(self, tmp_path):
        env = _env()
        reference = tmp_path / "reference.txt"
        completed = _repro([*FIGURE_ARGS, "--out", str(reference)], env)
        assert completed.returncode == 0, completed.stderr

        out = tmp_path / "resumed.txt"
        checkpointed = [
            *FIGURE_ARGS, "--checkpoint", str(tmp_path / "ckpt"),
            "--out", str(out),
        ]
        killed = _repro(checkpointed, env, launcher=[str(LAUNCHER), "2"])
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        # The kill landed right after the second durable record: the first
        # map's plan and its first chunk, before any output was written.
        records, _, tail = read_records(tmp_path / "ckpt" / "run.journal")
        assert [record["op"] for record in records] == ["map", "chunk"]
        assert tail is None
        assert not out.exists()

        resumed = _repro([*checkpointed, "--resume"], env)
        assert resumed.returncode == 0, resumed.stderr
        assert out.read_bytes() == reference.read_bytes()

    def test_bare_resume_without_checkpoint_is_rejected(self):
        completed = _repro([*FIGURE_ARGS, "--resume"], _env())
        assert completed.returncode == 2
        assert "--resume requires --checkpoint" in completed.stderr


class TestWorkerCleanup:
    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process state from /proc"
    )
    @pytest.mark.parametrize("start_method", ["fork", "forkserver", "spawn"])
    def test_workers_exit_when_parent_is_killed(self, tmp_path, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method!r} start method here")
        # Under forkserver (the Linux default from Python 3.14) a worker's
        # parent is the fork server, not the process that owns the pool.
        script = tmp_path / "kill_parent.py"
        script.write_text(_KILL_PARENT_SCRIPT)
        pids_file = tmp_path / "pids.txt"
        with open(pids_file, "w") as out:
            completed = subprocess.run(
                [sys.executable, str(script), start_method],
                stdout=out,
                env=_env(),
                cwd=ROOT,
                timeout=60,
            )
        assert completed.returncode == -signal.SIGKILL
        pids = [int(pid) for pid in pids_file.read_text().split()]
        assert pids
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, pids)), f"orphaned workers: {pids}"
