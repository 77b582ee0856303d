#!/usr/bin/env python3
"""End-to-end benchmark of direction discovery, memory and serving.

Run from the repository root::

    python3 e2ebench/run.py --workload fit-large-d128 --seed 1 --seconds 20 --trace 0

Each stage of a workload (input generation, then the measured stage) runs
in a fresh process started from ``e2ebench/workload.py``, so peak RSS and
allocator state never carry over.  BLAS and OpenMP pools are pinned to
one thread per process.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``).  See ``e2ebench/README.md``.

The command exits non-zero when a check fails (the result line then
reads ``"correct": false``), and without a result when it is interrupted
(SIGINT or SIGTERM), when a stage fails, or when a process it started is
still alive at its end.  Every process it started is stopped and its
working directory removed on every exit path.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit-large-d128", "fit-xlarge-mmap-w2", "serve-mixed")
#: Stages per workload, in order; each runs in its own process.
STAGES = {
    "fit-large-d128": ("gen", "fit"),
    "fit-xlarge-mmap-w2": ("gen", "fit"),
    "serve-mixed": ("prep", "serve"),
}
PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS")
}
STAGE_GRACE_S = 5.0
STAGE_STOP_TIMEOUT_S = 40.0
DESCENDANT_TIMEOUT_S = 15.0
PR_SET_CHILD_SUBREAPER = 36


class Interrupted(Exception):
    """SIGINT or SIGTERM reached the benchmark."""


def _on_signal(signum, frame) -> None:
    raise Interrupted(signal.Signals(signum).name)


def log(message: str) -> None:
    print(f"[e2ebench] {message}", file=sys.stderr, flush=True)


def become_subreaper() -> None:
    """Adopt orphaned descendants so they can be found and reaped here.

    A process whose parent exits first (multiprocessing's resource
    tracker, a HOGWILD worker of a killed stage) is re-parented to this
    process instead of to init, so the final check sees it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def live_descendants(root: int) -> list[int]:
    """Pids below ``root`` in the process tree that are not zombies."""
    parent_of, state_of = {}, {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        parent_of[int(entry)] = int(fields[1])
        state_of[int(entry)] = fields[0]
    out, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child, parent in parent_of.items():
            if parent == pid:
                frontier.append(child)
                if state_of[child] != "Z":
                    out.append(child)
    return out


def reap() -> None:
    """Collect exit statuses of finished children (adopted ones too)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(timeout: float) -> list[int]:
    """Wait for descendants to end; SIGKILL what outlives ``timeout``.

    Returns the pids that had to be killed.
    """
    me = os.getpid()
    deadline = time.monotonic() + timeout
    while True:
        reap()
        alive = live_descendants(me)
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while live_descendants(me):
        reap()
        time.sleep(0.05)
    reap()
    return alive


def stage_env(work: pathlib.Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # HOGWILD trace spills and any other temporary file stay in the run's
    # own directory inside the checkout.
    env["TMPDIR"] = str(work)
    return env


def run_stage(stage: str, args, work: pathlib.Path, running: list) -> None:
    cmd = [sys.executable, str(HERE / "workload.py"), stage,
           "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(work), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=stage_env(work), cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=sys.stderr)
    running.append(proc)
    code = proc.wait()
    if code != 0:
        raise RuntimeError(f"stage {stage!r} exited with code {code}")


def stop_stages(running: list) -> None:
    """Ask a stage still running to unwind, then kill it if it does not.

    A stage turns SIGTERM into a clean unwind: its server gets SIGINT,
    its HOGWILD workers are terminated and joined.  A signal sent to the
    whole process group has reached the stage already, so it gets a
    grace period before its own SIGTERM.
    """
    for proc in running:
        if proc.poll() is not None:
            continue
        try:
            proc.wait(STAGE_GRACE_S)
            continue
        except subprocess.TimeoutExpired:
            proc.terminate()
        try:
            proc.wait(STAGE_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def with_units(values: dict, trace: int) -> dict:
    """Attach the declared units; the names must be exactly the declared set."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise ValueError(
            f"measured metrics {sorted(set(values) ^ set(units))} do not "
            "match the declared set"
        )
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program sources under {ROOT / 'src'}; nothing to measure")
        return 2

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    become_subreaper()
    base = ROOT / ".e2ebench-work"
    work = base / f"run-{os.getpid()}"
    result = None
    code = 1
    running: list[subprocess.Popen] = []
    try:
        work.mkdir(parents=True)
        for stage in STAGES[args.workload]:
            run_stage(stage, args, work, running)
        measured = json.loads((work / "result.json").read_text())
        for failure in measured.pop("failures"):
            log(f"check failed: {failure}")
        measured["metrics"] = with_units(measured["metrics"], args.trace)
        result = measured
        code = 0 if result["correct"] and result["failed"] == 0 else 1
    except Interrupted as exc:
        log(f"interrupted by {exc}; stopping")
        code = 130
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        log(f"error: {exc}")
        code = 1
    finally:
        # Late signals must not cut the clean-up short.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        stop_stages(running)
        killed = stop_descendants(DESCENDANT_TIMEOUT_S)
        if killed:
            log(f"processes still alive at the end were killed: {killed}")
            code = code or 1
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    if result is not None and not killed:
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
