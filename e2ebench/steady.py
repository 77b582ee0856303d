#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report spreads.

Run from the repository root::

    python3 e2ebench/steady.py --workload fit-large-d128 --seeds 1-10

Each run is one ``e2ebench/run.py`` invocation with the run length from
``BENCHMARK.json``.  For every end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` against the metric's bound, flagging spreads at
or above a third of the bound.  It also checks that the share of
failed operations is the same in every run.  With ``--sets N`` the seed
list is run N times over and each later set's median is compared with
the first set's: a change in the worse direction by more than the bound
is a drift.  Exit code 1 when any run fails, any spread exceeds its
bound, a median drifts past its bound, or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        stdout, _ = proc.communicate()
    except KeyboardInterrupt:
        # run.py stops its own stages and removes its files on SIGINT;
        # killing it instead would orphan them.
        proc.send_signal(signal.SIGINT)
        proc.wait()
        raise
    wall = time.perf_counter() - start
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}, no result"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt(signal.Signals(signum).name)


def main(argv=None) -> int:
    # Installed explicitly: a shell without job control starts background
    # jobs with SIGINT ignored, and Python would keep it ignored.
    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name (repeatable)")
    parser.add_argument("--seeds", default="1-10",
                        help="seed list, e.g. '1-10' or '3,5,8'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1,
                        help="run the seed list this many times over")
    parser.add_argument("--out", type=pathlib.Path,
                        help="append each run's result to this JSONL file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "end_to_end" if args.trace == 0 else "per_layer"
    declared = {m["name"]: m for m in spec[group]}
    seeds = parse_seeds(args.seeds)
    status = 0
    for workload in args.workload:
        shares: set[float] = set()
        first: dict[str, float] = {}
        for number in range(1, args.sets + 1):
            runs = []
            for seed in seeds:
                result = run_once(workload, seed, spec["run_seconds"],
                                  args.trace)
                runs.append(result)
                if args.out is not None:
                    with args.out.open("a") as handle:
                        handle.write(json.dumps({"workload": workload,
                                                 "set": number, "seed": seed,
                                                 **result}) + "\n")
                print(f"{workload} set {number} seed {seed}: "
                      f"{result['wall_s']:.1f}s wall, attempted "
                      f"{result['attempted']}, failed {result['failed']}",
                      file=sys.stderr, flush=True)
            shares |= {r["failed"] / r["attempted"] for r in runs}
            medians, bad = report(workload, number, runs, declared, first)
            first = first or medians
            status = status or bad
        if len(shares) != 1:
            print(f"{workload}: failed shares differ: {sorted(shares)}")
            status = 1
    return status


def report(workload: str, number: int, runs: list[dict], declared: dict,
           first: dict) -> tuple[dict, int]:
    """Print one set's table; returns its medians and 1 on a failure."""
    status = 0
    walls = [r["wall_s"] for r in runs]
    print(f"\n{workload} set {number}: {len(runs)} runs, wall median "
          f"{statistics.median(walls):.1f}s, max {max(walls):.1f}s")
    print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s} {'drift':>8s}")
    medians = {}
    for name, meta in declared.items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = medians[name] = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4)
                     if len(values) > 1 else (median, median, median))
        spread = (q3 - q1) / median if median else 0.0
        bound = meta.get("bound")
        flags = []
        drift = ""
        if bound is not None:
            if spread > bound:
                flags.append("OVER BOUND")
                status = 1
            elif spread >= bound / 3:
                flags.append("above bound/3")
            if name in first and first[name]:
                # Positive: worse than the first set.
                worse = (median - first[name]) / first[name]
                if meta["better"] == "higher":
                    worse = -worse
                drift = f"{worse:+8.4f}"
                if worse > bound:
                    flags.append("DRIFT")
                    status = 1
        print(f"  {name:32s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6} "
              f"{drift:>8s} {' '.join(flags)}")
    return medians, status


if __name__ == "__main__":
    sys.exit(main())
