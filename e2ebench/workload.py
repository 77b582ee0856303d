"""The stages of one benchmark run, each executed in a fresh process.

``run.py`` starts this file once per stage::

    python3 e2ebench/workload.py gen   --workload W --seed N --work DIR
    python3 e2ebench/workload.py fit   --workload W --seed N --work DIR --seconds S --trace T
    python3 e2ebench/workload.py prep  --workload serve-mixed --seed N --work DIR --trace T
    python3 e2ebench/workload.py serve --workload serve-mixed --seed N --work DIR --seconds S --trace T

Every stage reads and writes only inside ``DIR``.  The measuring stages
(``fit`` and ``serve``) write ``DIR/result.json``; ``prep`` writes the
artifact, the inputs and, when traced, the ledger of its training fit.

All correctness checks here are computed by the benchmark itself from
plain arrays: ``d(u, v) = sigmoid(M[e] . w + b)`` with its own
``(u, v) -> row`` map, Eq. 28 on that ``d``, and accuracy against the
hidden truth the benchmark recorded when it hid the directions.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import warnings
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from repro.apps import predict_directions
from repro.datasets import (
    GeneratorConfig,
    generate_social_network,
    hide_directions,
)
from repro.embedding import DeepDirectConfig
from repro.graph import MixedSocialNetwork, TieKind
from repro.models import DeepDirectModel
from repro.obs import (
    Tracer,
    TrainerCallback,
    activate,
    deactivate,
    phase_totals,
    read_trace,
)
from repro.serve import (
    ScoringEngine,
    load_model_artifact,
    save_model_artifact,
)


@dataclass(frozen=True)
class FitSpec:
    """Make-up of one trained model: graph tier, E-Step shape and budget."""

    tier: str
    dims: int
    pairs: int
    workers: int
    store: bool
    setup_reps: int
    #: Fit + predict repeats until the run's seconds are used, but never
    #: fewer times than this.
    min_fits: int
    #: Accuracy a working E-Step reaches on every seed with room to spare;
    #: on xlarge the budget is ~1 pair per tie, so 5 standard errors
    #: above chance (~0.504) alone would pass an E-Step that barely trains.
    accuracy_floor: float


#: Synthetic tiers: (nodes, ties per arriving node).
TIERS = {"large": (4000, 8), "xlarge": (62_500, 16)}
#: Share of directed ties that keep their direction (Figs. 3-5 x-axis).
DIRECTED_FRACTION = 0.3
DTYPE = "float32"

FIT_WORKLOADS = {
    # Whole powers of two of 256-pair batches, so "trains exactly its
    # budget" is checkable on both the sequential and HOGWILD paths.
    "fit-large-d128": FitSpec("large", 128, 2**18, 1, False, 60, 5, 0.70),
    "fit-xlarge-mmap-w2": FitSpec("xlarge", 32, 2**20, 2, True, 2, 2, 0.52),
}
#: The model served by ``serve-mixed``: fit-large-d128's configuration.
SERVE_MODEL = FIT_WORKLOADS["fit-large-d128"]
WORKLOADS = (*FIT_WORKLOADS, "serve-mixed")

#: Request shapes shared by the in-process engine phase and the HTTP load.
HOT_TIES = 256
SCORE_PAIRS = 64
DISCOVER_TIES = 256
#: Score + discover rounds of the in-process engine phase of a fit run.
ENGINE_ROUNDS = 400
#: Server launches per serve run; the last one carries the load.
SERVER_LAUNCHES = 3
SERVER_STOP_TIMEOUT_S = 30.0
#: Nominal seconds of one ``HostSpeed`` sample: rescaled times read as if
#: the reference samples around them had taken exactly this long.
REF_SECONDS = 0.35
#: Accuracy must beat a fair coin by this many binomial standard errors.
CHANCE_Z = 5.0
#: Tolerance for "equal to float rounding" on d in [0, 1].
D_TOL = 1e-12


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------


def log(message: str) -> None:
    print(f"[e2ebench] {message}", file=sys.stderr, flush=True)


def _raise_interrupt(signum, frame) -> None:
    # The first signal starts the unwind; later ones must not cut the
    # program's own clean-up (HOGWILD join, shared-memory unlink) short.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise KeyboardInterrupt(signal.Signals(signum).name)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident size of a process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class HostSpeed:
    """How fast the host runs right now, timed on work the program never does.

    On a host shared with other tenants the speed of a core moves by up
    to a third over seconds to minutes, and the process CPU time of a
    fit moves with its wall time: steal is near zero.  So the raw time
    of the same fit differs between two sets of runs taken minutes
    apart.  This reference mixes what a fit spends its time on (row
    gathers, dot products and a scatter-add on a 16 MB float32 matrix,
    and a pure-Python loop per batch).  A run samples it right before
    and right after each measured segment; ``rescale`` divides the
    segment by the mean of those two samples, so it reads as if the
    host had run at nominal speed throughout.  Engine calls are too
    short for that: each is paired with one reference batch timed in
    CPU time right after it (``paired_factor``).
    """

    ROWS, DIMS, BATCH, BATCHES, PY_STEPS = 32_000, 128, 256, 300, 4_000

    def __init__(self) -> None:
        # Fixed inputs, whatever the run's seed: the reference must be
        # the same work in every run.
        rng = np.random.default_rng(0)
        self._m = rng.standard_normal(
            (self.ROWS, self.DIMS)).astype(np.float32)
        self._rows = rng.integers(0, self.ROWS, (self.BATCHES, 2, self.BATCH))
        self.samples: list[float] = []

    def _batch(self, k: int) -> None:
        # The updates are tiny, so the matrix is never reset.
        m = self._m
        tie, ctx = self._rows[k % self.BATCHES]
        x, y = m[tie], m[ctx]
        g = 1.0 / (1.0 + np.exp(-np.einsum("ij,ij->i", x, y)))
        np.add.at(m, tie, (-1e-3 * g)[:, None] * y)
        acc = 0
        for i in range(self.PY_STEPS):
            acc = (acc * 31 + i) % 1_000_003

    def sample(self) -> None:
        start = time.perf_counter()
        for k in range(self.BATCHES):
            self._batch(k)
        self.samples.append(time.perf_counter() - start)

    def rescale(self, seconds: float) -> float:
        """Nominal-speed time of the segment between the last two samples."""
        around = (self.samples[-2] + self.samples[-1]) / 2
        return seconds * REF_SECONDS / around

    def paired_factor(self, k: int) -> float:
        """Multiplier to nominal speed for the call that just ended.

        Times one reference batch in process CPU time right after the
        call, so it sees the core's speed of that moment and none of the
        time the process spent descheduled.
        """
        start = time.process_time()
        self._batch(k)
        return REF_SECONDS / self.BATCHES / (time.process_time() - start)


def at_nominal(calls: list[tuple[float, float, float]]) -> list[float]:
    """Nominal-speed seconds of calls that compute and wait on a timer.

    Each call is ``(wall, cpu, paired_factor)``.  Its CPU time is
    rescaled by the reference timed right after it.  The rest of a call
    is the engine's batch window, a timer, plus any time the host kept
    the process off its core; the 10th percentile of that rest over all
    calls stands for the timer alone.
    """
    timer = float(np.percentile([wall - cpu for wall, cpu, _ in calls], 10))
    return [timer + cpu * factor for _, cpu, factor in calls]


class Checks:
    """Collects failed correctness checks instead of stopping at the first."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def pair_keys(pairs: np.ndarray, n_nodes: int) -> np.ndarray:
    pairs = np.asarray(pairs, dtype=np.int64)
    return pairs[:, 0] * np.int64(n_nodes) + pairs[:, 1]


def canonical_keys(pairs: np.ndarray, n_nodes: int) -> np.ndarray:
    pairs = np.asarray(pairs, dtype=np.int64)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return lo * np.int64(n_nodes) + hi


class Directionality:
    """The benchmark's own ``d(u, v) = sigmoid(M[e] . w + b)``.

    Built from plain arrays: the oriented tie endpoints and the trained
    ``M``, ``w``, ``b``.  The ``(u, v) -> row`` map is a sorted key
    array owned by this class, not the program's lookup index.
    """

    def __init__(self, n_nodes, tie_src, tie_dst, embeddings, weights, bias):
        self.n_nodes = int(n_nodes)
        keys = pair_keys(np.column_stack([tie_src, tie_dst]), self.n_nodes)
        self._order = np.argsort(keys, kind="stable")
        #: Sorted ``u * n_nodes + v`` keys of every oriented tie.
        self.keys = keys[self._order]
        self._m = embeddings
        self._w = np.asarray(weights, dtype=np.float64)
        self._b = float(bias)

    def rows(self, pairs: np.ndarray) -> np.ndarray:
        keys = pair_keys(pairs, self.n_nodes)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        if not np.array_equal(self.keys[pos], keys):
            raise KeyError("pair is not an oriented tie of the graph")
        return self._order[pos]

    def __call__(self, pairs: np.ndarray) -> np.ndarray:
        rows = self.rows(pairs)
        out = np.empty(len(rows), dtype=np.float64)
        for start in range(0, len(rows), 65536):
            chunk = rows[start:start + 65536]
            z = self._m[chunk].astype(np.float64) @ self._w + self._b
            out[start:start + len(chunk)] = 1.0 / (1.0 + np.exp(-z))
        return out

    def check_eq28(self, asked: np.ndarray, answered: np.ndarray,
                   checks: Checks, what: str) -> None:
        """Each answer is its asked tie, oriented by Eq. 28 on this ``d``."""
        asked = np.asarray(asked, dtype=np.int64)
        answered = np.asarray(answered, dtype=np.int64).reshape(-1, 2)
        checks.require(
            answered.shape == asked.shape
            and np.array_equal(canonical_keys(asked, self.n_nodes),
                               canonical_keys(answered, self.n_nodes)),
            f"{what}: answers are not the asked ties in some orientation",
        )
        if answered.shape != asked.shape:
            return
        chosen = self(answered)
        other = self(answered[:, ::-1])
        # Within rounding of a tie either orientation satisfies Eq. 28.
        ok = chosen >= other - D_TOL
        checks.require(bool(ok.all()),
                       f"{what}: {int((~ok).sum())} rows disagree with Eq. 28")


def accuracy(predicted: np.ndarray, truth: np.ndarray, n_nodes: int) -> float:
    """Share of hidden ties whose predicted orientation is the true one."""
    pred_keys = pair_keys(predicted, n_nodes)
    true_keys = pair_keys(truth, n_nodes)
    return float(np.isin(true_keys, pred_keys).mean())


def check_accuracy(acc: float, n: int, floor: float, checks: Checks,
                   what: str) -> None:
    z = (acc - 0.5) / (0.5 / np.sqrt(max(n, 1)))
    checks.require(
        z > CHANCE_Z,
        f"{what}: accuracy {acc:.4f} on {n} hidden ties does not beat "
        f"chance by {CHANCE_Z:g} standard errors (z={z:.1f})",
    )
    checks.require(acc >= floor,
                   f"{what}: accuracy {acc:.4f} is below its floor {floor}")


def degree_rank_accuracy(inputs: dict) -> float:
    """Orient each hidden tie toward its higher-degree end."""
    n = int(inputs["n_nodes"])
    ties = np.concatenate(
        [inputs["directed"], inputs["bidirectional"], inputs["undirected"]]
    )
    degree = np.bincount(ties.ravel(), minlength=n)
    truth = inputs["truth"]
    to_dst = degree[truth[:, 1]] > degree[truth[:, 0]]
    ties_even = degree[truth[:, 1]] == degree[truth[:, 0]]
    return float((to_dst + 0.5 * ties_even).mean())


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def generate_inputs(tier: str, seed: int) -> dict:
    n_nodes, per_node = TIERS[tier]
    with warnings.catch_warnings():
        # hide_directions builds through the tuple-list constructor,
        # which warns on graphs this size; generation is untimed.
        warnings.simplefilter("ignore", DeprecationWarning)
        network = generate_social_network(
            GeneratorConfig(n_nodes=n_nodes, ties_per_node=per_node),
            seed=seed,
        )
        task = hide_directions(network, DIRECTED_FRACTION, seed=seed)
    mixed = task.network
    return {
        "n_nodes": np.int64(mixed.n_nodes),
        "directed": mixed.social_ties(TieKind.DIRECTED),
        "bidirectional": mixed.social_ties(TieKind.BIDIRECTIONAL),
        "undirected": mixed.social_ties(TieKind.UNDIRECTED),
        "truth": np.asarray(task.true_sources, dtype=np.int64),
    }


def save_inputs(inputs: dict, work: pathlib.Path) -> None:
    np.savez(work / "inputs.npz", **inputs)


def load_inputs(work: pathlib.Path) -> dict:
    with np.load(work / "inputs.npz") as data:
        return {name: data[name] for name in data.files}


def check_inputs(inputs: dict, checks: Checks) -> None:
    n = int(inputs["n_nodes"])
    checks.require(
        np.array_equal(
            np.sort(canonical_keys(inputs["undirected"], n)),
            np.sort(canonical_keys(inputs["truth"], n)),
        ),
        "the undirected ties are not exactly the hidden ties",
    )


def build_graph(inputs: dict):
    return MixedSocialNetwork.from_arrays(
        int(inputs["n_nodes"]),
        inputs["directed"],
        inputs["bidirectional"],
        inputs["undirected"],
    )


# ----------------------------------------------------------------------
# fitting and the traced ledger
# ----------------------------------------------------------------------


def model_config(spec: FitSpec):
    return DeepDirectConfig(
        dimensions=spec.dims,
        max_pairs=spec.pairs,
        workers=spec.workers,
        dtype=DTYPE,
    )


def discover(graph, spec: FitSpec, seed: int, callbacks=()):
    """The in-process ``repro discover`` pipeline: fit, then Eq. 28."""
    start = time.perf_counter()
    model = DeepDirectModel(model_config(spec), callbacks=callbacks)
    model.fit(graph, seed=seed)
    fit_s = time.perf_counter() - start
    predicted = predict_directions(model)
    return model, predicted, time.perf_counter() - start, fit_s


def model_directionality(model, graph) -> Directionality:
    # The D-Step head has no public accessor; its two arrays are read
    # straight off the fitted classifier.
    head = model._classifier  # noqa: SLF001
    return Directionality(
        graph.n_nodes, np.asarray(graph.tie_src), np.asarray(graph.tie_dst),
        model.tie_embeddings, head.weights_, head.bias_,
    )


def check_discovery(model, graph, predicted, inputs, spec, checks, what):
    """Budget, finiteness, Eq. 28 and accuracy of one fit; returns accuracy."""
    trained = int(model.embedding_.n_pairs_trained)
    checks.require(trained == spec.pairs,
                   f"{what}: E-Step trained {trained} pairs, budget "
                   f"{spec.pairs}")
    checks.require(bool(np.isfinite(model.tie_embeddings).all()),
                   f"{what}: M has non-finite entries")
    d = model_directionality(model, graph)
    d.check_eq28(inputs["undirected"], predicted, checks, what)
    acc = accuracy(predicted, inputs["truth"], graph.n_nodes)
    check_accuracy(acc, len(inputs["truth"]), spec.accuracy_floor, checks,
                   what)
    return acc, d


class _HogwildProgress(TrainerCallback):
    """Collects the HOGWILD fleet gauges from the parent's progress logs."""

    def __init__(self) -> None:
        self.lag: list[float] = []
        self.efficiency: list[float] = []

    def on_batch_end(self, run, batch, logs) -> None:
        if "hogwild.straggler_lag_pairs" in logs:
            self.lag.append(float(logs["hogwild.straggler_lag_pairs"]))
            self.efficiency.append(float(logs["hogwild.parallel_efficiency"]))


#: Per-layer metric -> span whose summed *total* time it reports.
SPAN_TOTALS = {
    "sampler.setup_s": "sampler.setup",
    "estep.sample_s": "estep.sample",
    "estep.triad_neighborhoods_s": "estep.triad_neighborhoods",
    "estep.update_s": "estep.update",
    "estep.L_topo_s": "estep.L_topo",
    "estep.L_label_s": "estep.L_label",
    "estep.L_pattern_s": "estep.L_pattern",
    "estep.triad_labels_s": "estep.triad_labels",
    "estep.hogwild_s": "estep.hogwild",
    "dstep.fit_s": "dstep.fit",
}


def fit_ledger(graph, spec: FitSpec, seed: int, inputs: dict,
               checks: Checks) -> tuple[dict, object]:
    """Per-layer split of one traced discover, against an untraced one.

    Returns the layer metrics and the traced fit's model.  Kernel spans
    of HOGWILD workers are summed over the worker lanes (CPU seconds);
    the coverage figures use the parent process's timeline only.
    """

    model, predicted, untraced_s, _ = discover(graph, spec, seed)
    check_discovery(model, graph, predicted, inputs, spec, checks,
                    "untraced ledger fit")
    del model, predicted
    gc.collect()

    progress = _HogwildProgress()
    tracer = Tracer()
    token = activate(tracer)
    try:
        model, predicted, traced_s, fit_s = discover(
            graph, spec, seed,
            callbacks=[progress] if spec.workers > 1 else (),
        )
    finally:
        deactivate(token)
    check_discovery(model, graph, predicted, inputs, spec, checks,
                    "traced ledger fit")
    predict_s = traced_s - fit_s

    records = tracer.snapshot()
    totals = phase_totals(records)
    mine = [r for r in records if r["pid"] == os.getpid()]
    local = phase_totals(mine)

    def total(name: str, table=totals) -> float:
        return float(table.get(name, {}).get("total_s", 0.0))

    def self_time(name: str, table=totals) -> float:
        return float(table.get(name, {}).get("self_s", 0.0))

    out = {metric: total(name) for metric, name in SPAN_TOTALS.items()}
    out["estep.init_s"] = self_time("estep", local)
    out["estep.train_self_s"] = (
        self_time("estep.train") + self_time("hogwild.worker_train")
    )
    train_wall = total("estep.train", local) + total("estep.hogwild", local)
    out["estep.train_pairs_per_s"] = spec.pairs / train_wall
    out["estep.batches"] = float(
        totals.get("estep.update", {}).get("count", 0)
    )
    worker_train = [r["dur"] for r in records
                    if r["name"] == "hogwild.worker_train"]
    out["hogwild.worker_train_s_max"] = max(worker_train, default=0.0)
    out["hogwild.worker_train_s_min"] = min(worker_train, default=0.0)
    out["hogwild.parallel_efficiency"] = (
        statistics.fmean(progress.efficiency) if progress.efficiency else 0.0
    )
    out["hogwild.straggler_lag_pairs"] = (
        statistics.fmean(progress.lag) if progress.lag else 0.0
    )
    # Joined HOGWILD workers are this process's only reaped children.
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["hogwild.worker_rss_peak_mb"] = (
        children_kb / 1024.0 if spec.workers > 1 else 0.0
    )
    dstep = [r for r in mine if r["name"] == "dstep.fit"]
    out["dstep.n_iter"] = float(
        sum(r["attrs"].get("n_iter", 0) for r in dstep)
    )
    out["apps.predict_directions_s"] = predict_s

    named_self = ("sampler.setup", "estep.triad_neighborhoods", "estep",
                  "estep.sample", "estep.train", "estep.hogwild",
                  "estep.update", "estep.L_topo", "estep.L_label",
                  "estep.L_pattern", "estep.triad_labels", "dstep.fit")
    covered = sum(self_time(name, local) for name in named_self) + predict_s
    out["trace.uncovered_s"] = max(traced_s - covered, 0.0)
    out["trace.covered_share"] = min(covered / traced_s, 1.0)
    out["trace.overhead_s"] = traced_s - untraced_s
    log(f"ledger: traced discover {traced_s:.3f}s, untraced "
        f"{untraced_s:.3f}s (overhead {traced_s - untraced_s:+.3f}s); "
        f"named layers cover {100 * out['trace.covered_share']:.1f}% "
        f"({out['trace.uncovered_s']:.3f}s uncovered)")
    return out, model


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------


def stage_gen(args) -> None:
    spec = FIT_WORKLOADS[args.workload]
    inputs = generate_inputs(spec.tier, args.seed)
    save_inputs(inputs, args.work)
    log(f"inputs: {spec.tier} tier, {len(inputs['directed'])} directed, "
        f"{len(inputs['bidirectional'])} bidirectional, "
        f"{len(inputs['undirected'])} hidden; degree-ranking accuracy "
        f"{degree_rank_accuracy(inputs):.4f}")


def timed_setup(inputs: dict, spec: FitSpec, work: pathlib.Path):
    """Build the graph the program trains on, ``setup_reps`` times.

    Returns the last graph and the per-step timings of every repetition.
    """

    timings = {"setup": [], "build": [], "write": [], "open": [],
               "bytes": 0}
    graph = None
    previous: pathlib.Path | None = None
    for rep in range(spec.setup_reps):
        graph = None
        if previous is not None:
            shutil.rmtree(previous)
            previous = None
        start = time.perf_counter()
        graph = build_graph(inputs)
        built = time.perf_counter()
        timings["build"].append(built - start)
        if spec.store:
            store = work / f"store{rep}"
            graph.save_store(store)
            written = time.perf_counter()
            graph = MixedSocialNetwork.from_store(store)
            opened = time.perf_counter()
            timings["write"].append(written - built)
            timings["open"].append(opened - written)
            timings["bytes"] = sum(
                f.stat().st_size for f in store.iterdir() if f.is_file()
            )
            previous = store
        timings["setup"].append(time.perf_counter() - start)
    return graph, timings


def engine_phase(model, d: Directionality, inputs: dict, seed: int,
                 checks: Checks, host: HostSpeed | None = None) -> dict:
    """Closed-loop, one caller: the serving engine over the fitted model.

    Returns ``(wall, cpu, paired_factor)`` of every score call and of
    every score + discover round.  With ``host``, one reference batch is
    timed after each round; without it the factors are 1.
    """
    engine = ScoringEngine(model)
    hot = hot_set(d, seed)
    rng = np.random.default_rng(seed + 1)
    scan = np.asarray(inputs["undirected"], dtype=np.int64)
    score_calls, rounds, answers = [], [], []
    for i in range(ENGINE_ROUNDS):
        asked = hot[rng.integers(0, len(hot), SCORE_PAIRS)]
        t0, c0 = time.perf_counter(), time.process_time()
        scores = engine.score_pairs_coalesced(asked)
        t1, c1 = time.perf_counter(), time.process_time()
        lo = (i * DISCOVER_TIES) % len(scan)
        ties = scan[lo:lo + DISCOVER_TIES]
        answered = engine.discover_pairs(ties)
        t2, c2 = time.perf_counter(), time.process_time()
        factor = host.paired_factor(i) if host is not None else 1.0
        score_calls.append((t1 - t0, c1 - c0, factor))
        rounds.append((t2 - t0, c2 - c0, factor))
        answers.append((asked, scores, ties, answered))
    asked, scores, ties, answered = (np.concatenate(x) for x in zip(*answers))
    checks.require(bool(np.all(np.abs(scores - d(asked)) <= D_TOL)),
                   "engine score: values differ from d")
    d.check_eq28(ties, answered, checks, "engine discover")
    return {"score_calls": score_calls, "rounds": rounds, "engine": engine}


def hot_set(d: Directionality, seed: int) -> np.ndarray:
    """The ``HOT_TIES`` oriented ties the ``/score`` stream draws from."""
    rng = np.random.default_rng(seed)
    keys = d.keys[rng.choice(len(d.keys), size=HOT_TIES, replace=False)]
    return np.column_stack([keys // d.n_nodes, keys % d.n_nodes])


def outside_timings(model, graph, scan: np.ndarray) -> dict:
    """``directionality_batch`` and ``tie_ids`` on the /discover stream."""
    db, ids = [], []
    for i in range(200):
        lo = (i * DISCOVER_TIES) % len(scan)
        ties = scan[lo:lo + DISCOVER_TIES]
        both = np.concatenate([ties, ties[:, ::-1]])
        t0 = time.perf_counter()
        graph.tie_ids(both)
        t1 = time.perf_counter()
        model.directionality_batch(both)
        t2 = time.perf_counter()
        ids.append(t1 - t0)
        db.append(t2 - t1)
    return {
        "serve.directionality_batch_s": statistics.median(db),
        "graph.tie_ids_s": statistics.median(ids),
    }


def span_means(records, names) -> dict:
    """Mean total and self seconds per span, by name."""
    totals = phase_totals(records)
    out = {}
    for name in names:
        entry = totals.get(name)
        if entry and entry["count"]:
            out[name] = (entry["total_s"] / entry["count"],
                         entry["self_s"] / entry["count"])
        else:
            out[name] = (0.0, 0.0)
    return out


def stage_fit(args) -> None:
    spec = FIT_WORKLOADS[args.workload]
    checks = Checks()
    inputs = load_inputs(args.work)
    check_inputs(inputs, checks)

    host = HostSpeed()
    host.sample()
    graph, setup = timed_setup(inputs, spec, args.work)
    host.sample()
    setup_s = host.rescale(statistics.median(setup["setup"]))
    metrics: dict[str, float] = {}
    attempted = spec.setup_reps

    if not args.trace:
        times, accs = [], []
        model = predicted = d = None
        deadline = time.perf_counter() + args.seconds
        while len(times) < spec.min_fits or time.perf_counter() < deadline:
            # Each fit starts with the previous model freed.
            model = predicted = d = None
            gc.collect()
            host.sample()
            model, predicted, seconds, _ = discover(graph, spec, args.seed)
            if not times:
                # What one ``repro discover`` peaks at.  Later fits in
                # the same process peak higher on some seeds (glibc's
                # mmap threshold rises once the first fit frees its
                # large blocks), which no single run of the CLI sees.
                rss_mb = vm_hwm_mb()
            host.sample()
            times.append(host.rescale(seconds))
            acc, d = check_discovery(model, graph, predicted, inputs, spec,
                                     checks, f"discover rep {len(times)}")
            accs.append(acc)
            attempted += 1
            log(f"discover rep {len(times)}: {seconds:.3f}s wall, "
                f"{times[-1]:.3f}s nominal, accuracy {acc:.4f}")
        if spec.workers == 1:
            checks.require(len(set(accs)) == 1,
                           f"sequential seeded fits disagree: {accs}")
        engine = engine_phase(model, d, inputs, args.seed, checks, host)
        attempted += 2 * ENGINE_ROUNDS
        log(f"host speed: reference samples "
            f"{', '.join(f'{x:.3f}' for x in host.samples)}s")
        metrics.update({
            "setup_s": setup_s,
            "discover_s": statistics.median(times),
            "discovery_accuracy": statistics.median(accs),
            "rss_peak_mb": rss_mb,
            "score_p50_ms":
                statistics.median(at_nominal(engine["score_calls"]))
                * 1e3,
            # Pairs of one round over the median round, so a burst of
            # host load in a few rounds does not set it.
            "served_pairs_per_s": (SCORE_PAIRS + DISCOVER_TIES)
                / statistics.median(at_nominal(engine["rounds"])),
        })
    else:
        ledger, model = fit_ledger(graph, spec, args.seed, inputs, checks)
        host.sample()
        attempted += 2
        d = model_directionality(model, graph)
        tracer = Tracer()
        token = activate(tracer)
        try:
            engine = engine_phase(model, d, inputs, args.seed, checks)
        finally:
            deactivate(token)
        attempted += 2 * ENGINE_ROUNDS
        means = span_means(tracer.snapshot(),
                           ("serve.score", "serve.discover"))
        info = engine["engine"].cache_info()
        snap = engine["engine"].metrics.snapshot()
        metrics.update(ledger)
        metrics.update(empty_serve_layers())
        metrics.update({
            "graph.build_s": statistics.median(setup["build"]),
            "graph.store_write_s": median_or_zero(setup["write"]),
            "graph.store_open_s": median_or_zero(setup["open"]),
            "graph.store_bytes": float(setup["bytes"]),
            "host.ref_s": statistics.median(host.samples),
            "serve.score_s": means["serve.score"][0],
            "serve.discover_s": means["serve.discover"][0],
            "serve.cache_hit_ratio": info["cache_hit_rate"],
            "serve.coalesced_per_round":
                ENGINE_ROUNDS / max(float(snap.get("serve.rounds", 0)), 1.0),
            **outside_timings(model, graph,
                              np.asarray(inputs["undirected"], np.int64)),
        })
    write_result(args.work, checks, attempted, 0, metrics)


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def empty_serve_layers() -> dict:
    """Serving layers a fit workload does not run (no artifact, no HTTP)."""
    return {"serve.load_artifact_s": 0.0, "serve.request_self_s": 0.0}


def write_result(work, checks, attempted, failed, metrics) -> None:
    result = {
        "correct": not checks.failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: float(v) for k, v in metrics.items()},
        "failures": checks.failures,
    }
    (work / "result.json").write_text(json.dumps(result))


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------


def stage_prep(args) -> None:
    """Generate, train and export the served model (all untimed)."""
    checks = Checks()
    inputs = generate_inputs(SERVE_MODEL.tier, args.seed)
    check_inputs(inputs, checks)
    save_inputs(inputs, args.work)
    graph = build_graph(inputs)
    if args.trace:
        ledger, model = fit_ledger(graph, SERVE_MODEL, args.seed, inputs,
                                   checks)
        _, setup = timed_setup(inputs, SERVE_MODEL, args.work)
        ledger["graph.build_s"] = statistics.median(setup["build"])
        (args.work / "ledger.json").write_text(json.dumps(ledger))
    else:
        model, predicted, _, _ = discover(graph, SERVE_MODEL, args.seed)
        check_discovery(model, graph, predicted, inputs, SERVE_MODEL, checks,
                        "served model fit")
    if checks.failures:
        raise SystemExit("the served model failed its checks")
    save_model_artifact(model, args.work / "artifact")


class Server:
    """One ``python -m repro serve`` child; stopped with SIGINT, then SIGKILL."""

    def __init__(self, work: pathlib.Path, index: int,
                 trace: pathlib.Path | None) -> None:
        self.log_path = work / f"server{index}.log"
        cmd = [sys.executable, "-m", "repro", "serve",
               str(work / "artifact"), "--port", "0"]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        self.host = self.port = None

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Seconds from launch until ``/healthz`` answers 200."""
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            if self.port is None:
                for line in self.log_path.read_text(errors="replace").splitlines():
                    if " on http://" in line:
                        address = line.split(" on http://")[1].split()[0]
                        self.host, port = address.rsplit(":", 1)
                        self.port = int(port)
            if self.port is not None:
                try:
                    with closing(self.connect()) as conn:
                        status, _ = request(conn, "GET", "/healthz")
                    if status == 200:
                        return time.perf_counter() - self.started
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not answer /healthz in time")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                log("server ignored SIGINT; killing it")
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body=None) -> tuple[int, dict]:
    """One JSON request on ``conn``; returns the status and decoded body."""
    data = None if body is None else json.dumps(body).encode()
    headers = {} if data is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class Client(threading.Thread):
    """A closed-loop caller on its own connection."""

    def __init__(self, server: Server, make_request, deadline_box) -> None:
        super().__init__(daemon=True)
        self.server = server
        self.make_request = make_request
        self.deadline_box = deadline_box
        self.latencies_ms: list[float] = []
        self.answers: list[tuple[np.ndarray, object, float]] = []
        self.failed = 0
        self.error: BaseException | None = None

    def run(self) -> None:
        conn = self.server.connect()
        try:
            self.deadline_box["go"].wait()
            i = 0
            while time.perf_counter() < self.deadline_box["deadline"]:
                path, asked = self.make_request(i)
                t0 = time.perf_counter()
                try:
                    status, payload = request(
                        conn, "POST", path, {"pairs": asked.tolist()}
                    )
                except (OSError, http.client.HTTPException, ValueError):
                    status, payload = 0, None
                    conn.close()
                done = time.perf_counter()
                if status != 200:
                    self.failed += 1
                else:
                    self.latencies_ms.append((done - t0) * 1e3)
                    self.answers.append((asked, payload, done))
                i += 1
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            self.error = exc
        finally:
            conn.close()


def read_artifact(work: pathlib.Path) -> Directionality:
    """``d`` from the exported artifact arrays, read with plain numpy."""
    meta = json.loads((work / "artifact" / "artifact.json").read_text())
    with np.load(work / "artifact" / "weights.npz", allow_pickle=False) as z:
        return Directionality(
            meta["dataset"]["n_nodes"], z["network_tie_src"],
            z["network_tie_dst"], z["embeddings"], z["dstep_weights"],
            z["dstep_bias"][0],
        )


def stage_serve(args) -> None:
    checks = Checks()
    work = args.work
    inputs = load_inputs(work)
    n_nodes = int(inputs["n_nodes"])
    d = read_artifact(work)
    scan = np.asarray(inputs["undirected"], dtype=np.int64)
    hot = hot_set(d, args.seed)
    passes = -(-len(scan) // DISCOVER_TIES)

    setup_times: list[float] = []
    trace_path = work / "server-trace.jsonl" if args.trace else None
    server = None
    host = HostSpeed()
    host.sample()
    try:
        for index in range(SERVER_LAUNCHES):
            last = index == SERVER_LAUNCHES - 1
            server = Server(work, index, trace_path if last else None)
            ready_s = server.wait_ready()
            host.sample()
            setup_times.append(host.rescale(ready_s))
            if not last:
                server.stop()
        score_rng = np.random.default_rng(args.seed + 1)

        def score_request(i):
            return "/score", hot[score_rng.integers(0, HOT_TIES, SCORE_PAIRS)]

        def discover_request(i):
            lo = (i % passes) * DISCOVER_TIES
            return "/discover", scan[lo:lo + DISCOVER_TIES]

        box = {"go": threading.Event(), "deadline": 0.0}
        clients = [Client(server, score_request, box),
                   Client(server, discover_request, box)]
        for client in clients:
            client.start()
        start = time.perf_counter()
        box["deadline"] = start + args.seconds
        box["go"].set()
        for client in clients:
            client.join()
        wall = time.perf_counter() - start
        for client in clients:
            if client.error is not None:
                raise client.error
        with closing(server.connect()) as conn:
            status, metrics_payload = request(conn, "GET", "/metrics")
        checks.require(status == 200, "/metrics did not answer")
        rss_mb = vm_hwm_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    score_client, discover_client = clients
    failed = score_client.failed + discover_client.failed
    attempted = (SERVER_LAUNCHES + len(score_client.latencies_ms)
                 + len(discover_client.latencies_ms) + failed)

    for asked, payload, _ in score_client.answers:
        served = np.asarray(payload["scores"], dtype=np.float64)
        if not (served.shape == (len(asked),)
                and np.all(np.abs(served - d(asked)) <= D_TOL)):
            checks.require(False, "/score values differ from d")
            break
    for asked, payload, _ in discover_client.answers:
        before = len(checks.failures)
        d.check_eq28(asked, np.asarray(payload["directions"]), checks,
                     "/discover")
        if len(checks.failures) > before:
            break

    # Whole passes over every undirected tie, in scan order.
    pass_times, first_pass = [], []
    pass_start = start
    for i, (asked, payload, done) in enumerate(discover_client.answers):
        if i < passes:
            first_pass.append(np.asarray(payload["directions"]))
        if i % passes == passes - 1:
            pass_times.append(done - pass_start)
            pass_start = done
    checks.require(len(pass_times) >= 1,
                   "no whole /discover pass over the undirected ties")
    acc = 0.0
    if pass_times:
        acc = accuracy(np.concatenate(first_pass), inputs["truth"], n_nodes)
        check_accuracy(acc, len(inputs["truth"]), SERVE_MODEL.accuracy_floor,
                       checks, "/discover pass")

    served_pairs = (SCORE_PAIRS * len(score_client.latencies_ms)
                    + sum(len(a) for a, _, _ in discover_client.answers))
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "discover_s": statistics.median(pass_times) if pass_times else 0.0,
            "discovery_accuracy": acc,
            "rss_peak_mb": rss_mb,
            "score_p50_ms": statistics.median(score_client.latencies_ms),
            "served_pairs_per_s": served_pairs / wall,
        }
    else:
        metrics = json.loads((work / "ledger.json").read_text())
        records = read_trace(trace_path)
        means = span_means(records, ("serve.request", "serve.score",
                                     "serve.discover", "serve.load_artifact"))
        snap = metrics_payload["metrics"]
        hits, misses = snap["cache_hits"], snap["cache_misses"]
        model = load_model_artifact(work / "artifact")
        metrics.update({
            "graph.store_write_s": 0.0,
            "graph.store_open_s": 0.0,
            "graph.store_bytes": 0.0,
            "host.ref_s": statistics.median(host.samples),
            "serve.load_artifact_s": means["serve.load_artifact"][0],
            "serve.request_self_s": means["serve.request"][1],
            "serve.score_s": means["serve.score"][0],
            "serve.discover_s": means["serve.discover"][0],
            "serve.cache_hit_ratio": hits / max(hits + misses, 1),
            "serve.coalesced_per_round":
                len(score_client.latencies_ms)
                / max(float(snap.get("serve.rounds", 0)), 1.0),
            **outside_timings(model, model.network, scan),
        })
    write_result(work, checks, attempted, failed, metrics)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _raise_interrupt)
    signal.signal(signal.SIGINT, _raise_interrupt)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage", choices=("gen", "fit", "prep", "serve"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=pathlib.Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    {"gen": stage_gen, "fit": stage_fit, "prep": stage_prep,
     "serve": stage_serve}[args.stage](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
