"""Outside-in tracing of tarstop's layers, and the per-layer metrics it yields.

The package imports its functions with ``from .x import f``, so a wrapper
must rebind the name in the module that calls it (``tarstop.cli.load_run``,
``tarstop.ppo.forward``, ...) rather than in the module that defines it.
Each call records a span ``[name, parent, start, end, count]`` in an
in-memory list; ``parent`` is the index of the enclosing span (-1 for a
root). Nothing is written until the run ends.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from statistics import median

# (module, attribute, span name, count of work done by the call or None).
# The count sees (args, result); it runs after the span's end time is taken.
PATCHES = (
    ("tarstop.cli", "load_run", "corpus.load_run",
     lambda a, r: (sum(len(v) for v in r.values()), os.fspath(a[0]))),
    ("tarstop.cli", "load_qrels", "corpus.load_qrels",
     lambda a, r: sum(len(v) for v in r.values())),
    ("tarstop.cli", "assemble_topics", "corpus.assemble_topics", lambda a, r: len(r)),
    ("tarstop.cli", "batch_topic", "corpus.batch_topic", None),
    ("tarstop.ppo", "batch_topic", "corpus.batch_topic", None),
    ("tarstop.cli", "train", "ppo.train", None),
    ("tarstop.ppo", "collect_rollout", "ppo.collect_rollout", None),
    ("tarstop.ppo", "compute_gae", "ppo.compute_gae", None),
    ("tarstop.ppo", "ppo_update", "ppo.ppo_update", None),
    ("tarstop.ppo", "ppo_loss", "ppo.ppo_loss", None),
    ("tarstop.ppo", "forward", "nets.forward",
     lambda a, r: 1 if getattr(a[1], "ndim", 1) == 1 else len(a[1])),
    ("tarstop.ppo", "backward", "nets.backward", None),
    ("tarstop.ppo", "adam_step", "nets.adam_step", None),
    ("tarstop.env", "VecStoppingEnv.step", "env.step", lambda a, r: len(r[3])),
    ("tarstop.cli", "infer_stop", "ppo.infer_stop", None),
    ("tarstop.cli", "load_checkpoint", "ppo.load_checkpoint", None),
    ("tarstop.cli", "save_checkpoint", "ppo.save_checkpoint", lambda a, r: os.path.getsize(a[1])),
    ("tarstop.cli", "write_training_log", "ppo.write_training_log", None),
    ("tarstop.cli", "oracle_stop", "baselines.oracle_stop", None),
    ("tarstop.cli", "knee_stop", "baselines.knee_stop", None),
    ("tarstop.cli", "budget_stop", "baselines.budget_stop", None),
    ("tarstop.cli", "aggregate", "metrics.aggregate", lambda a, r: len(r.per_topic)),
    ("tarstop.cli", "read_results_csv", "metrics.read_results_csv", lambda a, r: len(r)),
    ("tarstop.cli", "write_results_csv", "metrics.write_results_csv", None),
    ("tarstop.cli", "write_per_topic_csv", "metrics.write_per_topic_csv", None),
    ("tarstop.cli", "write_aggregate_csv", "metrics.write_aggregate_csv", None),
)

# nets.forward is split by the span that called it.
FORWARD_PHASES = {
    "ppo.collect_rollout": "rollout",
    "ppo.ppo_loss": "update",
    "ppo.infer_stop": "infer",
}

INGEST = ("corpus.load_run", "corpus.load_qrels", "corpus.assemble_topics")

# Every per-layer metric, with its unit; BENCHMARK.json lists the same names.
PER_LAYER = (
    *(f"corpus.load_run.{k}" for k in ("calls", "s", "lines")),
    *(f"corpus.load_qrels.{k}" for k in ("calls", "s", "lines")),
    *(f"corpus.assemble_topics.{k}" for k in ("calls", "s", "topics")),
    "corpus.batch_topic.calls", "corpus.batch_topic.s",
    "corpus.parses_per_input",
    *(f"nets.forward.{p}.{k}" for p in ("rollout", "update", "infer") for k in ("calls", "rows", "s")),
    "nets.backward.calls", "nets.backward.s",
    "nets.adam_step.calls", "nets.adam_step.s",
    "env.step.calls", "env.step.s", "env.episodes",
    "ppo.train.s", "ppo.train.self_s",
    *(f"ppo.collect_rollout.{k}" for k in ("calls", "s", "self_s")),
    "ppo.compute_gae.calls", "ppo.compute_gae.s",
    *(f"ppo.ppo_update.{k}" for k in ("calls", "s", "self_s")),
    *(f"ppo.ppo_loss.{k}" for k in ("calls", "s", "self_s")),
    *(f"ppo.infer_stop.{k}" for k in ("calls", "s", "self_s")),
    "ppo.infer_stop.forwards_per_topic",
    "ppo.load_checkpoint.calls", "ppo.load_checkpoint.s",
    "ppo.save_checkpoint.s", "ppo.save_checkpoint.bytes",
    *(f"baselines.{m}_stop.{k}" for m in ("oracle", "knee", "budget") for k in ("calls", "s")),
    "metrics.aggregate.s", "metrics.aggregate.rows",
    *(f"metrics.read_results_csv.{k}" for k in ("calls", "s", "rows")),
    *(f"metrics.write_{w}_csv.s" for w in ("results", "per_topic", "aggregate")),
    "cli.self_s", "cli.ingest_share",
    "trace.wall_s", "trace.overhead_s", "trace.unattributed_s",
)


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "wall_s", "overhead_s", "unattributed_s"):
        return "s"
    if last == "bytes":
        return "bytes"
    if last in ("parses_per_input", "forwards_per_topic", "ingest_share"):
        return "ratio"
    return "count"


class Tracer:
    """Records nested spans in memory; ``install`` rebinds the traced names."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if count is not None:
                record[4] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self.wrap(name, fn, count))

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record[1] >= 0:
            children[record[1]].append((record[2], record[3]))
    out = []
    for index, record in enumerate(spans):
        covered, reach = 0.0, record[2]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, record[3])
            if end > start:
                covered += end - start
                reach = end
        out.append(record[3] - record[2] - covered)
    return out


def table(spans: list[list], indices) -> dict[str, dict[str, float]]:
    """Per span name over the spans at ``indices``: calls, total and self seconds, counts."""
    selfs = self_times(spans)
    rows: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index in indices:
        record, own = spans[index], selfs[index]
        name = record[0]
        if name == "nets.forward":
            parent = spans[record[1]][0] if record[1] >= 0 else ""
            name = f"nets.forward.{FORWARD_PHASES.get(parent, 'other')}"
        row = rows[name]
        row["calls"] += 1
        row["s"] += record[3] - record[2]
        row["self_s"] += own
        count = record[4]
        if isinstance(count, tuple):
            row["count"] = row.get("count", 0) + count[0]
            row.setdefault("inputs", set()).add(count[1])
        elif count is not None:
            row["count"] = row.get("count", 0) + count
    return dict(rows)


def layer_metrics(spans: list[list], measured, timed, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.

    ``measured`` indexes every span the layer metrics count (for the review
    workloads that includes the set-up training, so the training layers are
    measured there too); ``timed`` indexes only the timed sequence, whose
    traced wall time is ``wall_s``.
    """
    rows = table(spans, measured)
    timed = table(spans, timed)

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, key = name.rsplit(".", 1)
        if key in ("calls", "s", "self_s"):
            out[name] = get(layer, key)
        elif key in ("lines", "topics", "rows", "bytes"):
            out[name] = get(layer, "count")
        elif key == "episodes":
            out[name] = get("env.step", "count")
    run_calls = get("corpus.load_run", "calls")
    run_files = len(rows.get("corpus.load_run", {}).get("inputs", ()))
    out["corpus.parses_per_input"] = run_calls / run_files if run_files else 0.0
    infer_calls = get("ppo.infer_stop", "calls")
    out["ppo.infer_stop.forwards_per_topic"] = (
        get("nets.forward.infer", "calls") / infer_calls if infer_calls else 0.0
    )
    out["cli.self_s"] = sum(r["self_s"] for n, r in timed.items() if n.startswith("cli."))
    ingest = sum(timed.get(n, {}).get("s", 0.0) for n in INGEST)
    out["cli.ingest_share"] = ingest / wall_s if wall_s > 0 else 0.0
    attributed = sum(r["self_s"] for n, r in timed.items() if not n.startswith("cli."))
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - attributed
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(s[name] for s in samples) for name in samples[0]}


def format_table(spans: list[list], indices, wall_s: float) -> list[str]:
    """Human-readable self-time table, largest self time first."""
    rows = table(spans, indices)
    lines = [f"{'span':32s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s} {'self%':>6s}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"{name:32s} {row['calls']:8d} {row['s']:9.4f} {row['self_s']:9.4f} {share:6.2f}"
        )
    return lines


def write_spans(path, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,parent,start,end\n")
        for index, (name, parent, start, end, _) in enumerate(spans):
            fh.write(f"{index},{name},{parent},{start!r},{end!r}\n")
