"""Run tarstop CLI commands in one process, time them, and optionally trace them.

Usage: ``python3 worker.py PLAN.json RESULT.json`` with the checkout's
``src`` on ``PYTHONPATH``. The plan names the command sequence (paths may
contain ``{rep}``, replaced by the repetition's directory), how long to
repeat it, and whether to trace. Only the timed commands run in this
process, so its peak RSS is theirs. Untraced, the machine-speed reference
kernel (``speed.py``) is timed before each command and after the last one.
In trace mode repetitions alternate untraced, traced, untraced, ... and the
difference of their wall times is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

import layers
import speed


def run_command(main, argv) -> tuple[int, float, float]:
    """Exit code, wall seconds and process CPU seconds of one command."""
    start, cpu = time.perf_counter(), time.process_time()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a command line with SystemExit
        code = exc.code if isinstance(exc.code, int) else 2
    return int(code or 0), time.perf_counter() - start, time.process_time() - cpu


def main(plan_path: str, result_path: str) -> int:
    launched = time.perf_counter()
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from tarstop import cli

    src = os.path.realpath(plan["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"tarstop imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = layers.Tracer() if plan["trace"] else None
    result: dict = {"setup": [], "reps": [], "layers": []}
    if tracer is not None and plan["traced_setup"]:
        tracer.install()
        for argv in plan["traced_setup"]:
            code, seconds, _ = run_command(tracer.wrap(f"cli.{argv[0]}", cli.main), argv)
            result["setup"].append([argv[0], code, seconds])
        tracer.uninstall()
    setup_spans = range(len(tracer.spans)) if tracer is not None else range(0)

    speed.kernel()  # warm, so the first sample is not a cold start
    started = time.perf_counter()
    rep, longest = 0, 0.0
    step = 1 if tracer is None else 2  # reps per decision: single reps, or untraced/traced pairs
    while rep < plan["max_reps"]:
        elapsed = time.perf_counter() - started
        if rep % step == 0 and rep >= step:
            if rep >= plan["min_reps"] and elapsed >= plan["seconds"]:
                break
            if time.perf_counter() - launched + step * longest > plan["limit_s"]:
                break  # the next one would overrun the run's time limit
        traced = tracer is not None and rep % 2 == 1
        rep_dir = plan["rep_dir"].format(rep=rep)
        os.makedirs(rep_dir, exist_ok=True)
        commands = [[arg.format(rep=rep_dir) for arg in argv] for argv in plan["sequence"]]
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        timings, refs = [], []
        for argv in commands:
            if tracer is None:
                refs.append(speed.sample())
            # Each command starts from an empty garbage collector, as it would
            # in a process of its own; the collection itself is not timed.
            gc.collect()
            entry = tracer.wrap(f"cli.{argv[0]}", cli.main) if traced else cli.main
            code, seconds, cpu = run_command(entry, argv)
            timings.append([argv[0], code, seconds, cpu])
        if tracer is None:
            refs.append(speed.sample())
        wall = sum(t[2] for t in timings)
        longest = max(longest, wall)
        if traced:
            tracer.uninstall()
            rep_spans = range(first_span, len(tracer.spans))
            measured = [*setup_spans, *rep_spans]
            result["layers"].append(layers.layer_metrics(tracer.spans, measured, rep_spans, wall))
            result["table"] = layers.format_table(tracer.spans, rep_spans, wall)
            if setup_spans:
                result["setup_table"] = layers.format_table(
                    tracer.spans, setup_spans, sum(s for _, _, s in result["setup"]))
        result["reps"].append({"dir": rep_dir, "traced": traced, "wall_s": wall,
                               "commands": timings, "refs": refs})
        rep += 1

    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["missing_patches"] = tracer.missing
        layers.write_spans(plan["spans_path"], tracer.spans)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
