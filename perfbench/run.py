"""tarstop benchmark: drives the real CLI on generated inputs and checks its outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload review-deep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Every workload is a closed loop: one process
runs one CLI command at a time, on the threads numpy/BLAS start by default.

Workloads:

- ``train``: one ``tarstop train --target 0.9`` with default
  hyperparameters but a quarter of the default timesteps (25k of 100k) on
  30 topics x 2000 docs, then ``stop``, the three baselines and ``eval`` on
  15 held-out topics of 1800-2200 docs. The PPO update and rollout dominate.
- ``review-deep``: few deep topics (2k-30k docs, log-uniform). The timed
  sequence is ``stop`` x3 (targets 0.8/0.9/1.0), ``baseline``
  oracle/knee/budget and one ``eval``; per-line ingest dominates.
- ``review-wide``: the same sequence on many shallow topics (120-400 docs),
  where per-topic work (inference, knee, aggregation) is a large share.

The review checkpoints are trained during set-up on a short budget, on a
separate training collection, so the reviewed topics are held out from them.
The training collection is the same for every seed (so every seed trains
the same policies); the reviewed and held-out topics come from the seed.

The timed sequence repeats until ``--seconds`` have passed. Every timing is
given at the reference machine speed (see ``speed.py``): each sample is
divided by the speed factor the reference kernel measured just before and
after it, which takes out the drift of a shared machine. A metric is the
median of a command's samples, and ``wall_s`` is the sum of those medians:
the typical time of one pass through the sequence. The raw medians are
printed too.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

import numpy as np

import checks
import gen
import layers
import speed

ROOT = Path(__file__).resolve().parents[1]
WORK = Path(".perfbench_work")
TARGETS = ("0.8", "0.9", "1")
HELDOUT_TARGET = 0.9
BASELINES = ("oracle", "knee", "budget")
SETUP_REPEATS = 5
SETUP_REF_REPEATS = 6  # reference kernel runs before and after each set-up
MIN_REPS = 3
MAX_REPS = 200
TRAIN_TIMESTEPS = 25_000  # a quarter of the default; the policy is as good on these inputs
REVIEW_CHECKPOINT_TIMESTEPS = 1600
TRAINING_STREAM = 7  # seeds the training collection, the same for every --seed
RUN_LIMIT_S = 170  # a run must end within 180 s
CHECK_MARGIN_S = 20  # kept free after the worker for the output checks
END_TO_END = ("setup_s", "wall_s", "stop_s", "baseline_s", "eval_s", "peak_rss_mb",
              "heldout_recall", "heldout_cost")

WHY = {
    "train": "the paper's expensive step: PPO update and rollout take about 75% of it, so it moves "
             "with network, environment and optimiser changes; ingest is about a fifth",
    "review-deep": "applying the methods to few deep rankings: per-line ingest repeated by "
                   "every command dominates, per-topic work is about 1%",
    "review-wide": "the same commands on many shallow rankings: per-topic inference, knee "
                   "search and aggregation weigh far more than on review-deep",
}


@dataclass
class Inputs:
    """Generated files plus the labels the checks recompute everything from."""

    run: str
    qrels: str
    reviewed: gen.Collection
    train_run: str
    train_qrels: str
    models: str
    review_targets: tuple[str, ...]
    setup_train: list[str] | None = None
    setup_files: list[str] = field(default_factory=list)


def train_args(run: str, qrels: str, out: str, targets, timesteps: int | None) -> list[str]:
    argv = ["train", "--run", run, "--qrels", qrels, "--out", out, "--seed", "0"]
    for t in targets:
        argv += ["--target", t]
    return argv + (["--timesteps", str(timesteps)] if timesteps else [])


def generate(workload: str, seed: int, out: Path, tiny: bool) -> Inputs:
    """Write one workload's inputs for ``seed``; the same seed gives the same bytes."""
    rng = np.random.default_rng([("train", "review-deep", "review-wide").index(workload), seed])
    train_rng = np.random.default_rng(TRAINING_STREAM)
    docs, n_train, n_held = (200, 6, 3) if tiny else (2000, 30, 15)
    train = gen.make_collection(train_rng, "tr", [docs] * n_train, [0.02] * n_train, [0.05] * n_train)
    if workload == "train":
        sizes = rng.integers(int(0.9 * docs), int(1.1 * docs) + 1, n_held)  # near the training size
        reviewed = gen.make_collection(rng, "ho", sizes, [0.02] * n_held, [0.05] * n_held)
    elif workload == "review-deep":
        count, total = (4, 2400) if tiny else (10, 100_000)
        reviewed = gen.make_collection(
            rng, "deep",
            gen.sizes_with_total(rng, count, 2000, 30000, total),
            gen.stratified_log_uniform(rng, count, 0.005, 0.03),
            gen.stratified_log_uniform(rng, count, 0.03, 0.15),
        )
    else:
        count = 12 if tiny else 200
        reviewed = gen.make_collection(
            rng, "wide",
            np.round(gen.stratified_log_uniform(rng, count, 120, 400)).astype(np.int64),
            gen.stratified_log_uniform(rng, count, 0.02, 0.1),
            gen.stratified_log_uniform(rng, count, 0.05, 0.3),
        )
    out.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(
        run=str(out / "reviewed.run"), qrels=str(out / "reviewed.qrels"), reviewed=reviewed,
        train_run=str(out / "train.run"), train_qrels=str(out / "train.qrels"),
        models=str(out / "models"),
        review_targets=("0.9",) if workload == "train" else TARGETS,
    )
    gen.write_collection(train_rng, train, inputs.train_run, inputs.train_qrels)
    gen.write_collection(rng, reviewed, inputs.run, inputs.qrels)
    inputs.setup_files = [inputs.train_run, inputs.train_qrels, inputs.run, inputs.qrels]
    if workload != "train":
        timesteps = 800 if tiny else REVIEW_CHECKPOINT_TIMESTEPS
        inputs.setup_train = train_args(inputs.train_run, inputs.train_qrels, inputs.models, TARGETS, timesteps)
        inputs.setup_files += [f"{inputs.models}/policy-t{t}.json" for t in TARGETS]
    return inputs


def sequence(workload: str, inputs: Inputs, tiny: bool) -> list[list[str]]:
    """The timed commands; ``{rep}`` is the repetition's output directory."""
    data = ["--run", inputs.run, "--qrels", inputs.qrels]
    commands = []
    if workload == "train":
        commands.append(train_args(inputs.train_run, inputs.train_qrels, "{rep}/model", ["0.9"],
                                   800 if tiny else TRAIN_TIMESTEPS))
        models = "{rep}/model"
    else:
        models = inputs.models
    targets = [x for t in inputs.review_targets for x in ("--target", t)]
    for t in inputs.review_targets:
        commands.append(["stop", "--checkpoint", f"{models}/policy-t{t}.json", *data,
                         "--out", f"{{rep}}/policy-t{t}.csv"])
    for method in BASELINES:
        commands.append(["baseline", "--method", method, *data, *targets, "--out", f"{{rep}}/{method}.csv"])
    results = [f"{{rep}}/policy-t{t}.csv" for t in inputs.review_targets]
    results += [f"{{rep}}/{m}.csv" for m in BASELINES]
    commands.append(["eval", *[x for r in results for x in ("--results", r)], *data, "--out", "{rep}/report"])
    return commands


def outputs_of(argv: list[str]) -> list[str]:
    """Files a command writes, for the byte-identity checks."""
    out = argv[argv.index("--out") + 1]
    if argv[0] == "train":
        targets = [argv[i + 1] for i, a in enumerate(argv) if a == "--target"]
        return [f"{out}/{kind}-t{t}.{ext}" for t in targets
                for kind, ext in (("policy", "json"), ("train-log", "csv"))]
    if argv[0] == "eval":
        return [f"{out}/per_topic.csv", f"{out}/aggregate.csv"]
    return [out]


def check_command(argv: list[str], code: int, truth, targets) -> list[str]:
    """Exit code and output of one command against the labels."""
    if code != 0:
        return [f"{' '.join(argv)}: exit code {code}"]
    out = argv[argv.index("--out") + 1]
    if argv[0] == "train":
        return [f"{p}: missing" for p in outputs_of(argv) if not os.path.isfile(p)]
    if argv[0] == "stop":
        target = Path(argv[argv.index("--checkpoint") + 1]).stem.removeprefix("policy-t")
        return checks.check_results(out, truth, "policy", [target])
    if argv[0] == "baseline":
        return checks.check_results(out, truth, argv[argv.index("--method") + 1], targets)
    return checks.check_report(out, truth, ("policy", *BASELINES), targets)


def python_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # string hashing, and so dict and set layout, the same in every run
    return env


def blas_threads() -> str:
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return str(fn())
    return "unknown"


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"machine: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name', '?')} {blas.get('version', '?')} "
            f"blas_threads={blas_threads()}")


def run_setup(workload: str, seed: int, out: Path, tiny: bool, deadline: float) -> tuple[Inputs, float, int]:
    """Generate inputs and, for the review workloads, train their checkpoints."""
    start = time.perf_counter()
    inputs = generate(workload, seed, out, tiny)
    code = 0
    if inputs.setup_train:
        code = subprocess.run(
            [sys.executable, "-m", "tarstop.cli", *inputs.setup_train], cwd=ROOT, env=python_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=deadline - time.monotonic(),
        ).returncode
    return inputs, time.perf_counter() - start, code


def run_worker(plan: dict, run_dir: Path, deadline: float) -> dict:
    plan_path, result_path = run_dir / "plan.json", run_dir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    with open(run_dir / "worker.log", "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(plan_path), str(result_path)],
            cwd=ROOT, env=python_env(), stdout=log, stderr=subprocess.STDOUT, timeout=deadline - time.monotonic(),
        )
    if proc.returncode != 0 or not result_path.is_file():
        tail = (run_dir / "worker.log").read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"worker exited with code {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail_percentile(values: list[float]) -> str:
    """The highest usual percentile with at least ten samples beyond it, if any."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p} {quantiles(values, n=100)[p - 1]:.4f}"
    return "no percentile with ten samples beyond it"


def timing_line(name: str, values: list[float]) -> str:
    return (f"{name:18s} {median(values):10.4f} s median of {len(values)} "
            f"(min {min(values):.4f}, max {max(values):.4f}; {tail_percentile(values)})")


def label(argv: list[str]) -> str:
    if argv[0] == "stop":
        return f"stop {Path(argv[argv.index('--checkpoint') + 1]).stem.removeprefix('policy-')}"
    if argv[0] == "baseline":
        return f"baseline {argv[argv.index('--method') + 1]}"
    return argv[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tarstop" / "cli.py").is_file():
        print(f"error: no tarstop sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.chdir(ROOT)
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return measure(args, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def fill(template: list[str], rep_dir: str) -> list[str]:
    return [a.format(rep=rep_dir) for a in template]


def measure(args, run_dir: Path, deadline: float) -> int:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(machine())
    ops: list[tuple[str, list[str]]] = []  # (operation, problems)

    setups = []
    speed.kernel()  # warm, so the first sample is not a cold start
    refs = [speed.sample(SETUP_REF_REPEATS)]
    for k in range(1 if args.trace else SETUP_REPEATS):
        inputs, seconds, code = run_setup(args.workload, args.seed, run_dir / f"setup-{k}", args.tiny, deadline)
        refs.append(speed.sample(SETUP_REF_REPEATS))
        setups.append((inputs, seconds, speed.factor(refs[-2] + refs[-1])))
        if inputs.setup_train:
            problems = [] if code == 0 else [f"set-up train exit code {code}"]
            problems += checks.files_differ(setups[0][0].setup_files, inputs.setup_files)
            ops.append(("setup train", problems))
    inputs = setups[0][0]
    truth = checks.truths(inputs.reviewed)
    commands = sequence(args.workload, inputs, args.tiny)
    traced_setup = []
    if args.trace and inputs.setup_train:
        traced = list(inputs.setup_train)
        traced[traced.index("--out") + 1] = str(run_dir / "traced-models")
        traced_setup = [traced]
    plan = {
        "src": str(ROOT / "src"), "trace": bool(args.trace), "sequence": commands,
        "traced_setup": traced_setup, "seconds": args.seconds,
        "limit_s": deadline - CHECK_MARGIN_S - time.monotonic(),
        "min_reps": 2 if args.trace else MIN_REPS, "max_reps": MAX_REPS,
        "rep_dir": str(run_dir / "rep-{rep}"), "spans_path": str(WORK / f"spans-{run_dir.name}.csv"),
    }
    result = run_worker(plan, run_dir, deadline)

    for argv, (name, code, _) in zip(traced_setup, result["setup"]):
        problems = [] if code == 0 else [f"traced set-up {name} exit code {code}"]
        problems += checks.files_differ(outputs_of(inputs.setup_train), outputs_of(argv))
        ops.append(("traced setup train", problems))
    first = result["reps"][0]
    for rep in result["reps"]:
        for template, (name, code, *_) in zip(commands, rep["commands"]):
            argv = fill(template, rep["dir"])
            problems = check_command(argv, code, truth, inputs.review_targets)
            if not problems and rep is not first:
                problems = checks.files_differ(outputs_of(fill(template, first["dir"])), outputs_of(argv))
            ops.append((name, problems))
    failed = [(name, p) for name, p in ops if p]
    for name, problems in failed[:10]:
        print(f"FAILED {name}: {'; '.join(problems[:3])}")

    first_cmds = [fill(t, first["dir"]) for t in commands]
    if args.workload == "train":
        print(f"fingerprint train checkpoint sha256={checks.sha256_of(outputs_of(first_cmds[0])[0])}")
    print(f"fingerprint aggregate.csv sha256={checks.sha256_of(outputs_of(first_cmds[-1])[1])}")

    if args.trace:
        metrics = trace_metrics(result)
    else:
        metrics = end_to_end(result, setups, first_cmds, truth)
    print(f"{'ops_failed':18s} {len(failed)}/{len(ops)} operations (one CLI command plus its output check)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def end_to_end(result, setups, first_cmds, truth) -> dict[str, tuple[float, str]]:
    reps, positions = result["reps"], range(len(first_cmds))
    # Per command, one value per repetition; a sample's speed factor comes from
    # the reference kernel timed just before and just after that command.
    raw = [[rep["commands"][i][2] for rep in reps] for i in positions]
    factors = [[speed.factor(rep["refs"][i] + rep["refs"][i + 1]) for rep in reps] for i in positions]
    scaled = [[s / f for s, f in zip(r, fs)] for r, fs in zip(raw, factors)]
    setup = [seconds / factor for _, seconds, factor in setups]
    every = [f for fs in factors for f in fs]
    print(f"machine speed factor (reference kernel time over {speed.NOMINAL_S} s): median {median(every):.4f}, "
          f"min {min(every):.4f}, max {max(every):.4f}; set-up {median(f for *_, f in setups):.4f}")
    for title, setup_values, values in (("seconds at the reference speed", setup, scaled),
                                        ("raw seconds", [s for _, s, _ in setups], raw)):
        print(f"{title}:")
        print(timing_line("setup", setup_values))
        for argv, samples in zip(first_cmds, values):
            print(timing_line(label(argv), samples))
    print("raw wall of each repetition:", " ".join(f"{rep['wall_s']:.4f}" for rep in reps))
    medians = [median(samples) for samples in scaled]

    def summed(command: str | None = None) -> float:
        return sum(m for argv, m in zip(first_cmds, medians) if command in (None, argv[0]))

    policy_csv = next(c for c in first_cmds if c[0] == "stop" and "policy-t0.9" in c[2])
    recall, cost, excess = checks.policy_quality(policy_csv[-1], truth, HELDOUT_TARGET)
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_s": (summed(), "s"),
        "stop_s": (summed("stop"), "s"),
        "baseline_s": (summed("baseline"), "s"),
        "eval_s": (summed("eval"), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "heldout_recall": (recall, "ratio"),
        "heldout_cost": (cost, "ratio"),
        "heldout_excess": (excess, "ratio"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:18s} {value:10.4f} {unit}")
    return {name: metrics[name] for name in END_TO_END}


def trace_metrics(result) -> dict[str, tuple[float, str]]:
    traced = [rep["wall_s"] for rep in result["reps"] if rep["traced"]]
    untraced = [rep["wall_s"] for rep in result["reps"] if not rep["traced"]]
    values = layers.median_metrics(result["layers"])
    values["trace.overhead_s"] = median(traced) - median(untraced)
    if result.get("setup_table"):
        print("self times of the traced set-up training:")
        print("\n".join(result["setup_table"]))
    print(f"self times of one traced repetition (wall {traced[-1]:.4f} s):")
    print("\n".join(result["table"]))
    print(f"tracing overhead {values['trace.overhead_s']:+.4f} s: traced wall median {median(traced):.4f} s "
          f"over {len(traced)}, untraced {median(untraced):.4f} s over {len(untraced)}")
    print(f"unattributed (wall minus layer self times) {values['trace.unattributed_s']:.4f} s")
    if result.get("missing_patches"):
        print(f"not traced (name not found): {', '.join(sorted(set(result['missing_patches'])))}")
    return {name: (values[name], layers.unit_of(name)) for name in layers.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
