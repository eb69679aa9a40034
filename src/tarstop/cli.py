"""Command-line entry point: synthesize data, train, infer, run baselines, evaluate.

Configuration precedence is CLI flag, then --config JSON file, then the
built-in defaults; a config file may set only its subcommand's optional
flags, by their Python names and with their types. Exit codes: 0 success,
1 runtime failure, 2 usage or configuration error.

Run/qrels pairs (read through :func:`_load_topics`) and checkpoints go
through the content-addressed input cache (:mod:`tarstop.cache`), so only
the first command on the same bytes parses them; ``TARSTOP_CACHE_DIR``
names the cache directory and an empty value turns the cache off.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .baselines import budget_stop, check_fraction, knee_stop, oracle_stop
from .cache import cached_topics
from .corpus import (
    assemble_topics,
    check_batches,
    check_seed,
    check_synth,
    check_target,
    load_qrels,
    load_run,
    synth_topics,
    write_qrels_file,
    write_run_file,
)
from .errors import ConfigError, ParseError
from .metrics import (
    ResultError,
    StopResult,
    aggregate,
    read_results_csv,
    write_aggregate_csv,
    write_per_topic_csv,
    write_results_csv,
)
from .ppo import Hyperparams, infer_stop, load_checkpoint, save_checkpoint, train, write_training_log

DEFAULT_TARGETS = [0.8, 0.9, 1.0]
DEFAULT_BATCHES = 100


def _load_config(args) -> dict:
    """Read ``--config`` and check it against the subcommand's flags.

    A config file may set exactly the keys its subcommand has optional flags
    for (by their ``dest`` name), each with that flag's type and choices;
    repeatable flags take a list. Integers given for float flags become
    floats, so a config file and the same flags write identical outputs.
    """
    if args.config is None:
        return {}
    config_path = _require_file(args.config, "config file")
    try:
        data = json.loads(config_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {config_path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {config_path}: expected a JSON object")
    for key, value in data.items():
        action = args.config_keys.get(key)
        if action is None:
            raise ConfigError(
                f"config file {config_path}: unknown key {key!r} for {args.command!r} "
                f"(accepted: {', '.join(sorted(args.config_keys))})"
            )
        problem = _config_value_problem(action, value)
        if problem:
            raise ConfigError(f"config file {config_path}: key {key!r} {problem}, got {value!r}")
        if action.type is float:  # as the flag would parse it: 1 becomes 1.0
            data[key] = [float(v) for v in value] if isinstance(value, list) else float(value)
    return data


def _config_value_problem(action: argparse.Action, value) -> str | None:
    """Why ``value`` cannot stand in for ``action``'s flag, or None if it can."""
    kind = action.type or str
    accepts = (int, float) if kind is float else kind
    one, many = {int: ("an integer", "integers"), float: ("a number", "numbers"),
                 str: ("a string", "strings")}[kind]

    def fits(item) -> bool:
        return not isinstance(item, bool) and isinstance(item, accepts)

    if isinstance(action, argparse._AppendAction):
        if not (isinstance(value, list) and value and all(map(fits, value))):
            return f"must be a non-empty list of {many}"
    elif not fits(value):
        return f"must be {one}"
    values = value if isinstance(value, list) else [value]
    if kind is float and not all(abs(v) <= sys.float_info.max for v in values):
        return "must be finite"  # Hyperparams.validate's rule, before float() meets a huge int
    if action.choices is not None and value not in action.choices:
        return f"must be one of {', '.join(action.choices)}"
    return None


def _config_keys(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """A subcommand's config keys: the ``dest`` of each optional flag."""
    return {
        action.dest: action
        for action in parser._actions
        if action.option_strings and not action.required and action.dest not in ("help", "config")
    }


def _resolve(args, config: dict, key: str, default, check=None):
    """``key``'s value from its flag, else from the config file, else ``default``.

    ``check``, the value's range rule, runs on a flag's or the config file's
    value; an error from the config file's names the file and the key.
    """
    flag = getattr(args, key, None)
    value = flag if flag is not None else config.get(key, default)
    if check is not None and (flag is not None or key in config):
        try:
            check(value)
        except ConfigError as exc:
            if flag is not None:
                raise
            raise ConfigError(f"config file {Path(args.config)}: key {key!r}: {exc}") from None
    return value


def _check_targets(targets, file_name=None) -> None:
    """Each target in (0, 1] and none given twice; with ``file_name``, no two
    either whose output files would share a name."""
    seen = {}
    for target in targets:
        check_target(target)
        name = target if file_name is None else file_name(target)
        if name in seen:
            raise ConfigError(f"target {target!r} is given twice" if seen[name] == target else
                              f"targets {seen[name]!r} and {target!r} would both write {name}")
        seen[name] = target


def _policy_file(target: float) -> str:
    return f"policy-t{target:g}.json"


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {p}")
    return p


def _load_topics(run_path, qrels_path):
    """The usable topics of a run/qrels pair, through the topic cache
    (:mod:`tarstop.cache`): parsed on a miss, loaded on a hit."""
    run_file = _require_file(run_path, "run file")
    qrels_file = _require_file(qrels_path, "qrels file")
    # The parse goes through this module's names, so wrappers installed on
    # them see every parse a command makes.
    try:
        topics = cached_topics(run_file, qrels_file,
                               lambda: assemble_topics(load_run(run_file), load_qrels(qrels_file)))
        if not topics:
            raise ConfigError("no usable topics (all empty or without relevant documents)")
    except ConfigError as exc:  # name the pair, which assemble_topics cannot
        raise ConfigError(f"{run_file} with {qrels_file}: {exc}") from None
    return topics


def cmd_synth(args) -> int:
    config = _load_config(args)
    count = _resolve(args, config, "count", 20, lambda v: check_synth(count=v))
    docs = _resolve(args, config, "docs", 1000, lambda v: check_synth(n_docs=v))
    prevalence = _resolve(args, config, "prevalence", 0.02, lambda v: check_synth(prevalence=v))
    decay = _resolve(args, config, "decay", 100.0, lambda v: check_synth(decay=v))
    seed = _resolve(args, config, "seed", 0, check_seed)
    tag = _resolve(args, config, "tag", "tarstop-synth")
    topics = synth_topics(count, docs, prevalence, decay, seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_path = out_dir / "synthetic.run"
    qrels_path = out_dir / "synthetic.qrels"
    write_run_file(run_path, topics, tag)
    write_qrels_file(qrels_path, topics)
    mean_prevalence = float(np.mean(topics.n_relevant / topics.n_docs))
    print(f"wrote {len(topics)} topics ({docs} docs each, mean prevalence "
          f"{mean_prevalence:.4f}) to {run_path} and {qrels_path}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    topics = _load_topics(args.run, args.qrels)
    targets = _resolve(args, config, "target", DEFAULT_TARGETS,
                       lambda ts: _check_targets(ts, _policy_file))
    normalize = _resolve(args, config, "normalize_obs", "ratio")
    hyper = Hyperparams(**{  # each field's flag has its name, except --timesteps
        f.name: _resolve(args, config, "timesteps" if f.name == "total_timesteps" else f.name,
                         f.default, lambda v, name=f.name: Hyperparams(**{name: v}).validate())
        for f in dataclasses.fields(Hyperparams)
    })
    batches = _resolve(args, config, "batches", DEFAULT_BATCHES, check_batches)
    out_dir = Path(args.out)
    for target in targets:
        checkpoint, rows = train(topics, target, hyper, n_batches=batches, normalize=normalize)
        out_dir.mkdir(parents=True, exist_ok=True)  # only once train() accepted the settings
        ckpt_path = out_dir / _policy_file(target)
        log_path = out_dir / f"train-log-t{target:g}.csv"
        save_checkpoint(checkpoint, ckpt_path)
        write_training_log(log_path, rows)
        last = rows[-1]
        print(f"target {target:g}: {len(rows)} iterations, "
              f"final mean stop batch {last.mean_stop_batch:.2f}, "
              f"mean episode reward {last.mean_ep_reward:.3f} -> {ckpt_path}")
    return 0


def cmd_stop(args) -> int:
    config = _load_config(args)
    checkpoint = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    mode = _resolve(args, config, "mode", "greedy")
    seed = _resolve(args, config, "seed", 0, check_seed)
    topics = _load_topics(args.run, args.qrels)
    results = infer_stop(checkpoint, topics.batched(checkpoint.n_batches), mode=mode, rng=seed)
    write_results_csv(args.out, results)
    mean_batch = float(np.mean([r.stop_batch for r in results]))
    print(f"wrote {len(results)} stopping decisions (mean stop batch {mean_batch:.2f}) to {args.out}")
    return 0


def cmd_baseline(args) -> int:
    config = _load_config(args)
    targets = _resolve(args, config, "target", DEFAULT_TARGETS, _check_targets)
    # range-checked whatever the method: a bad value is an error even where it is ignored
    batches = _resolve(args, config, "batches", DEFAULT_BATCHES, check_batches)
    fraction = _resolve(args, config, "fraction", 0.5, check_fraction)
    topics = _load_topics(args.run, args.qrels)
    if args.method == "oracle":
        results = oracle_stop(topics, targets)
    else:
        bases = (knee_stop(topics.batched(batches)) if args.method == "knee"
                 else budget_stop(topics, fraction))
        results = [StopResult(topic_id, method, t, docs, found, batch)
                   for topic_id, method, _, docs, found, batch in bases for t in targets]
    write_results_csv(args.out, results)
    print(f"wrote {len(results)} {args.method} decisions "
          f"({len(topics)} topics x {len(targets)} targets) to {args.out}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args)
    targets = _resolve(args, config, "target", None, _check_targets)
    topics = _load_topics(args.run, args.qrels)
    results = []
    given_in = {}  # (method, target, topic) -> the results file that gave it
    for path in args.results:
        path = _require_file(path, "results file")
        for result in read_results_csv(path):
            if result.target_recall is not None:
                stamped = [result]
            elif targets:
                stamped = [result._replace(target_recall=t) for t in targets]
            else:
                raise ConfigError(f"{path}: results for method {result.method!r} carry no "
                                  "target recall; pass --target")
            for row in stamped:
                key = (row.method, row.target_recall, row.topic_id)
                if key in given_in:
                    raise ConfigError(
                        f"{path}: method {row.method!r} at target {row.target_recall:g} repeats "
                        f"topic {row.topic_id!r}, already given in {given_in[key]}"
                    )
                given_in[key] = path
            results.extend(stamped)
    if not results:
        raise ConfigError("results files contain no rows")
    try:
        report = aggregate(results, topics)
    except ResultError as exc:  # name the files that gave the rows
        paths = dict.fromkeys(str(given_in[r.method, r.target_recall, r.topic_id])
                              for r in exc.results)
        raise ConfigError(f"{', '.join(paths)}: {exc}") from None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    per_topic_path = out_dir / "per_topic.csv"
    aggregate_path = out_dir / "aggregate.csv"
    write_per_topic_csv(per_topic_path, report)
    write_aggregate_csv(aggregate_path, report)
    for s in report.summaries:
        flag = " pareto" if s.pareto_optimal else ""
        print(f"{s.method:>10s} @ {s.target_recall:g}: recall {s.mean_recall:.3f}, "
              f"cost {s.mean_cost:.3f}, excess {s.mean_excess:+.3f}{flag}")
    print(f"wrote {per_topic_path} and {aggregate_path}")
    return 0


def _synth_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, help="number of topics (default 20)")
    p.add_argument("--docs", type=int, help="documents per topic (default 1000)")
    p.add_argument("--prevalence", type=float, help="expected relevant fraction (default 0.02)")
    p.add_argument("--decay", type=float, help="rank decay of relevance density (default 100)")
    p.add_argument("--seed", type=int, help="generator seed (default 0)")
    p.add_argument("--tag", help="run tag column value")


def _train_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True, help="output directory for checkpoints and logs")
    p.add_argument("--target", type=float, action="append",
                   help="target recall, repeatable (default 0.8 0.9 1.0)")
    p.add_argument("--batches", type=int, help=f"ranking batch count (default {DEFAULT_BATCHES})")
    p.add_argument("--timesteps", type=int, help="total training transitions (default 100000)")
    p.add_argument("--seed", type=int, help="training seed (default 0)")
    p.add_argument("--normalize-obs", dest="normalize_obs", choices=["ratio", "count"],
                   help="observation entries as per-batch ratios or raw counts (default ratio)")
    p.add_argument("--n-steps", dest="n_steps", type=int)
    p.add_argument("--minibatch-size", dest="minibatch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--n-epochs", dest="n_epochs", type=int)
    p.add_argument("--entropy-coef", dest="entropy_coef", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--clip-range", dest="clip_range", type=float)
    p.add_argument("--gae-lambda", dest="gae_lambda", type=float)
    p.add_argument("--value-coef", dest="value_coef", type=float)
    p.add_argument("--n-envs", dest="n_envs", type=int)
    p.add_argument("--max-grad-norm", dest="max_grad_norm", type=float)


def _stop_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--mode", choices=["greedy", "sample"])
    p.add_argument("--seed", type=int, help="seed for sample mode")


def _baseline_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", required=True, choices=["oracle", "knee", "budget"])
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--target", type=float, action="append",
                   help="target recall label(s) for the rows (default 0.8 0.9 1.0)")
    p.add_argument("--batches", type=int, help="knee evaluation schedule (default 100)")
    p.add_argument("--fraction", type=float, help="budget fraction (default 0.5)")


def _eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--results", action="append", required=True,
                   help="stopping-results CSV, repeatable; minimal schema "
                        "(topic_id, method, docs_examined) is accepted")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True, help="output directory for report CSVs")
    p.add_argument("--target", type=float, action="append",
                   help="target(s) stamped onto imported rows that lack one")


# each subcommand's help, what runs it and what declares its arguments
SUBCOMMANDS = {
    "synth": ("generate a synthetic run/qrels pair", cmd_synth, _synth_arguments),
    "train": ("train one policy per target recall", cmd_train, _train_arguments),
    "stop": ("apply a trained policy to a collection", cmd_stop, _stop_arguments),
    "baseline": ("run a reference stopping strategy", cmd_baseline, _baseline_arguments),
    "eval": ("score stopping results against qrels", cmd_eval, _eval_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line's parser. Every subcommand is listed with its help,
    but only ``command``'s arguments are declared, or all when it is None: a
    parser built for the subcommand an argv names parses it as the full one."""
    parser = argparse.ArgumentParser(
        prog="tarstop",
        description="Train and evaluate stopping rules for ranked document review.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, add_arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            p.add_argument("--config", help="JSON file with key/value defaults")
            add_arguments(p)
            p.set_defaults(func=func, config_keys=_config_keys(p))
    return parser


def _named_command(argv) -> str | None:
    """The subcommand ``argv`` names, the first argument not an option, if it is one."""
    first = next((arg for arg in argv if not arg.startswith("-")), None)
    return first if first in SUBCOMMANDS else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_named_command(argv)).parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
