"""Command-line entry point: synthesize data, train, infer, run baselines, evaluate.

Each option is declared once, as an :class:`Option` in :data:`SUBCOMMANDS`.
Before a subcommand reads any input file, :func:`resolve` takes each
setting from its flag, else the --config JSON file (keyed by the optional
flags' Python names), else its default, checks it and records its source.
Exit codes: 0 success; 2 usage or configuration error; 1 runtime failure,
or a fault in tarstop itself (``error: internal error: ...``, and its traceback).

Run/qrels pairs (read through :func:`_load_topics`) go through the
content-addressed input cache (:mod:`tarstop.cache`), so only the first
command on the same bytes parses them, and a file whose stat shows it
unchanged since an earlier command hashed it is not read again to find its
entry; ``TARSTOP_CACHE_DIR`` names the cache directory and an empty value
turns the cache off, memo included. A checkpoint is
read whole by each ``stop``: its weights are base64 float32, quick to decode.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .baselines import budget_stop, check_fraction, knee_stop, oracle_stop
from .cache import cached
from .corpus import (
    TOPICS,
    assemble_topics,
    check_batches,
    check_seed,
    check_synth,
    check_tag,
    check_target,
    load_qrels,
    load_run,
    synth_topics,
    write_qrels_file,
    write_run_file,
)
from .env import NORMALIZE_MODES
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
from .nets import HIDDEN_SIZES
from .ppo import (INFER_MODES, Hyperparams, NonFiniteLossError, infer_stop, load_checkpoint,
                  save_checkpoint, train, write_training_log)

log = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class Option:
    """A subcommand's option: the flag ``--name`` (``-`` for ``_``) and, unless
    required, the config key ``name``. ``check`` is the range rule of a flag's
    or the config file's value; a repeatable option's value is a list."""

    name: str
    type: type = str
    default: object = None
    check: Callable | None = None
    help: str | None = None
    choices: tuple | None = None
    repeats: bool = False
    required: bool = False

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        shown = " ".join(map(str, self.default)) if self.repeats and self.default else self.default
        help_text = self.help if shown is None else f"{self.help or ''} (default {shown})".lstrip()
        parser.add_argument("--" + self.name.replace("_", "-"), type=self.type,
                            choices=self.choices, action="append" if self.repeats else "store",
                            required=self.required, help=help_text)

    def problem(self, value) -> str | None:
        """Why ``value``, from a flag or the config file, cannot be this option's, or None."""
        accepts = (int, float) if self.type is float else self.type
        one, many = {int: ("an integer", "integers"), float: ("a number", "numbers"),
                     str: ("a string", "strings")}[self.type]
        values = value if self.repeats and isinstance(value, list) else [value]
        if (self.repeats and not (isinstance(value, list) and value)
                or any(isinstance(v, bool) or not isinstance(v, accepts) for v in values)):
            return f"must be a non-empty list of {many}" if self.repeats else f"must be {one}"
        if self.type is float and not all(abs(v) <= sys.float_info.max for v in values):
            return "must be finite"  # nan, inf, or an integer past any float
        if self.choices is not None and value not in self.choices:
            return f"must be one of {', '.join(self.choices)}"
        return None

    def check_range(self, value) -> None:
        """The range rule, after every integer's: to fit in 64 bits, as numpy holds it."""
        if isinstance(value, int) and not -(2**63) <= value < 2**63:
            raise ConfigError(f"{self.name} must fit in 64 bits, got {value}")
        if self.check is not None:
            self.check(value)


class Setting(NamedTuple):
    value: object
    source: str  # "flag", "config" or "default"


class Settings(dict):
    """Each resolved setting's :class:`Setting` by name, and the config file's
    path as ``config``; ``settings.name`` is a value alone."""

    def __getattr__(self, name):
        try:
            return self[name].value
        except KeyError:
            raise AttributeError(name) from None


def resolve(args) -> Settings:
    """``args.command``'s settings, each from its flag, else the config file, else its default.
    A given value must have its option's type and choices and be finite; it is held as the flag
    would parse it (1 as 1.0 for a number), then range-checked (see :func:`_checked`)."""
    config = _load_config(args)
    settings = Settings(config=Setting(args.config, "flag" if args.config else "default"))
    for option in SUBCOMMANDS[args.command][2]:
        name, flag = option.name, getattr(args, option.name)
        source = "flag" if flag is not None else "config" if name in config else "default"
        value = flag if source == "flag" else config.get(name, option.default)
        if source != "default":
            if problem := option.problem(value):
                where = f"config file {Path(args.config)}: " if source == "config" else ""
                raise ConfigError(f"{where}key {name!r} {problem}, got {value!r}")
            if option.type is float:
                value = [float(v) for v in value] if option.repeats else float(value)
        settings[name] = Setting(value, source)
        if source != "default":
            _checked(settings, [name], lambda: option.check_range(value))
    return settings


def _load_config(args) -> dict:
    """The ``--config`` file's JSON object, whose keys must be the subcommand's config keys."""
    if args.config is None:
        return {}
    config_path = _require_file(args.config, "config file")
    try:
        data = json.loads(config_path.read_text(encoding="utf-8"))
    # not JSON or UTF-8, an integer past int()'s digit limit, or nested past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {config_path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {config_path}: expected a JSON object")
    unknown = [key for key in data if key not in args.config_keys]
    if unknown:
        raise ConfigError(f"config file {config_path}: unknown key {unknown[0]!r} for "
                          f"{args.command!r} (accepted: {', '.join(sorted(args.config_keys))})")
    return data


def _checked(settings: Settings, keys, rule):
    """``rule()``, over the settings ``keys``; if the config file gave any of
    them, its error names the file and those keys."""
    try:
        return rule()
    except ConfigError as exc:
        given = ", ".join(repr(key) for key in keys if settings[key].source == "config")
        if not given:
            raise
        raise ConfigError(f"config file {Path(settings.config)}: key {given}: {exc}") from None


def _fits(what: str, count: int) -> None:
    """A joint rule: the array ``what``, ``count`` 8-byte elements, fits numpy's byte count."""
    if count > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"{what} is {count} elements, more than an array can hold")


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


def _check_out_dir(path) -> None:
    """``path`` is a directory, or can be made one: its nearest existing ancestor is one."""
    existing = next(p for p in (Path(path), *Path(path).parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"out {path}: {existing} is not a directory")


def _check_out_file(path) -> None:
    """``path`` can be written as a file: it is not a directory, and its parent is one
    (the CSV writers make no directory)."""
    if Path(path).is_dir():
        raise ConfigError(f"out {path}: is a directory")
    if not Path(path).parent.is_dir():
        raise ConfigError(f"out {path}: {Path(path).parent} is not an existing directory")


def _load_topics(run_path, qrels_path):
    """The usable topics of a run/qrels pair, through the input cache
    (:mod:`tarstop.cache`): parsed on a miss, loaded on a hit; logs their warnings."""
    run_file = _require_file(run_path, "run file")
    qrels_file = _require_file(qrels_path, "qrels file")
    # The parse goes through this module's names, so wrappers installed on
    # them see every parse a command makes.
    try:
        topics = cached(TOPICS, (run_file, qrels_file),
                        lambda: assemble_topics(load_run(run_file), load_qrels(qrels_file)))
        for message in topics.warnings:
            log.warning("%s", message)
        if not topics:
            raise ConfigError("no usable topics (all empty or without relevant documents)")
    except ConfigError as exc:  # name the pair, which assemble_topics cannot
        raise ConfigError(f"{run_file} with {qrels_file}: {exc}") from None
    return topics


def cmd_synth(s: Settings) -> int:
    _checked(s, ("count", "docs"), lambda: _fits("count x docs", s.count * s.docs))
    topics = _checked(s, ("count", "docs", "prevalence", "decay", "seed"),
                      lambda: synth_topics(s.count, s.docs, s.prevalence, s.decay, s.seed))
    out_dir = Path(s.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_path = out_dir / "synthetic.run"
    qrels_path = out_dir / "synthetic.qrels"
    write_run_file(run_path, topics, s.tag)
    write_qrels_file(qrels_path, topics)
    mean_prevalence = float(np.mean(topics.n_relevant / topics.n_docs))
    print(f"wrote {len(topics)} topics ({s.docs} docs each, mean prevalence "
          f"{mean_prevalence:.4f}) to {run_path} and {qrels_path}")
    return 0


def cmd_train(s: Settings) -> int:
    hyper = Hyperparams(*(s[option.name].value for option in HYPER_OPTIONS))
    # the settings' joint rules, checked before the pair is read
    _checked(s, ("timesteps", "n_steps", "n_envs"), hyper.iterations)
    _checked(s, ("batches",), lambda: _fits("batches x hidden units", s.batches * HIDDEN_SIZES[0]))
    _checked(s, ("n_steps", "n_envs", "batches"), lambda: _fits(
        "n_steps x n_envs x batches", hyper.n_steps * hyper.n_envs * s.batches))
    topics = _load_topics(s.run, s.qrels)
    _checked(s, ("batches",), lambda: _fits("topics x batches", len(topics) * s.batches))
    out_dir = Path(s.out)
    for target in s.target:
        checkpoint, rows = train(topics, target, hyper, n_batches=s.batches,
                                 normalize=s.normalize_obs)
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


def cmd_stop(s: Settings) -> int:
    checkpoint = load_checkpoint(_require_file(s.checkpoint, "checkpoint"))
    topics = _load_topics(s.run, s.qrels)
    results = infer_stop(checkpoint, topics.batched(checkpoint.n_batches), mode=s.mode, rng=s.seed)
    write_results_csv(s.out, results)
    mean_batch = float(np.mean([r.stop_batch for r in results]))
    print(f"wrote {len(results)} stopping decisions (mean stop batch {mean_batch:.2f}) to {s.out}")
    return 0


def cmd_baseline(s: Settings) -> int:
    topics = _load_topics(s.run, s.qrels)
    # like the range rules, whatever the method
    _checked(s, ("batches",), lambda: _fits("topics x batches", len(topics) * s.batches))
    if s.method == "oracle":
        results = oracle_stop(topics, s.target)
    else:
        bases = (knee_stop(topics.batched(s.batches)) if s.method == "knee"
                 else budget_stop(topics, s.fraction))
        results = [StopResult(topic_id, method, t, docs, found, batch)
                   for topic_id, method, _, docs, found, batch in bases for t in s.target]
    write_results_csv(s.out, results)
    print(f"wrote {len(results)} {s.method} decisions "
          f"({len(topics)} topics x {len(s.target)} targets) to {s.out}")
    return 0


def cmd_eval(settings: Settings) -> int:
    topics = _load_topics(settings.run, settings.qrels)
    results = []
    given_in = {}  # (method, target, topic) -> the results file that gave it
    for path in settings.results:
        path = _require_file(path, "results file")
        for result in read_results_csv(path):
            if result.target_recall is not None:
                stamped = [result]
            elif settings.target:
                stamped = [result._replace(target_recall=t) for t in settings.target]
            else:
                raise ConfigError(f"{path}: results for method {result.method!r} carry no "
                                  "target recall; pass --target")
            for row in stamped:
                key = (row.method, row.target_recall, row.topic_id)
                if key in given_in:
                    raise ConfigError(
                        f"{path}: method {row.method!r} at target {row.target_recall!r} repeats "
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
    out_dir = Path(settings.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    per_topic_path = out_dir / "per_topic.csv"
    aggregate_path = out_dir / "aggregate.csv"
    write_per_topic_csv(per_topic_path, report)
    write_aggregate_csv(aggregate_path, report)
    usable = len(topics)
    for s in report.summaries:
        flag = " pareto" if s.pareto_optimal else ""
        print(f"{s.method:>10s} @ {s.target_recall!r}: {s.n_topics} of {usable} topics, "
              f"recall {s.mean_recall:.3f}, cost {s.mean_cost:.3f}, "
              f"excess {s.mean_excess:+.3f}{flag}")
        if s.n_topics < usable:  # a results file cut short, or a method run on fewer topics
            log.warning("%s @ %r: only %d of %d topics have results; the means leave out "
                        "the other %d", s.method, s.target_recall, s.n_topics, usable,
                        usable - s.n_topics)
    print(f"wrote {per_topic_path} and {aggregate_path}")
    return 0


# train's Hyperparams options, in field order and with the fields' types and defaults
HYPER_OPTIONS = tuple(
    Option("timesteps" if f.name == "total_timesteps" else f.name,
           int if f.type == "int" else float, f.default,
           lambda v, name=f.name: Hyperparams(**{name: v}).validate(),
           {"total_timesteps": "total training transitions", "seed": "training seed"}.get(f.name))
    for f in dataclasses.fields(Hyperparams)
)
TARGET = Option("target", float, (0.8, 0.9, 1.0), _check_targets,
                "target recall label(s) for the rows", repeats=True)
BATCHES = Option("batches", int, 100, check_batches, "knee evaluation schedule")
RUN, QRELS = Option("run", required=True), Option("qrels", required=True)

# each subcommand's help, what runs it and its options, in --help order
SUBCOMMANDS = {
    "synth": ("generate a synthetic run/qrels pair", cmd_synth, (
        Option("out", check=_check_out_dir, help="output directory", required=True),
        Option("count", int, 20, lambda v: check_synth(count=v), "number of topics"),
        Option("docs", int, 1000, lambda v: check_synth(n_docs=v), "documents per topic"),
        Option("prevalence", float, 0.02, lambda v: check_synth(prevalence=v),
               "expected relevant fraction"),
        Option("decay", float, 100.0, lambda v: check_synth(decay=v),
               "rank decay of relevance density"),
        Option("seed", int, 0, check_seed, "generator seed"),
        Option("tag", str, "tarstop-synth", check_tag, "run tag column value"),
    )),
    "train": ("train one policy per target recall", cmd_train, (
        RUN, QRELS, Option("out", check=_check_out_dir, required=True,
                           help="output directory for checkpoints and logs"),
        dataclasses.replace(TARGET, check=lambda ts: _check_targets(ts, _policy_file),
                            help="target recall, repeatable"),
        dataclasses.replace(BATCHES, help="ranking batch count"),
        Option("normalize_obs", default="ratio", choices=NORMALIZE_MODES,
               help="observation entries as per-batch ratios or raw counts"),
        *HYPER_OPTIONS,
    )),
    "stop": ("apply a trained policy to a collection", cmd_stop, (
        Option("checkpoint", required=True), RUN, QRELS,
        Option("out", check=_check_out_file, help="output CSV", required=True),
        Option("mode", default="greedy", choices=INFER_MODES),
        Option("seed", int, 0, check_seed, "seed for sample mode"),
    )),
    "baseline": ("run a reference stopping strategy", cmd_baseline, (
        Option("method", choices=("oracle", "knee", "budget"), required=True),
        RUN, QRELS, Option("out", check=_check_out_file, help="output CSV", required=True),
        TARGET, BATCHES, Option("fraction", float, 0.5, check_fraction, "budget fraction"),
    )),
    "eval": ("score stopping results against qrels", cmd_eval, (
        Option("results", repeats=True, required=True,
               help="stopping-results CSV, repeatable; minimal schema "
                    "(topic_id, method, docs_examined) is accepted"),
        RUN, QRELS, Option("out", check=_check_out_dir, required=True,
                           help="output directory for report CSVs"),
        dataclasses.replace(TARGET, default=None,
                            help="target(s) stamped onto imported rows that lack one"),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line's parser: every subcommand with its help and arguments,
    or ``command``'s alone, which parses an argv naming it as the full one does."""
    parser = argparse.ArgumentParser(
        prog="tarstop",
        description="Train and evaluate stopping rules for ranked document review.",
    )
    # a lone subparser's usage text still lists all five; the full parser takes no
    # metavar, which would rename "argument command" in its errors
    names = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)
    for name, (help_text, func, options) in SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.add_argument("--config", help="JSON file with key/value defaults")
            for option in options:
                option.add_to(p)
            p.set_defaults(func=func, config_keys={o.name: o for o in options if not o.required})
    return parser


def _named_command(argv) -> str | None:
    """The subcommand ``argv`` starts with, if it starts with one. Anything else,
    such as ``--help stop``, is left to the full parser."""
    return argv[0] if argv and argv[0] in SUBCOMMANDS else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_named_command(argv)).parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")
    try:
        return args.func(resolve(args))
    except (ConfigError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonFiniteLossError, OSError, MemoryError) as exc:  # expected runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault in tarstop: the traceback shows where
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
