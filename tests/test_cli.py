import csv
import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_topic, topic_labels
from tarstop.cli import SUBCOMMANDS, _named_command, build_parser, main
from tarstop.corpus import (Collection, assemble_topics, load_qrels, load_run, synth_topics,
                            write_qrels_file, write_run_file)

FAST_TRAIN = ["--timesteps", "200", "--n-steps", "10", "--n-envs", "2", "--minibatch-size", "20"]


@pytest.fixture
def collection(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--count", "4", "--docs", "60",
                 "--prevalence", "0.2", "--decay", "12", "--seed", "3"]) == 0
    return out / "synthetic.run", out / "synthetic.qrels"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(row for row in fh if not row.startswith("#")))


class TestSynth:
    def test_files_reparse_to_the_generated_topics(self, tmp_path, collection):
        run_path, qrels_path = collection
        topics = assemble_topics(load_run(run_path), load_qrels(qrels_path))
        reference = synth_topics(4, 60, 0.2, 12.0, seed=3)
        assert topics.topic_ids == reference.topic_ids
        assert np.array_equal(topics.bounds, reference.bounds)
        assert np.array_equal(topics.labels, reference.labels)
        doc_ids = [line.split()[2] for line in run_path.read_text().splitlines()]
        assert doc_ids == [f"synth-{k:04d}-d{r:06d}" for k in range(4) for r in range(1, 61)]

    def test_seed_changes_files(self, tmp_path):
        for seed in ("1", "2"):
            assert main(["synth", "--out", str(tmp_path / seed), "--count", "2",
                         "--docs", "30", "--seed", seed]) == 0
        a = (tmp_path / "1" / "synthetic.qrels").read_bytes()
        b = (tmp_path / "2" / "synthetic.qrels").read_bytes()
        assert a != b

    def test_zero_count_is_a_config_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x"), "--count", "0"]) == 2


class TestTrain:
    def test_one_target_one_checkpoint(self, tmp_path, collection):
        run_path, qrels_path = collection
        out = tmp_path / "model"
        code = main(["train", "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(out), "--target", "0.9", "--batches", "6",
                     "--seed", "0", *FAST_TRAIN])
        assert code == 0
        assert (out / "policy-t0.9.json").is_file()
        assert (out / "train-log-t0.9.csv").is_file()
        assert len(list(out.glob("policy-*.json"))) == 1

    def test_three_targets_three_checkpoints(self, tmp_path, collection):
        run_path, qrels_path = collection
        out = tmp_path / "model"
        code = main(["train", "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(out), "--target", "0.8", "--target", "0.9",
                     "--target", "1.0", "--batches", "6", "--seed", "0", *FAST_TRAIN])
        assert code == 0
        assert sorted(p.name for p in out.glob("policy-*.json")) == [
            "policy-t0.8.json", "policy-t0.9.json", "policy-t1.json",
        ]

    def test_missing_qrels_exits_2(self, tmp_path, collection):
        run_path, _ = collection
        assert main(["train", "--run", str(run_path), "--qrels", str(tmp_path / "nope.qrels"),
                     "--out", str(tmp_path / "m"), "--target", "0.9", *FAST_TRAIN]) == 2

    def test_identical_runs_are_byte_identical(self, tmp_path, collection):
        run_path, qrels_path = collection
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--run", str(run_path), "--qrels", str(qrels_path),
                         "--out", str(out), "--target", "0.9", "--batches", "6",
                         "--seed", "11", *FAST_TRAIN]) == 0
            outs.append(out)
        assert (outs[0] / "policy-t0.9.json").read_bytes() == (outs[1] / "policy-t0.9.json").read_bytes()
        assert (outs[0] / "train-log-t0.9.csv").read_bytes() == (outs[1] / "train-log-t0.9.csv").read_bytes()

    def test_config_file_defaults_and_cli_precedence(self, tmp_path, collection):
        run_path, qrels_path = collection
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 11, "batches": 6, "timesteps": 200, "n_steps": 10,
            "n_envs": 2, "minibatch_size": 20, "target": [0.9],
        }))
        out_config = tmp_path / "from-config"
        assert main(["train", "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(out_config), "--config", str(config)]) == 0
        out_flags = tmp_path / "from-flags"
        assert main(["train", "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(out_flags), "--target", "0.9", "--batches", "6",
                     "--seed", "11", *FAST_TRAIN]) == 0
        assert (out_config / "policy-t0.9.json").read_bytes() == (out_flags / "policy-t0.9.json").read_bytes()
        # a CLI flag overrides the config value
        out_override = tmp_path / "override"
        assert main(["train", "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(out_override), "--config", str(config), "--seed", "12"]) == 0
        assert (out_override / "policy-t0.9.json").read_bytes() != (out_config / "policy-t0.9.json").read_bytes()

    def test_integer_config_value_for_float_flag_matches_the_flag(self, tmp_path, collection):
        run_path, qrels_path = collection
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"target": [1], "learning_rate": 1}))
        data = ["--run", str(run_path), "--qrels", str(qrels_path), "--batches", "6", *FAST_TRAIN]
        assert main(["train", *data, "--out", str(tmp_path / "a"), "--config", str(config)]) == 0
        assert main(["train", *data, "--out", str(tmp_path / "b"), "--target", "1",
                     "--learning-rate", "1"]) == 0
        assert (tmp_path / "a" / "policy-t1.json").read_bytes() == (tmp_path / "b" / "policy-t1.json").read_bytes()


    @pytest.mark.parametrize("config, message", [
        ({"target": 0.9}, "key 'target' must be a non-empty list of numbers, got 0.9"),
        ({"learning_rat": 0.1}, "unknown key 'learning_rat' for 'train'"),
        ({"seed": "11"}, "key 'seed' must be an integer, got '11'"),
        ({"batches": 6.0}, "key 'batches' must be an integer, got 6.0"),
        ({"normalize_obs": "raw"}, "key 'normalize_obs' must be one of ratio, count"),
        # JSON integers have no size limit; past about 1e308 they have no float value
        ({"learning_rate": 10**400}, f"key 'learning_rate' must be finite, got {10**400}"),
        ({"target": [0.9, -(10**400)]}, f"key 'target' must be finite, got [0.9, {-(10**400)}]"),
    ], ids=["scalar-target", "typo-key", "string-seed", "float-batches", "bad-choice",
            "huge-int-float-flag", "huge-int-in-float-list"])
    def test_bad_config_exits_2(self, tmp_path, collection, capsys, config, message):
        run_path, qrels_path = collection
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(tmp_path / "m"), "--config", str(path), *FAST_TRAIN]) == 2
        err = capsys.readouterr().err
        assert "config.json" in err and message in err
        assert not (tmp_path / "m").exists()


    def test_non_finite_loss_exits_1_naming_the_loss_and_every_stat(self, tmp_path, collection,
                                                                    capsys):
        run_path, qrels_path = collection
        with np.errstate(all="ignore"):  # the overflow is the point
            code = main(["train", "--run", str(run_path), "--qrels", str(qrels_path),
                         "--out", str(tmp_path / "m"), "--learning-rate", "1e300",
                         "--timesteps", "1600"])
        assert code == 1
        [line] = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert re.fullmatch(r"error: non-finite loss (inf|-inf|nan) during update: "
                            r"LossStats\(policy_loss=\S+, value_loss=\S+, entropy=\S+, "
                            r"clip_fraction=\S+, approx_kl=\S+\)", line), line
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "nan"), ("value_coef", "inf"), ("max_grad_norm", "nan"),
    ])
    def test_non_finite_hyperparameter_exits_2(self, tmp_path, collection, capsys,
                                               source, key, value):
        run_path, qrels_path = collection
        args = ["train", "--run", str(run_path), "--qrels", str(qrels_path),
                "--out", str(tmp_path / "m"), "--batches", "6", *FAST_TRAIN]
        if source == "flag":
            args += [f"--{key.replace('_', '-')}", value]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: float(value)}))  # NaN / Infinity
            args += ["--config", str(config)]
        assert main(args) == 2
        assert f"key '{key}' must be finite, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["synth", "train", "stop"])
def test_negative_seed_exits_2(tmp_path, trained, capsys, command, source):
    run_path, qrels_path, ckpt = trained
    data = ["--run", str(run_path), "--qrels", str(qrels_path)]
    args = {
        "synth": ["synth", "--out", str(tmp_path / "s"), "--count", "2", "--docs", "30"],
        "train": ["train", *data, "--out", str(tmp_path / "m"), "--batches", "6", *FAST_TRAIN],
        "stop": ["stop", "--checkpoint", str(ckpt), *data, "--out", str(tmp_path / "x.csv"),
                 "--mode", "sample"],
    }[command]
    if source == "flag":
        args += ["--seed", "-1"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": -1}))
        args += ["--config", str(config)]
    assert main(args) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def command_args(command, tmp_path, trained):
    """A valid command line for ``command`` that writes under ``tmp_path / "o"``."""
    run_path, qrels_path, ckpt = trained
    data = ["--run", str(run_path), "--qrels", str(qrels_path)]
    out = str(tmp_path / "o")
    return {
        "synth": ["synth", "--out", out, "--count", "2", "--docs", "30"],
        "train": ["train", *data, "--out", out, "--batches", "6", *FAST_TRAIN],
        "stop": ["stop", "--checkpoint", str(ckpt), *data, "--out", out],
        "baseline": ["baseline", "--method", "budget", *data, "--out", out],
        "eval": ["eval", "--results", str(tmp_path / "r.csv"), *data, "--out", out],
    }[command]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value, message", [
    ("baseline", "target", [0.0], "target recall must be in (0, 1], got 0.0"),
    ("eval", "target", [0.5, 1.5], "target recall must be in (0, 1], got 1.5"),
    ("train", "batches", 0, "batch count must be >= 1, got 0"),
    ("baseline", "fraction", 1.5, "budget fraction must be in (0, 1], got 1.5"),
    ("stop", "seed", -2, "seed must be >= 0, got -2"),
    ("train", "gamma", 1.5, "gamma must be in (0, 1], got 1.5"),
    ("train", "n_envs", 0, "n_envs must be >= 1, got 0"),
    ("synth", "count", 0, "topic count must be >= 1, got 0"),
    ("synth", "docs", 0, "n_docs must be >= 1, got 0"),
    ("synth", "prevalence", 1.0, "prevalence must be in (0, 1), got 1.0"),
    ("synth", "decay", -1.0, "decay must be positive, got -1.0"),
])
def test_out_of_range_config_value_names_the_file_and_key(tmp_path, trained, capsys, source,
                                                          command, key, value, message):
    args = command_args(command, tmp_path, trained)
    flag = f"--{key.replace('_', '-')}"
    if flag in args:  # a base flag would override the config file
        del args[args.index(flag) : args.index(flag) + 2]
    if source == "flag":  # today's text
        args += [a for v in (value if isinstance(value, list) else [value]) for a in (flag, str(v))]
        expected = f"error: {message}\n"
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: value}))
        args += ["--config", str(config)]
        expected = f"error: config file {config}: key '{key}': {message}\n"
    assert main(args) == 2
    assert capsys.readouterr().err.endswith(expected)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, targets, message", [
    ("train", [0.9, 0.8, 0.9], "target 0.9 is given twice"),
    ("train", [0.9, 0.9000001], "targets 0.9 and 0.9000001 would both write policy-t0.9.json"),
    ("train", [1, 1.0], "target 1.0 is given twice"),
    ("baseline", [0.9, 0.9], "target 0.9 is given twice"),
    ("eval", [0.5, 0.7, 0.5], "target 0.5 is given twice"),
])
def test_repeated_target_exits_2_naming_it(tmp_path, trained, capsys, source, command, targets,
                                           message):
    args = command_args(command, tmp_path, trained)
    if source == "flag":
        args += [a for t in targets for a in ("--target", str(t))]
        expected = f"error: {message}\n"
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"target": targets}))
        args += ["--config", str(config)]
        expected = f"error: config file {config}: key 'target': {message}\n"
    assert main(args) == 2
    assert capsys.readouterr().err.endswith(expected)
    assert not (tmp_path / "o").exists()


def test_near_equal_targets_are_distinct_outside_train(tmp_path, trained):
    run_path, qrels_path, _ = trained
    data = ["--run", str(run_path), "--qrels", str(qrels_path)]
    results = tmp_path / "oracle.csv"
    assert main(["baseline", "--method", "oracle", *data, "--out", str(results),
                 "--target", "0.9", "--target", "0.9000001"]) == 0
    assert main(["eval", "--results", str(results), *data, "--out", str(tmp_path / "r")]) == 0
    assert len(read_rows(tmp_path / "r" / "aggregate.csv")) == 2


def test_config_keys_are_per_subcommand(tmp_path, collection, capsys):
    run_path, qrels_path = collection
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"fraction": 0.3}))  # a baseline key, not a stop key
    args = ["--run", str(run_path), "--qrels", str(qrels_path), "--config", str(path)]
    assert main(["baseline", "--method", "budget", "--out", str(tmp_path / "b.csv"), *args]) == 0
    assert main(["eval", "--results", str(tmp_path / "b.csv"), "--out", str(tmp_path / "r"),
                 *args]) == 2
    assert "unknown key 'fraction' for 'eval' (accepted: target)" in capsys.readouterr().err


DATA = ["--run", "r", "--qrels", "q", "--out", "o"]
PARSER_CASES = {  # each subcommand's valid argv first, then ones that exit 2
    "synth": [["--out", "o"],
              ["--out", "o", "--count", "3", "--docs", "9", "--prevalence", "0.1", "--decay", "5",
               "--seed", "2", "--tag", "x", "--config", "c.json"],
              ["--ou", "o", "--coun", "4"],
              [], ["--out", "o", "--count", "x"], ["--out", "o", "--run", "r"], ["extra", "--out", "o"]],
    "train": [[*DATA, "--target", "0.8", "--target", "0.9", "--batches", "5", "--timesteps", "9",
               "--normalize-obs", "count", "--n-envs", "2", "--gamma", "0.9"],
              [*DATA, "--config", "c.json", "--learning-rate", "1e-3"],
              [*DATA[:4]], [*DATA, "--normalize-obs", "log"], [*DATA, "--n-steps", "1.5"]],
    "stop": [["--checkpoint", "c", *DATA, "--mode", "sample", "--seed", "3"],
             ["--checkpoint", "c", *DATA],
             [*DATA], ["--checkpoint", "c", *DATA, "--mode", "best"],
             ["--checkpoint", "c", *DATA, "--batches", "3"]],
    "baseline": [["--method", "knee", *DATA, "--batches", "10", "--fraction", "0.3", "--target", "1"],
                 ["--method=oracle", *DATA, "--config", "c.json"],
                 [*DATA], ["--method", "nosuch", *DATA], ["--method", "budget", *DATA, "--mode", "x"]],
    "eval": [["--results", "a", "--results", "b", *DATA, "--target", "1"],
             ["--results", "a", *DATA, "--config", "c.json"],
             [*DATA], ["--results", "a", *DATA, "--target", "x"], ["--results", "a", *DATA, "-x"]],
}


def parse(parser, argv, capsys):
    """What ``parser`` makes of ``argv``: the namespace (its config keys by
    name), or the exit code and what was printed."""
    try:
        values = vars(parser.parse_args(argv))
    except SystemExit as exit_:
        printed = capsys.readouterr()
        return exit_.code, printed.out, printed.err
    values["config_keys"] = sorted(values["config_keys"])
    return values


@pytest.mark.parametrize("name", sorted(PARSER_CASES))
def test_parser_of_one_subcommand_parses_as_the_full_one(name, capsys):
    assert sorted(PARSER_CASES) == sorted(SUBCOMMANDS)
    for argv in [[name, "--help"], [name, "-h"]] + [[name, *rest] for rest in PARSER_CASES[name]]:
        full = parse(build_parser(), argv, capsys)
        assert parse(build_parser(name), argv, capsys) == full
        assert parse(build_parser(_named_command(argv)), argv, capsys) == full
        if isinstance(full, tuple):
            assert full[0] in (0, 2)
            assert (full[0] == 0) == ("-h" in argv or "--help" in argv)
    assert isinstance(parse(build_parser(name), [name, *PARSER_CASES[name][0]], capsys), dict)


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["nosuch"], [], ["--help", "stop"],
                                  ["-", "stop", "--out", "o"], ["--", "eval"], ["--bogus", "stop"]])
def test_top_level_help_and_errors_are_the_full_parsers(argv, capsys):
    full = parse(build_parser(), argv, capsys)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    printed = capsys.readouterr()
    assert (exit_.value.code, printed.out, printed.err) == full
    if argv[:1] in (["--help"], ["-h"]):
        assert exit_.value.code == 0
        for help_text, _, _ in SUBCOMMANDS.values():  # every subcommand is listed with its help
            assert help_text in printed.out
    else:
        assert exit_.value.code == 2
    if argv == ["nosuch"]:
        assert "argument command: invalid choice: 'nosuch'" in printed.err


@pytest.fixture
def trained(tmp_path, collection):
    run_path, qrels_path = collection
    out = tmp_path / "model"
    assert main(["train", "--run", str(run_path), "--qrels", str(qrels_path),
                 "--out", str(out), "--target", "0.9", "--batches", "6",
                 "--seed", "0", *FAST_TRAIN]) == 0
    return run_path, qrels_path, out / "policy-t0.9.json"


class TestStop:
    def test_greedy_runs_are_identical(self, tmp_path, trained):
        run_path, qrels_path, ckpt = trained
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["stop", "--checkpoint", str(ckpt), "--run", str(run_path),
                         "--qrels", str(qrels_path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sample_mode_is_seeded(self, tmp_path, trained):
        run_path, qrels_path, ckpt = trained
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["stop", "--checkpoint", str(ckpt), "--run", str(run_path),
                         "--qrels", str(qrels_path), "--out", str(out),
                         "--mode", "sample", "--seed", "4"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_batches_flag_is_rejected(self, tmp_path, trained, capsys):
        # the checkpoint fixes the batch count: no flag or config key sets it
        run_path, qrels_path, ckpt = trained
        args = ["stop", "--checkpoint", str(ckpt), "--run", str(run_path),
                "--qrels", str(qrels_path), "--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as exit_info:
            main([*args, "--batches", "6"])
        assert exit_info.value.code == 2
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"batches": 6}))
        assert main([*args, "--config", str(config)]) == 2
        assert "unknown key 'batches' for 'stop'" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_2(self, tmp_path, trained, capsys):
        run_path, qrels_path, _ = trained
        ckpt = tmp_path / "truncated.json"
        ckpt.write_text('{"kind": "tarstop-checkpoint", "format_version": 1}')
        assert main(["stop", "--checkpoint", str(ckpt), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "missing key 'actor'" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text[:-10], "not valid JSON"),
        (lambda text: f"[{text}]", "expected a JSON object, got list"),
        (lambda text: text.replace('"learning_rate"', '"learning_rat"'),
         "unknown hyperparams key 'learning_rat'"),
        (lambda text: text.replace('"weights": [[[', '"weights": [[["x", ', 1),
         "actor weights and biases are malformed"),
        (lambda text: text.replace('"weights": [[[', '"weights": [[[1.0], [', 1),
         "actor weights and biases are malformed"),
        (lambda text: re.sub(r'"n_envs": \d+', '"n_envs": "eight"', text),
         "hyperparams key 'n_envs' must be a number, got 'eight'"),
        (lambda text: re.sub(r'"gamma": [\d.]+', '"gamma": null', text),
         "hyperparams key 'gamma' must be a number, got None"),
        (lambda text: re.sub(r'"n_epochs": \d+', '"n_epochs": true', text),
         "hyperparams key 'n_epochs' must be a number, got True"),
        (lambda text: re.sub(r'"n_steps": \d+', '"n_steps": 10.5', text),
         "hyperparams key 'n_steps' must be an integer, got 10.5"),
        (lambda text: re.sub(r'"learning_rate": [\de.-]+', '"learning_rate": NaN', text),
         "hyperparams key 'learning_rate' must be finite, got nan"),
        (lambda text: re.sub(r'"learning_rate": [\de.-]+', f'"learning_rate": {10**400}', text),
         f"hyperparams key 'learning_rate' must be finite, got {10**400}"),
        (lambda text: re.sub(r'"weights": \[\[\[[-\de.]+', f'"weights": [[[{10**400}', text, 1),
         "actor weights and biases are malformed: int too large to convert to float"),
        (lambda text: re.sub(r'"gamma": [\d.]+', '"gamma": 2.0', text),
         "hyperparams gamma must be in (0, 1], got 2.0"),
        (lambda text: text.replace('"target_recall": 0.9', '"target_recall": 1.5'),
         "target_recall must be in (0, 1], got 1.5"),
        (lambda text: text.replace('"target_recall": 0.9', '"target_recall": NaN'),
         "target_recall must be in (0, 1], got nan"),
        (lambda text: text.replace('"normalize_obs": "ratio"', '"normalize_obs": 5'),
         "normalize_obs must be one of ('ratio', 'count'), got 5"),
    ], ids=["invalid-json", "top-level-list", "unknown-hyperparam", "non-numeric-weight",
            "ragged-weights", "string-hyperparam", "null-hyperparam", "bool-hyperparam",
            "float-for-int-hyperparam", "non-finite-hyperparam", "huge-int-hyperparam",
            "huge-int-weight", "invalid-hyperparam",
            "out-of-range-target", "nan-target", "bad-normalize-obs"])
    def test_malformed_checkpoint_exits_2(self, tmp_path, trained, capsys, damage, message):
        run_path, qrels_path, ckpt = trained
        broken = tmp_path / "broken.json"
        broken.write_text(damage(ckpt.read_text()))
        assert main(["stop", "--checkpoint", str(broken), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "broken.json" in err and message in err

    def test_qrels_only_topic_warns(self, tmp_path, trained, caplog):
        run_path, qrels_path, ckpt = trained
        extra_qrels = tmp_path / "extra.qrels"
        extra_qrels.write_text(qrels_path.read_text() + "ghost 0 gdoc 1\n")
        with caplog.at_level("WARNING"):
            assert main(["stop", "--checkpoint", str(ckpt), "--run", str(run_path),
                         "--qrels", str(extra_qrels), "--out", str(tmp_path / "x.csv")]) == 0
        assert "ghost" in caplog.text
        rows = read_rows(tmp_path / "x.csv")
        assert all(r["topic_id"] != "ghost" for r in rows)


def checkpoint_paths(node, prefix=()):
    """Paths (tuples of keys and indices) to values inside a checkpoint's
    JSON: every dict entry, and only the first and last item of a list, so
    top-level keys weigh as much as the thousands of weights."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from checkpoint_paths(value, (*prefix, key))
    elif isinstance(node, list):
        for index in sorted({0, len(node) - 1} if node else set()):
            yield from checkpoint_paths(node[index], (*prefix, index))


def at(data, path):
    for step in path:
        data = data[step]
    return data


def delete_a_key(draw, data):
    path = draw(st.sampled_from([p for p in checkpoint_paths(data) if p and isinstance(p[-1], str)]))
    del at(data, path[:-1])[path[-1]]
    return json.dumps(data)


JSON_VALUES = st.one_of(
    # JSON integers have no size limit; past about 1e308 they have no float value
    st.none(), st.booleans(), st.integers(), st.integers(-(10**400), 10**400), st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=3), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def swap_a_type(draw, data):
    path = draw(st.sampled_from(list(checkpoint_paths(data))))
    old = at(data, path)
    new = draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    if not path:
        return json.dumps(new)
    at(data, path[:-1])[path[-1]] = new
    return json.dumps(data)


def reshape_a_weight_matrix(draw, data):
    weights = data[draw(st.sampled_from(["actor", "critic"]))]["weights"]
    layer = draw(st.integers(0, len(weights) - 1))
    shape = (draw(st.integers(0, 70)), draw(st.integers(0, 70)))
    weights[layer] = np.resize(np.array(weights[layer]).ravel(), shape).tolist()
    return json.dumps(data)


def truncate_the_text(draw, data):
    text = json.dumps(data)
    return text[: draw(st.integers(0, len(text) - 1))]


def flip_a_byte(draw, data):
    raw = bytearray(json.dumps(data).encode())
    raw[draw(st.integers(0, len(raw) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(raw)


@pytest.mark.parametrize("mutate", [delete_a_key, swap_a_type, reshape_a_weight_matrix,
                                    truncate_the_text, flip_a_byte])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_checkpoint_exits_0_or_2_naming_it(tmp_path, trained, capsys, monkeypatch,
                                                   mutate, data):
    """Any damage to a trained checkpoint either still loads or is a
    config error that names the file, never an exit 1; and a second run,
    which a loadable checkpoint serves from the input cache, gives the
    same exit code and the same CSV bytes."""
    run_path, qrels_path, ckpt = trained
    example = Path(tempfile.mkdtemp(dir=tmp_path))  # examples share tmp_path
    monkeypatch.setenv("TARSTOP_CACHE_DIR", str(example / "cache"))  # cold for each example
    broken = example / "mutated.json"
    text = mutate(data.draw, json.loads(ckpt.read_text()))
    if isinstance(text, str):
        text = text.encode()
    broken.write_bytes(text)
    runs = []
    for run in ("cold", "warm"):
        out = example / f"{run}.csv"
        capsys.readouterr()
        code = main(["stop", "--checkpoint", str(broken), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert code == 0 or str(broken) in err, err
        runs.append((code, err, out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    if code == 0:  # the run/qrels pair and the checkpoint: the warm run was a hit
        assert len(list((example / "cache").glob("*.npz"))) == 2


def test_topic_shorter_than_the_batch_count(tmp_path, caplog):
    """A 50-document topic beside longer ones at the default 100 batches:
    every command runs, and the other topics' decisions do not move."""
    long_topics = synth_topics(3, 120, 0.1, 30.0, seed=5)
    mixed = Collection.of([*long_topics.topic_ids, "short"],
                          [*topic_labels(long_topics), [0, 1, 0, 0, 1] + [0] * 45])
    inputs = {}
    for name, topics in (("long", long_topics), ("mixed", mixed)):
        write_run_file(tmp_path / f"{name}.run", topics)
        write_qrels_file(tmp_path / f"{name}.qrels", topics)
        inputs[name] = ["--run", str(tmp_path / f"{name}.run"),
                        "--qrels", str(tmp_path / f"{name}.qrels")]
    methods = ("policy", "oracle", "knee", "budget")
    with caplog.at_level("WARNING"):
        assert main(["train", *inputs["mixed"], "--out", str(tmp_path / "model"),
                     "--target", "0.9", *FAST_TRAIN]) == 0
        for name, data in inputs.items():
            assert main(["stop", "--checkpoint", str(tmp_path / "model" / "policy-t0.9.json"),
                         *data, "--out", str(tmp_path / f"{name}-policy.csv")]) == 0
            for method in methods[1:]:
                assert main(["baseline", "--method", method, *data, "--target", "0.9",
                             "--out", str(tmp_path / f"{name}-{method}.csv")]) == 0
        results = [arg for m in methods for arg in ("--results", str(tmp_path / f"mixed-{m}.csv"))]
        assert main(["eval", *results, *inputs["mixed"], "--out", str(tmp_path / "report")]) == 0
    assert caplog.records == []
    for method in methods:
        long_lines = (tmp_path / f"long-{method}.csv").read_text().splitlines()
        mixed_lines = (tmp_path / f"mixed-{method}.csv").read_text().splitlines()
        assert [line for line in mixed_lines if not line.startswith("short,")] == long_lines
    rows = {r["method"]: r for r in read_rows(tmp_path / "report" / "per_topic.csv")
            if r["topic_id"] == "short"}
    assert set(rows) == set(methods)
    for row in rows.values():
        assert row["N"] == "50" and 1 <= int(row["docs_examined"]) <= 50
        assert float(row["cost"]) == int(row["docs_examined"]) / 50
    assert rows["oracle"]["docs_examined"] == "5"


class TestBaseline:
    def test_oracle_has_zero_excess_after_eval(self, tmp_path, collection):
        run_path, qrels_path = collection
        oracle_csv = tmp_path / "oracle.csv"
        assert main(["baseline", "--method", "oracle", "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(oracle_csv),
                     "--target", "0.9"]) == 0
        out = tmp_path / "report"
        assert main(["eval", "--results", str(oracle_csv), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(out)]) == 0
        rows = read_rows(out / "per_topic.csv")
        assert rows
        assert all(float(r["excess"]) == 0.0 for r in rows)

    def test_oracle_at_a_tiny_target_reads_to_the_first_relevant_document(self, tmp_path):
        # target * R - 1e-9 <= 0 for a target of 1e-10: the oracle must still
        # find one relevant document, not stop at rank 1 with none
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--count", "3", "--docs", "50", "--seed", "7"]) == 0
        paths = ["--run", str(data / "synthetic.run"), "--qrels", str(data / "synthetic.qrels")]
        oracle_csv = tmp_path / "oracle.csv"
        assert main(["baseline", "--method", "oracle", *paths, "--out", str(oracle_csv),
                     "--target", "1e-10"]) == 0
        topics = assemble_topics(load_run(data / "synthetic.run"), load_qrels(data / "synthetic.qrels"))
        rows = read_rows(oracle_csv)
        assert [(int(r["docs_examined"]), int(r["relevant_found"])) for r in rows] == [
            (int(np.flatnonzero(labels)[0]) + 1, 1) for labels in topic_labels(topics)]
        out = tmp_path / "report"
        assert main(["eval", "--results", str(oracle_csv), *paths, "--out", str(out)]) == 0
        assert all(float(r["recall"]) > 0 and float(r["excess"]) == 0.0
                   for r in read_rows(out / "per_topic.csv"))

    def test_full_budget_reaches_full_recall(self, tmp_path, collection):
        run_path, qrels_path = collection
        budget_csv = tmp_path / "budget.csv"
        assert main(["baseline", "--method", "budget", "--fraction", "1.0",
                     "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(budget_csv), "--target", "0.9"]) == 0
        out = tmp_path / "report"
        assert main(["eval", "--results", str(budget_csv), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(out)]) == 0
        assert all(float(r["recall"]) == 1.0 for r in read_rows(out / "per_topic.csv"))

    def test_knee_reads_everything_on_straight_line_gain(self, tmp_path):
        labels = np.zeros(100, dtype=int)
        labels[::2] = 1
        topic = make_topic(labels, topic_id="flat")
        run_path = tmp_path / "flat.run"
        qrels_path = tmp_path / "flat.qrels"
        write_run_file(run_path, topic)
        write_qrels_file(qrels_path, topic)
        knee_csv = tmp_path / "knee.csv"
        assert main(["baseline", "--method", "knee", "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(knee_csv),
                     "--target", "0.9", "--batches", "100"]) == 0
        rows = read_rows(knee_csv)
        assert rows[0]["docs_examined"] == "100"

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("method, option, value, message", [
        ("oracle", "batches", 0, "batch count must be >= 1, got 0"),
        ("knee", "fraction", 7.0, "budget fraction must be in (0, 1], got 7.0"),
        ("budget", "batches", -3, "batch count must be >= 1, got -3"),
        ("oracle", "fraction", 0.0, "budget fraction must be in (0, 1], got 0.0"),
    ])
    def test_out_of_range_option_exits_2_whatever_the_method(self, tmp_path, collection, capsys,
                                                             source, method, option, value,
                                                             message):
        # a method that ignores an option still checks it, so one config file
        # serves all three methods only if every value in it is valid
        run_path, qrels_path = collection
        args = ["baseline", "--method", method, "--run", str(run_path), "--qrels", str(qrels_path),
                "--out", str(tmp_path / "o.csv")]
        if source == "flag":
            args += [f"--{option}", str(value)]
        else:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({option: value}))
            args += ["--config", str(config)]
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("method", ["oracle", "knee", "budget"])
    def test_valid_options_a_method_ignores_are_accepted(self, tmp_path, collection, method):
        run_path, qrels_path = collection
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"batches": 7, "fraction": 0.25, "target": [0.9]}))
        assert main(["baseline", "--method", method, "--run", str(run_path), "--qrels",
                     str(qrels_path), "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize("kind", ["run", "qrels"])
    def test_malformed_input_file_exits_2_naming_it(self, tmp_path, collection, capsys, kind):
        files = dict(zip(("run", "qrels"), collection))
        good = files[kind].read_bytes()
        n_lines = good.count(b"\n")
        for damaged, message in [
            (good[:7] + b"\xff" + good[8:], "not valid UTF-8"),
            (good + b"t1 0 short\n", f"{kind} line {n_lines + 1}: expected"),
        ]:
            files[kind] = tmp_path / f"broken.{kind}"
            files[kind].write_bytes(damaged)
            assert main(["baseline", "--method", "oracle", "--run", str(files["run"]),
                         "--qrels", str(files["qrels"]), "--out", str(tmp_path / "o.csv"),
                         "--target", "0.9"]) == 2
            err = capsys.readouterr().err
            assert f"broken.{kind}: " in err and message in err


    @pytest.mark.parametrize("kind, column, token", [
        *(("run", 3, rank) for rank in ["1_0", "\u0661", "\uff12", "1\u01fe",
                                         "9223372036854775808"]),
        ("qrels", 3, "0_1"),
        *(("run", 4, score) for score in ["nan", "inf", "-Infinity", "1e400", "1_0.5"]),
    ])
    def test_loose_number_exits_2_naming_file_and_line(self, tmp_path, collection, capsys, kind,
                                                       column, token):
        files = dict(zip(("run", "qrels"), collection))
        lines = files[kind].read_text().splitlines()
        fields = lines[4].split(" ")
        fields[column] = token
        lines[4] = " ".join(fields)
        files[kind] = tmp_path / f"loose.{kind}"
        files[kind].write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["baseline", "--method", "oracle", "--run", str(files["run"]),
                     "--qrels", str(files["qrels"]), "--out", str(tmp_path / "o.csv")]) == 2
        name = {("run", 3): "rank", ("run", 4): "score", ("qrels", 3): "relevance"}[kind, column]
        assert f"{files[kind]}: {kind} line 5: {name} {token!r} is not" in capsys.readouterr().err


class TestEval:
    def test_joint_report_shape(self, tmp_path, trained):
        run_path, qrels_path, ckpt = trained
        policy_csv = tmp_path / "policy.csv"
        oracle_csv = tmp_path / "oracle.csv"
        assert main(["stop", "--checkpoint", str(ckpt), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(policy_csv)]) == 0
        assert main(["baseline", "--method", "oracle", "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(oracle_csv),
                     "--target", "0.9"]) == 0
        out = tmp_path / "report"
        assert main(["eval", "--results", str(policy_csv), "--results", str(oracle_csv),
                     "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(out)]) == 0
        agg = read_rows(out / "aggregate.csv")
        assert {r["method"] for r in agg} == {"policy", "oracle"}
        assert all(r["target"] == "0.9" for r in agg)

    def test_external_minimal_csv_is_stamped_with_targets(self, tmp_path, collection):
        run_path, qrels_path = collection
        external = tmp_path / "external.csv"
        external.write_text("topic_id,method,docs_examined\nsynth-0000,sampler,30\n")
        out = tmp_path / "report"
        assert main(["eval", "--results", str(external), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(out),
                     "--target", "0.8", "--target", "0.9"]) == 0
        rows = read_rows(out / "per_topic.csv")
        assert {r["target"] for r in rows} == {"0.8", "0.9"}
        assert all(r["method"] == "sampler" for r in rows)
        assert all(r["relevant_found"] != "" for r in rows)

    def test_external_rows_without_target_need_the_flag(self, tmp_path, collection):
        run_path, qrels_path = collection
        external = tmp_path / "external.csv"
        external.write_text("topic_id,method,docs_examined\nsynth-0000,sampler,30\n")
        assert main(["eval", "--results", str(external), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(tmp_path / "r")]) == 2

    def test_schema_mismatch_exits_2(self, tmp_path, collection):
        run_path, qrels_path = collection
        broken = tmp_path / "broken.csv"
        broken.write_text("topic_id,method\nt1,m\n")
        assert main(["eval", "--results", str(broken), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("column", ["target", "relevant_found", "stop_batch"])
    def test_non_numeric_cell_exits_2(self, tmp_path, collection, capsys, column):
        run_path, qrels_path = collection
        cells = {"target": "0.9", "relevant_found": "3", "stop_batch": "2", column: "abc"}
        bad = tmp_path / "bad.csv"
        bad.write_text("topic_id,method,target,stop_batch,docs_examined,relevant_found\n"
                       f"synth-0000,m,{cells['target']},{cells['stop_batch']},20,"
                       f"{cells['relevant_found']}\n")
        assert main(["eval", "--results", str(bad), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(tmp_path / "r")]) == 2
        assert f"bad.csv line 2: {column} 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("synth-0000,m,0.9,,0,", "bad.csv: topic 'synth-0000': docs_examined 0 outside [1, 60]"),
        ("synth-0000,m,0.9,,998,",
         "bad.csv: topic 'synth-0000': docs_examined 998 outside [1, 60]"),
        ("synth-0000,m,0.9,,20,999", "bad.csv: topic 'synth-0000': relevant_found 999, "
                                     "but the first 20 documents hold 10 relevant"),
        # within [0, R] (R = 12) but not the count among the first 20 documents
        ("synth-0000,m,0.9,,20,3", "bad.csv: topic 'synth-0000': relevant_found 3, "
                                   "but the first 20 documents hold 10 relevant"),
        ("synth-0000,m,nan,,20,3", "bad.csv line 2: target 'nan' is not a number"),
        ("synth-0000,m,1.5,,20,3", "bad.csv line 2: target must be in (0, 1], got 1.5"),
        ("ghost,m,0.9,,20,3", "bad.csv: result references unknown topic 'ghost'"),
        # past int64, which the row checks must still name as they are
        (f"synth-0000,m,0.9,,{10**20},", f"bad.csv: topic 'synth-0000': docs_examined {10**20} "
                                         "outside [1, 60]"),
        (f"synth-0000,m,0.9,,20,{-10**20}", f"bad.csv: topic 'synth-0000': relevant_found "
                                            f"{-10**20}, but the first 20 documents hold 10 relevant"),
    ], ids=["no-docs", "docs-past-topic", "found-above-R", "found-not-prefix", "nan-target",
            "target-above-1", "unknown-topic", "docs-past-int64", "found-past-int64"])
    def test_out_of_range_row_exits_2(self, tmp_path, collection, capsys, row, message):
        run_path, qrels_path = collection
        bad = tmp_path / "bad.csv"
        bad.write_text(
            f"topic_id,method,target,stop_batch,docs_examined,relevant_found\n{row}\n"
        )
        assert main(["eval", "--results", str(bad), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err

    def _oracle_csv(self, tmp_path, collection):
        run_path, qrels_path = collection
        oracle_csv = tmp_path / "o.csv"
        assert main(["baseline", "--method", "oracle", "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(oracle_csv), "--target", "0.8"]) == 0
        return oracle_csv

    def test_repeated_row_exits_2(self, tmp_path, collection, capsys):
        run_path, qrels_path = collection
        oracle_csv = self._oracle_csv(tmp_path, collection)
        header, _, second, *_ = oracle_csv.read_text().splitlines()
        dup = tmp_path / "dup.csv"
        dup.write_text(f"{header}\n{second}\n")
        assert main(["eval", "--results", str(dup), "--results", str(oracle_csv),
                     "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(tmp_path / "r")]) == 2
        assert (f"{oracle_csv}: method 'oracle' at target 0.8 repeats topic 'synth-0001', "
                f"already given in {dup}") in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_row_stamped_twice_with_one_target_exits_2(self, tmp_path, collection, capsys):
        run_path, qrels_path = collection
        external = tmp_path / "external.csv"
        external.write_text("topic_id,method,docs_examined\nsynth-0000,sampler,30\n"
                            "synth-0000,sampler,31\n")
        assert main(["eval", "--results", str(external), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(tmp_path / "r"),
                     "--target", "0.9"]) == 2
        assert (f"{external}: method 'sampler' at target 0.9 repeats topic 'synth-0000'"
                in capsys.readouterr().err)
        # a target given twice would stamp every row twice: it is refused before any row
        assert main(["eval", "--results", str(external), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(tmp_path / "r"),
                     "--target", "0.9", "--target", "0.9"]) == 2
        assert capsys.readouterr().err == "error: target 0.9 is given twice\n"
        assert not (tmp_path / "r").exists()

    def test_bad_row_names_the_file_that_gave_it(self, tmp_path, collection, capsys):
        run_path, qrels_path = collection
        oracle_csv = self._oracle_csv(tmp_path, collection)
        bad = tmp_path / "bad.csv"
        bad.write_text("topic_id,method,docs_examined\nsynth-0002,sampler,0\n")
        assert main(["eval", "--results", str(oracle_csv), "--results", str(bad),
                     "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(tmp_path / "r"), "--target", "0.8"]) == 2
        assert (f"{bad}: topic 'synth-0002': docs_examined 0 outside [1, 60]"
                in capsys.readouterr().err)

    def test_methods_covering_different_topics_exit_2(self, tmp_path, collection, capsys):
        run_path, qrels_path = collection
        oracle_csv = self._oracle_csv(tmp_path, collection)
        header, first, *_ = oracle_csv.read_text().splitlines()
        oracle_csv.write_text(f"{header}\n{first}\n")  # synth-0000 only
        budget_csv = tmp_path / "budget.csv"
        assert main(["baseline", "--method", "budget", "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(budget_csv), "--target", "0.8"]) == 0
        assert main(["eval", "--results", str(oracle_csv), "--results", str(budget_csv),
                     "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(tmp_path / "r")]) == 2
        assert ("method 'oracle' at target 0.8 has no row for topic 'synth-0001', which "
                "method 'budget' has") in capsys.readouterr().err

    def test_results_not_utf8_exits_2_naming_it(self, tmp_path, collection, capsys):
        run_path, qrels_path = collection
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("topic_id,method,docs_examined\nsynth-0000,m\u00e9thode,20\n"
                        .encode("latin-1"))
        assert main(["eval", "--results", str(bad), "--run", str(run_path), "--qrels",
                     str(qrels_path), "--out", str(tmp_path / "r"), "--target", "0.9"]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: not valid UTF-8: 'utf-8' codec can't decode byte 0xe9" in err
        assert not (tmp_path / "r").exists()

    def test_cell_the_csv_module_refuses_exits_2_naming_it(self, tmp_path, collection, capsys):
        run_path, qrels_path = collection
        big = tmp_path / "big.csv"
        big.write_text(f"topic_id,method,docs_examined\nsynth-0000,m,20\nsynth-0001,{'m' * 131073},20\n")
        assert main(["eval", "--results", str(big), "--run", str(run_path), "--qrels",
                     str(qrels_path), "--out", str(tmp_path / "r"), "--target", "0.9"]) == 2
        assert capsys.readouterr().err == (
            f"error: {big} line 3: field larger than field limit (131072)\n")

    @pytest.mark.parametrize("cell, value", [("2_4", "2_4"), (" 24", " 24"), ('"24\n"', "24\n"),
                                             ("\uff12\uff14", "\uff12\uff14"), ("24.0", "24.0")])
    def test_loose_integer_cell_exits_2_naming_it(self, tmp_path, collection, capsys, cell, value):
        run_path, qrels_path = collection
        bad = tmp_path / "bad.csv"
        bad.write_text("topic_id,method,docs_examined\nsynth-0000,m,20\n"
                       f"synth-0001,m,{cell}\n", encoding="utf-8")
        assert main(["eval", "--results", str(bad), "--run", str(run_path), "--qrels",
                     str(qrels_path), "--out", str(tmp_path / "r"), "--target", "0.9"]) == 2
        assert (f"{bad} line 3: docs_examined {value!r} is not an integer"
                in capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    def test_integer_cell_past_int_digit_limit_exits_2_naming_it(self, tmp_path, collection, capsys):
        run_path, qrels_path = collection
        bad = tmp_path / "bad.csv"
        bad.write_text(f"topic_id,method,docs_examined\nsynth-0000,m,20\nsynth-0001,m,{'1' * 5000}\n")
        assert main(["eval", "--results", str(bad), "--run", str(run_path), "--qrels",
                     str(qrels_path), "--out", str(tmp_path / "r"), "--target", "0.9"]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad} line 3: docs_examined '{'1' * 20}…' is not an integer\n")
        assert not (tmp_path / "r").exists()

    def test_cell_holding_a_newline_between_digits_exits_2(self, tmp_path, collection, capsys):
        run_path, qrels_path = collection
        bad = tmp_path / "bad.csv"
        bad.write_text('topic_id,method,docs_examined\nsynth-0000,m,20\nsynth-0001,m,"2\n4"\n')
        assert main(["eval", "--results", str(bad), "--run", str(run_path), "--qrels",
                     str(qrels_path), "--out", str(tmp_path / "r"), "--target", "0.9"]) == 2
        assert f"{bad} line 3: " in capsys.readouterr().err

    @pytest.mark.parametrize("header, row, column", [
        ("topic_id,docs_examined,method", "synth-0001,24", "method"),
        ("method,docs_examined,topic_id", "m,24", "topic_id"),
    ])
    def test_row_without_a_method_or_topic_cell_exits_2(self, tmp_path, collection, capsys,
                                                         header, row, column):
        run_path, qrels_path = collection
        short = tmp_path / "short.csv"
        first = {"method": "synth-0000,20,m", "topic_id": "m,20,synth-0000"}[column]
        short.write_text(f"{header}\n{first}\n{row}\n")
        assert main(["eval", "--results", str(short), "--run", str(run_path), "--qrels",
                     str(qrels_path), "--out", str(tmp_path / "r"), "--target", "0.9"]) == 2
        assert capsys.readouterr().err == f"error: {short} line 3: no {column} cell\n"

    def test_empty_results_exit_2(self, tmp_path, collection):
        run_path, qrels_path = collection
        empty = tmp_path / "empty.csv"
        empty.write_text("topic_id,method,docs_examined\n")
        assert main(["eval", "--results", str(empty), "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(tmp_path / "r")]) == 2


class TestEvalErrors:
    """Each ``eval`` error names its row and the file that gave it. With two
    bad rows in different files the first in input order is named, although
    the other comes first in the report's (target, method, topic) order."""

    HEADER = "topic_id,method,target,stop_batch,docs_examined,relevant_found\n"

    def _eval(self, tmp_path, collection, files, *flags):
        run_path, qrels_path = collection
        paths = []
        for k, rows in enumerate(files):
            paths.append(tmp_path / f"r{k}.csv")
            paths[-1].write_text(self.HEADER + "".join(f"{row}\n" for row in rows))
        code = main(["eval", *[arg for path in paths for arg in ("--results", str(path))],
                     "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(tmp_path / "report"), *flags])
        assert not (tmp_path / "report").exists()
        return code, paths

    BAD = {
        "unknown": ("ghost,{m},{t},,20,", "result references unknown topic 'ghost'"),
        "docs": ("synth-{k},{m},{t},,61,", "topic 'synth-{k}': docs_examined 61 outside [1, 60]"),
        # the first 20 documents of synth-0003 hold 6 relevant, of synth-0000 10
        "found": ("synth-{k},{m},{t},,20,0",
                  "topic 'synth-{k}': relevant_found 0, but the first 20 documents hold 6 relevant"),
    }

    @pytest.mark.parametrize("first, second", [("unknown", "docs"), ("docs", "found"),
                                               ("found", "unknown")])
    def test_misfit_row_first_in_input_order_is_named(self, tmp_path, collection, capsys,
                                                     first, second):
        row, message = self.BAD[first]
        other, _ = self.BAD[second]
        code, paths = self._eval(tmp_path, collection, [
            ["synth-0000,zeta,1.0,,5,", row.format(k="0003", m="zeta", t="1.0")],
            [other.format(k="0000", m="alpha", t="0.8")],
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {paths[0]}: {message.format(k='0003')}\n"

    def test_missing_target_names_the_first_method_lacking_one(self, tmp_path, collection,
                                                             capsys):
        code, paths = self._eval(tmp_path, collection, [
            ["synth-0000,zeta,1.0,,5,", "synth-0003,mid,,,20,"],
            ["synth-0000,alpha,,,20,"],
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {paths[0]}: results for method 'mid' carry no target recall; pass --target\n")

    def test_repeat_before_a_missing_target_is_named_first(self, tmp_path, collection, capsys):
        code, paths = self._eval(tmp_path, collection, [
            ["synth-0000,zeta,1.0,,5,", "synth-0000,zeta,1.0,,6,", "synth-0003,mid,,,20,"],
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {paths[0]}: method 'zeta' at target 1 repeats topic 'synth-0000', "
            f"already given in {paths[0]}\n")

    def test_repeat_across_files_is_named_before_a_misfit_row(self, tmp_path, collection,
                                                              capsys):
        # every file is checked for repeats as it is read, before any row is scored
        code, paths = self._eval(tmp_path, collection, [
            ["synth-0000,zeta,1.0,,0,", "synth-0003,zeta,1.0,,5,"],
            ["synth-0001,alpha,0.8,,5,", "synth-0003,zeta,1.0,,7,", "synth-0000,zeta,1.0,,5,"],
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {paths[1]}: method 'zeta' at target 1 repeats topic 'synth-0003', "
            f"already given in {paths[0]}\n")

    def test_unequal_topic_sets_name_the_first_method_in_report_order(self, tmp_path,
                                                                      collection, capsys):
        code, paths = self._eval(tmp_path, collection, [
            ["synth-0000,zeta,0.8,,5,", "synth-0001,zeta,0.8,,5,"],
            ["synth-0002,alpha,0.8,,5,", "synth-0000,alpha,0.8,,5,"],
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {paths[1]}, {paths[0]}: method 'alpha' at target 0.8 has no row for topic 'synth-0001', which "
            "method 'zeta' has; every method at a target must cover the same topics\n")


class TestGoldenBytes:
    """Whole-file hashes of every output of a synth -> baseline -> eval
    pipeline. None of these steps runs a matrix product, so the bytes do not
    depend on the BLAS build; ``train`` and ``stop`` are left out for that
    reason. A refactor that changes any of them changes an output."""

    GOLDEN = {
        "synthetic.run": "22985dce2a98e7697346932150428dbd95695c6a8c6fa3511ef2c7163a210aeb",
        "synthetic.qrels": "ef56f0bec4c6e06b8871996ef6930343ad3f4df603076e46154d12e1392722a8",
        "oracle.csv": "c09d9c8136bfb6f905be36e8c5f447522c228d7f744675c6ec6d6bdd31351587",
        "knee.csv": "0faf87233dee0fb5dac148d7c5ef3fa486a1c76fee05343b29f35a1aaf92d115",
        "budget.csv": "382b5fef9dd8084ef7f4474fe524c704f52f4db1d8b0704fd6c9249dd4117c62",
        "per_topic.csv": "d03c94cfa10bfde404d6fe43a1825eccf34b8f15a218e7008bc36b1edab0d04f",
        "aggregate.csv": "0695d90b945d086504f6eb82542ca3ca9f11ddb678398908121f556ce82b14c7",
    }

    def test_pipeline_outputs_match_golden_hashes(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--count", "4", "--docs", "600",
                     "--prevalence", "0.03", "--decay", "15", "--seed", "11"]) == 0
        inputs = ["--run", str(tmp_path / "synthetic.run"),
                  "--qrels", str(tmp_path / "synthetic.qrels")]
        methods = ("oracle", "knee", "budget")
        for method in methods:
            assert main(["baseline", "--method", method, *inputs,
                         "--out", str(tmp_path / f"{method}.csv"), "--target", "0.8",
                         "--target", "1.0", "--batches", "10", "--fraction", "0.05"]) == 0
        results = [arg for m in methods for arg in ("--results", str(tmp_path / f"{m}.csv"))]
        assert main(["eval", *results, *inputs, "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN}
        assert digests == self.GOLDEN

    WIDE_GOLDEN = {
        "per_topic.csv": "7773326f50ad53fe495d73c7997b8200be34eda7f57be8cbb091de08b2c58d91",
        "aggregate.csv": "260abcd0a63b663d45a8d5422977bc9a8dfd541f10707a229feb826c16571632",
    }

    def test_wide_eval_matches_golden_hashes(self, tmp_path):
        # 60 topics, every baseline at two targets and a minimal-schema file
        # stamped by --target; the last document of synth-0007 is made
        # relevant, so its oracle stop at target 1.0 is the whole collection.
        topics = synth_topics(60, 150, 0.05, 20.0, seed=5)
        labels = topics.labels.copy()
        labels[topics.bounds[8] - 1] = 1
        topics = Collection(topics.topic_ids, topics.bounds, labels)
        write_run_file(tmp_path / "wide.run", topics)
        write_qrels_file(tmp_path / "wide.qrels", topics)
        inputs = ["--run", str(tmp_path / "wide.run"), "--qrels", str(tmp_path / "wide.qrels")]
        targets = ["--target", "0.8", "--target", "1.0"]
        methods = ("oracle", "knee", "budget")
        for method in methods:
            assert main(["baseline", "--method", method, *inputs, *targets,
                         "--out", str(tmp_path / f"{method}.csv"), "--batches", "20"]) == 0
        external = tmp_path / "sampler.csv"
        external.write_text("topic_id,method,docs_examined\n" + "".join(
            f"{topic_id},sampler,{n if k % 3 == 0 else 1 + (37 * k) % n}\n"
            for k, (topic_id, n) in enumerate(zip(topics.topic_ids, topics.n_docs.tolist()))))
        results = [arg for m in (*methods, "sampler")
                   for arg in ("--results", str(tmp_path / f"{m}.csv"))]
        assert main(["eval", *results, *inputs, *targets, "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.WIDE_GOLDEN}
        assert digests == self.WIDE_GOLDEN
