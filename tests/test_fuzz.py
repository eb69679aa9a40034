"""Mutated inputs through ``tarstop.cli.main``: a mutated run, qrels,
results, checkpoint or config file either still works (exit 0) or is an
input error that names it (exit 2), never an internal fault (exit 1); and a
second run, which the input cache serves the run/qrels pair when the first
parsed it, ends the same way."""

import base64
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_cli import FAST_TRAIN
from tarstop.cli import SUBCOMMANDS, build_parser, main
from tarstop.corpus import synth_topics, write_qrels_file, write_run_file

# rank and score; relevance; target, stop_batch, docs_examined and relevant_found
NUMBER_COLUMNS = {"run": (3, 4), "qrels": (3,), "results": (2, 3, 4, 5)}
SEPARATORS = {"run": b" ", "qrels": b" ", "results": b","}
SPOILED_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "-Infinity", "1e400", "-1e400"]),
    st.integers(2**63, 10**30).map(str),
    st.integers(-(10**30), -(2**63) - 1).map(str),
)
INSERTED_INTO_NUMBERS = st.sampled_from(["_", "\u0661", "\uff12", "\u0966", "\u01fe"])


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    """The bytes of a valid run/qrels pair: three topics of 30 documents."""
    directory = tmp_path_factory.mktemp("pair")
    topics = synth_topics(3, 30, 0.2, 10.0, seed=1)
    write_run_file(directory / "a.run", topics)
    write_qrels_file(directory / "a.qrels", topics)
    return {kind: (directory / f"a.{kind}").read_bytes() for kind in ("run", "qrels")}


def flip_a_byte(draw, kind, data):
    raw = bytearray(data)
    raw[draw(st.integers(0, len(raw) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(raw)


def truncate(draw, kind, data):
    return data[:draw(st.integers(0, max(len(data) - 1, 0)))]


def insert_a_nul(draw, kind, data):
    at = draw(st.integers(0, len(data)))
    return data[:at] + b"\0" + data[at:]


def edit_a_field(draw, kind, data, edit, columns=None):
    """``data`` with the fields of one line, which has every one of
    ``columns`` (any field if None), replaced by ``edit(fields, column)``."""
    lines, sep = data.split(b"\n"), SEPARATORS[kind]
    need = max(columns) + 1 if columns else 1
    rows = [k for k, line in enumerate(lines) if len(line.split(sep)) >= need and line]
    if not rows:
        return data
    row = draw(st.sampled_from(rows))
    fields = lines[row].split(sep)
    lines[row] = sep.join(edit(fields, draw(st.sampled_from(columns or range(len(fields))))))
    return b"\n".join(lines)


def delete_a_field(draw, kind, data):
    return edit_a_field(draw, kind, data, lambda fields, k: fields[:k] + fields[k + 1:])


def duplicate_a_field(draw, kind, data):
    return edit_a_field(draw, kind, data, lambda fields, k: fields[:k + 1] + fields[k:])


def swap_two_fields(draw, kind, data):
    """Swap a field with another of its line, so each holds the other's type."""

    def edit(fields, k):
        other = draw(st.integers(0, len(fields) - 1))
        fields[k], fields[other] = fields[other], fields[k]
        return fields

    return edit_a_field(draw, kind, data, edit)


def spoil_a_number(draw, kind, data):
    """Replace a number with a non-finite or past-int64 one, or put an
    underscore or a non-ASCII digit inside it."""

    def edit(fields, k):
        token = fields[k].decode(errors="replace")
        at = draw(st.integers(0, len(token)))
        spoiled = draw(st.one_of(
            SPOILED_NUMBERS, INSERTED_INTO_NUMBERS.map(lambda c: token[:at] + c + token[at:])))
        return [*fields[:k], spoiled.encode(), *fields[k + 1:]]

    return edit_a_field(draw, kind, data, edit, NUMBER_COLUMNS[kind])


@pytest.mark.parametrize("mutate", [flip_a_byte, truncate, insert_a_nul, delete_a_field,
                                    duplicate_a_field, spoil_a_number])
@pytest.mark.parametrize("kind", ["run", "qrels"])
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_run_or_qrels_exits_0_or_2_naming_it(tmp_path, pair, capsys, monkeypatch, kind,
                                                     mutate, data):
    example = Path(tempfile.mkdtemp(dir=tmp_path))  # examples share tmp_path
    monkeypatch.setenv("TARSTOP_CACHE_DIR", str(example / "cache"))  # cold for each example
    files = {name: example / f"input.{name}" for name in pair}
    for name, content in pair.items():
        if name == kind:
            for _ in range(data.draw(st.integers(1, 3))):
                content = mutate(data.draw, kind, content)
        files[name].write_bytes(content)
    runs = []
    for run in ("cold", "warm"):
        out = example / f"{run}.csv"
        capsys.readouterr()
        code = main(["baseline", "--method", "oracle", "--run", str(files["run"]),
                     "--qrels", str(files["qrels"]), "--out", str(out), "--target", "0.9"])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert code == 0 or str(files[kind]) in err, err
        runs.append((code, err, out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]


@pytest.fixture(scope="module")
def results_set(tmp_path_factory):
    """A run/qrels pair of three topics of 30 documents, the input cache that
    holds it, and the bytes of its policy, oracle, knee and budget results."""
    directory = tmp_path_factory.mktemp("results")
    pair = ["--run", str(directory / "synthetic.run"), "--qrels", str(directory / "synthetic.qrels")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TARSTOP_CACHE_DIR", str(directory / "cache"))
        assert main(["synth", "--out", str(directory), "--count", "3", "--docs", "30",
                     "--prevalence", "0.2", "--decay", "10", "--seed", "1"]) == 0
        assert main(["train", *pair, "--out", str(directory), "--target", "0.9",
                     "--batches", "6", *FAST_TRAIN]) == 0
        assert main(["stop", "--checkpoint", str(directory / "policy-t0.9.json"), *pair,
                     "--out", str(directory / "policy.csv")]) == 0
        for method in ("oracle", "knee", "budget"):
            assert main(["baseline", "--method", method, *pair, "--target", "0.9",
                         "--out", str(directory / f"{method}.csv")]) == 0
    results = {name: (directory / f"{name}.csv").read_bytes()
               for name in ("policy", "oracle", "knee", "budget")}
    return pair, directory / "cache", results


@pytest.mark.parametrize("mutate", [flip_a_byte, truncate, insert_a_nul, delete_a_field,
                                    duplicate_a_field, swap_two_fields, spoil_a_number])
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_results_exits_0_or_2_naming_it(tmp_path, results_set, capsys, monkeypatch,
                                                mutate, data):
    pair, cache, results = results_set
    monkeypatch.setenv("TARSTOP_CACHE_DIR", str(cache))  # the unmutated pair's entry
    example = Path(tempfile.mkdtemp(dir=tmp_path))  # examples share tmp_path
    mutated = data.draw(st.sampled_from(sorted(results)))
    files = {name: example / f"{name}.csv" for name in results}
    for name, content in results.items():
        if name == mutated:
            for _ in range(data.draw(st.integers(1, 3))):
                content = mutate(data.draw, "results", content)
        files[name].write_bytes(content)
    capsys.readouterr()
    code = main(["eval", *[arg for path in files.values() for arg in ("--results", str(path))],
                 *pair, "--out", str(example / "report")])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert code == 0 or str(files[mutated]) in err, err


def checkpoint_paths(node, prefix=()):
    """Paths (tuples of keys and indices) to every value inside a checkpoint's JSON."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from checkpoint_paths(value, (*prefix, key))


def at(data, path):
    for step in path:
        data = data[step]
    return data


def delete_a_key(draw, kind, data):
    data = json.loads(data)
    path = draw(st.sampled_from([p for p in checkpoint_paths(data) if p and isinstance(p[-1], str)]))
    del at(data, path[:-1])[path[-1]]
    return json.dumps(data).encode()


JSON_VALUES = st.one_of(
    # JSON integers have no size limit; past about 1e308 they have no float value
    st.none(), st.booleans(), st.integers(), st.integers(-(10**400), 10**400), st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=3), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def swap_a_type(draw, kind, data):
    data = json.loads(data)
    path = draw(st.sampled_from(list(checkpoint_paths(data))))
    new = draw(JSON_VALUES.filter(lambda v: type(v) is not type(at(data, path))))
    if not path:
        return json.dumps(new).encode()
    at(data, path[:-1])[path[-1]] = new
    return json.dumps(data).encode()


def resize_a_network(draw, kind, data):
    """Cut or lengthen a network's bytes (to any count, a multiple of 4 or
    not), or set one of its ``architecture`` sizes to a small integer."""
    data = json.loads(data)
    name = draw(st.sampled_from(["actor", "critic"]))
    if draw(st.booleans()):
        raw = base64.b64decode(data[name])
        data[name] = base64.b64encode((raw * 2)[:draw(st.integers(0, len(raw) + 64))]).decode()
    else:
        layer_sizes = data["architecture"][f"{name}_sizes"]
        layer_sizes[draw(st.integers(0, len(layer_sizes) - 1))] = draw(st.integers(-2, 70))
    return json.dumps(data).encode()


@pytest.mark.parametrize("mutate", [delete_a_key, swap_a_type, resize_a_network, truncate,
                                    flip_a_byte])
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_checkpoint_exits_0_or_2_naming_it(tmp_path, results_set, capsys, monkeypatch,
                                                   mutate, data):
    """Any damage to a trained checkpoint either still loads or is a
    config error that names the file, never an exit 1; and a second run,
    which the input cache serves the pair, gives the same exit code and the
    same CSV bytes."""
    pair, _, _ = results_set
    checkpoint = Path(pair[1]).parent / "policy-t0.9.json"
    example = Path(tempfile.mkdtemp(dir=tmp_path))  # examples share tmp_path
    monkeypatch.setenv("TARSTOP_CACHE_DIR", str(example / "cache"))  # cold for each example
    broken = example / "mutated.json"
    broken.write_bytes(mutate(data.draw, "checkpoint", checkpoint.read_bytes()))
    runs = []
    for run in ("cold", "warm"):
        out = example / f"{run}.csv"
        capsys.readouterr()
        code = main(["stop", "--checkpoint", str(broken), *pair, "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert code == 0 or str(broken) in err, err
        runs.append((code, err, out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    if code == 0:  # the run/qrels pair's entry, which the warm run hit; a checkpoint has none
        assert len(list((example / "cache").glob("*.npz"))) == 1


def below(bound, inclusive):
    """Finite floats under ``bound``, or at it if ``inclusive``."""
    return st.floats(max_value=bound, exclude_max=not inclusive, allow_nan=False,
                     allow_infinity=False)


def above(bound, inclusive):
    """Finite floats over ``bound``, or at it if ``inclusive``."""
    return st.floats(min_value=bound, exclude_min=not inclusive, allow_nan=False,
                     allow_infinity=False)


NOT_POSITIVE = st.integers(-(10**6), 0)
OUTSIDE_UNIT = below(0.0, True) | above(1.0, False)  # outside (0, 1]
# Each config key: a value small enough to run in well under a second, and a
# value of its type that its range rule rejects. ``timesteps`` is always
# ``n_steps * n_envs``, one rollout (see config_text).
CONFIG_KEYS = {
    "count": (st.integers(1, 8), NOT_POSITIVE),
    "docs": (st.integers(1, 200), NOT_POSITIVE),
    "prevalence": (st.floats(0.001, 0.999), below(0.0, True) | above(1.0, True)),
    "decay": (st.floats(0.001, 1e4), below(0.0, True)),
    "seed": (st.integers(0, 2**63 - 1), st.integers(-(10**6), -1)),
    "tag": (st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1,
                    max_size=8).filter(lambda tag: not tag.isspace()),
            st.sampled_from(["", " ", "x\n", "a\x0bb", "a\u2028b", "a\ud800"])),
    "target": (st.lists(st.floats(0.001, 1.0), min_size=1, max_size=2),
               st.lists(OUTSIDE_UNIT, min_size=1, max_size=2)),
    "batches": (st.integers(1, 10), NOT_POSITIVE),
    "fraction": (st.floats(0.001, 1.0), OUTSIDE_UNIT),
    "mode": (st.sampled_from(["greedy", "sample"]),
             st.text(max_size=6).filter(lambda mode: mode not in ("greedy", "sample"))),
    "normalize_obs": (st.sampled_from(["ratio", "count"]),
                      st.text(max_size=6).filter(lambda form: form not in ("ratio", "count"))),
    "timesteps": (st.just(None), NOT_POSITIVE),
    "n_steps": (st.integers(1, 16), NOT_POSITIVE),
    "n_envs": (st.integers(1, 16), NOT_POSITIVE),
    "minibatch_size": (st.integers(1, 64), NOT_POSITIVE),
    "n_epochs": (st.integers(1, 2), NOT_POSITIVE),
    "learning_rate": (st.floats(0.0, 0.01), below(0.0, False)),
    "entropy_coef": (st.floats(0.0, 1.0), below(0.0, False)),
    "value_coef": (st.floats(0.0, 1.0), below(0.0, False)),
    "gamma": (st.floats(0.001, 1.0), OUTSIDE_UNIT),
    "gae_lambda": (st.floats(0.001, 1.0), OUTSIDE_UNIT),
    "clip_range": (st.floats(0.001, 0.999), below(0.0, True) | above(1.0, True)),
    "max_grad_norm": (st.floats(0.001, 1e3), below(0.0, True)),
}
WRONG_TYPES = st.one_of(st.booleans(), st.text(max_size=5), st.none(),
                        st.lists(st.one_of(st.booleans(), st.text(max_size=3), st.none()),
                                 max_size=2),
                        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
# past int64 for an integer key, past the float range for any number
HUGE = {int: st.integers(2**63, 10**30) | st.integers(-(10**30), -(2**63) - 1),
        float: st.tuples(st.sampled_from([-1, 1]), st.integers(1, 9), st.integers(309, 400))
                 .map(lambda t: t[0] * t[1] * 10**t[2])}
PAST_DIGIT_LIMIT = "9" * 5000  # more digits than int() converts from text by default


def command_line(command, directory, results_set, draw):
    """``command``'s arguments but its config file, writing under ``directory``."""
    pair, _, _ = results_set
    out = str(directory / "out")
    data = Path(pair[1]).parent  # the run file's, which holds the checkpoint and results too
    return {
        "synth": ["synth", "--out", out],
        "train": ["train", *pair, "--out", out],
        "stop": ["stop", "--checkpoint", str(data / "policy-t0.9.json"), *pair, "--out", out],
        "baseline": ["baseline", "--method", draw(st.sampled_from(["oracle", "knee", "budget"])),
                     *pair, "--out", out],
        "eval": ["eval", "--results", str(data / "oracle.csv"), *pair, "--out", out],
    }[command]


def config_text(draw, keys) -> bytes:
    """A config file's bytes: a valid object over every one of ``keys``, with
    one mutation or none, so that any exit 2 is the file's doing."""
    config = {key: draw(CONFIG_KEYS[key][0]) for key in keys}
    if "timesteps" in config:
        config["timesteps"] = config["n_steps"] * config["n_envs"]
    mutation = draw(st.sampled_from([None, "wrong type", "out of range", "non-finite", "huge",
                                     "unknown key", "top level", "truncated", "not UTF-8"]))
    key = draw(st.sampled_from(sorted(keys)))
    as_list = (lambda value: [value]) if isinstance(config[key], list) else (lambda value: value)
    literal = None
    if mutation == "wrong type":
        config[key] = draw(WRONG_TYPES)
    elif mutation == "out of range":
        config[key] = draw(CONFIG_KEYS[key][1])
    elif mutation == "non-finite":
        config[key] = as_list(draw(st.sampled_from([math.nan, math.inf, -math.inf])))
    elif mutation == "huge":
        kind = keys[key].type or str
        if draw(st.booleans()):
            config[key] = as_list(draw(HUGE[int if kind is int else float]))
        else:  # spliced into the text: json.dumps cannot write it either
            literal, config[key] = PAST_DIGIT_LIMIT, as_list("__huge__")
    elif mutation == "unknown key":
        config[draw(st.text(max_size=8).filter(lambda name: name not in keys))] = 1
    elif mutation == "top level":
        config = draw(st.sampled_from([[config], list(config), 3, "config", None, True]))
    text = json.dumps(config).encode()
    if literal is not None:
        text = text.replace(b'"__huge__"', literal.encode())
    if mutation == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif mutation == "not UTF-8":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"])) + text[at:]
    return text


@pytest.mark.parametrize("command", ["synth", "train", "stop", "baseline", "eval"])
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_config_exits_0_or_2_naming_it(tmp_path, results_set, capsys, monkeypatch,
                                               command, data):
    """A valid config file, or one mutation of it, for every key each command
    accepts: a wrong type (bool, string, null, list or object), a number its
    rule rejects, a NaN or Infinity literal, an integer past int64 (an
    integer key) or past the float range (a number key) or past int()'s 4300
    digits, an unknown key, a top level that is not an object, or text cut
    short or made invalid UTF-8. Valid values are bounded so that a command
    runs in well under a second: count <= 8, docs <= 200, batches <= 10,
    n_steps and n_envs <= 16 (rollout buffers of at most 256 transitions),
    timesteps one rollout of them, n_epochs <= 2,
    minibatch_size <= 64, learning_rate <= 0.01. A run file synth writes is
    then read back."""
    pair, cache, _ = results_set
    monkeypatch.setenv("TARSTOP_CACHE_DIR", str(cache))  # the unmutated pair's entry
    example = Path(tempfile.mkdtemp(dir=tmp_path))  # examples share tmp_path
    args = command_line(command, example, results_set, data.draw)
    keys = build_parser(command).parse_args(args).config_keys
    assert set(keys) <= set(CONFIG_KEYS)  # a new key is fuzzed too
    config = example / "config.json"
    config.write_bytes(config_text(data.draw, keys))
    capsys.readouterr()
    code = main([*args, "--config", str(config)])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert code == 0 or str(config) in err, err
    if command == "synth" and code == 0:
        out = example / "out"
        assert main(["baseline", "--method", "budget", "--run", str(out / "synthetic.run"),
                     "--qrels", str(out / "synthetic.qrels"), "--out", str(example / "b.csv")]) == 0


def flag_or_config_value(draw, key, option):
    """A value of ``option``'s type for ``key``: in range, out of range, an
    integer past 64 bits or a non-finite float. Not one the parser rejects:
    a wrong type, or a choice not offered, is argparse's usage error."""
    kinds = ["in range"] + ["out of range"] * (option.choices is None)
    kinds += {int: ["past 64 bits"], float: ["past 64 bits", "non-finite"]}.get(option.type, [])
    kind = draw(st.sampled_from(kinds))
    if kind == "in range":  # timesteps at least one rollout of FAST_TRAIN's 10 steps x 2 envs
        return draw(st.integers(20, 200) if key == "timesteps" else CONFIG_KEYS[key][0])
    if kind == "out of range":
        return draw(CONFIG_KEYS[key][1])
    value = draw(HUGE[int] if kind == "past 64 bits" else
                 st.sampled_from([math.nan, math.inf, -math.inf]))
    return [value] if option.repeats else value


@pytest.mark.parametrize("command", ["synth", "train", "stop", "baseline", "eval"])
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flag_and_config_give_the_same_outcome(tmp_path, results_set, capsys, monkeypatch,
                                               command, data):
    """One setting of ``command``, given once as its flag and once as its
    config key: the same exit code, the same output bytes on exit 0, and
    otherwise the same stderr but for the config file's and key's names."""
    pair, cache, _ = results_set
    monkeypatch.setenv("TARSTOP_CACHE_DIR", str(cache))  # the unmutated pair's entry
    example = Path(tempfile.mkdtemp(dir=tmp_path))  # examples share tmp_path
    options = {option.name: option for option in SUBCOMMANDS[command][2] if not option.required}
    key = data.draw(st.sampled_from(sorted(options)))
    value = flag_or_config_value(data.draw, key, options[key])
    method = data.draw(st.sampled_from(["oracle", "knee", "budget"]))
    flag = f"--{key.replace('_', '-')}"
    config = example / "settings.json"
    config.write_text(json.dumps({key: value}))
    runs = {}
    for source in ("flag", "config"):
        directory = example / f"by-{source}"
        args = command_line(command, directory, results_set, lambda _: method)
        if command == "train":
            args += ["--target", "0.9", "--batches", "6", *FAST_TRAIN]
        while flag in args:  # a base flag would override the config file
            del args[args.index(flag) : args.index(flag) + 2]
        if source == "flag":  # "=" keeps a value such as -1e-05 from reading as an option
            args += [f"{flag}={v}" for v in (value if isinstance(value, list) else [value])]
        else:
            args += ["--config", str(config)]
        capsys.readouterr()
        code = main(args)
        printed = capsys.readouterr()
        outputs = {str(path.relative_to(directory)): path.read_bytes()
                   for path in sorted(directory.rglob("*")) if path.is_file()}
        runs[source] = (code, printed.out.replace(str(directory), "<out>"),
                        printed.err.replace(str(directory), "<out>"), outputs)
    (code, out, err, outputs), config_run = runs["flag"], runs["config"]
    assert code == config_run[0], (err, config_run[2])
    if code == 0:
        assert (out, err, outputs) == config_run[1:]
    else:
        unnamed = config_run[2].replace(f"config file {config}: ", "").replace(f"key '{key}': ", "")
        assert err == unnamed
