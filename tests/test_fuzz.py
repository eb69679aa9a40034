"""Mutated inputs through ``tarstop.cli.main``: a mutated run, qrels or
results file either still works (exit 0) or is an input error that names it
(exit 2), never an internal fault (exit 1); and for a run/qrels pair a second
run, which the input cache serves when the first parsed, ends the same way."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_cli import FAST_TRAIN
from tarstop.cli import main
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
