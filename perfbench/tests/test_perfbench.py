"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layers
import run as bench

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_benchmark_json_names_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WHY)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, layers.unit_of(name)) for name in layers.PER_LAYER
    ]


@pytest.mark.parametrize("workload", list(bench.WHY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def file_bytes(inputs: bench.Inputs) -> list[bytes]:
    return [Path(p).read_bytes() for p in (inputs.train_run, inputs.train_qrels, inputs.run, inputs.qrels)]


@pytest.mark.parametrize("workload", list(bench.WHY))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = file_bytes(bench.generate(workload, 5, tmp_path / "a", tiny=True))
    again = file_bytes(bench.generate(workload, 5, tmp_path / "b", tiny=True))
    other = file_bytes(bench.generate(workload, 6, tmp_path / "c", tiny=True))
    assert first == again
    # The training collection is the same for every seed; the reviewed topics are not.
    assert first[:2] == other[:2]
    assert all(x != y for x, y in zip(first[2:], other[2:]))


def test_qrels_are_in_doc_id_order_and_doc_ids_are_not_ranks(tmp_path):
    inputs = bench.generate("review-wide", 2, tmp_path, tiny=True)
    run_lines = Path(inputs.run).read_text().splitlines()
    qrels_lines = Path(inputs.qrels).read_text().splitlines()
    by_topic: dict[str, list[str]] = {}
    for line in qrels_lines:
        topic, _, doc, _ = line.split()
        by_topic.setdefault(topic, []).append(doc)
    assert all(docs == sorted(docs) for docs in by_topic.values())
    first_topic = [line.split() for line in run_lines if line.startswith(inputs.reviewed.topic_ids[0] + " ")]
    assert [int(f[3]) for f in first_topic] == list(range(1, len(first_topic) + 1))
    assert [f[2] for f in first_topic] != sorted(f[2] for f in first_topic)


def test_self_time_arithmetic_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and c [5, 9]; a has child b [2, 3].
    spans = [
        ["cli.stop", -1, 0.0, 10.0, None],
        ["ppo.infer_stop", 0, 1.0, 4.0, None],
        ["nets.forward", 1, 2.0, 3.0, 1],
        ["corpus.load_run", 0, 5.0, 9.0, (7, "x.run")],
    ]
    assert layers.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    rows = layers.table(spans, range(len(spans)))
    assert rows["nets.forward.infer"] == {"calls": 1, "s": 1.0, "self_s": 1.0, "count": 1}
    metrics = layers.layer_metrics(spans, range(4), range(4), wall_s=12.0)
    assert metrics["ppo.infer_stop.self_s"] == 2.0
    assert metrics["ppo.infer_stop.forwards_per_topic"] == 1.0
    assert metrics["corpus.load_run.lines"] == 7
    assert metrics["corpus.parses_per_input"] == 1.0
    assert metrics["cli.self_s"] == 3.0
    assert metrics["cli.ingest_share"] == 4.0 / 12.0
    # 12 s of wall, 7 s of it in layer self times (2 + 1 + 4).
    assert metrics["trace.unattributed_s"] == 5.0


def test_overlapping_children_are_counted_once():
    spans = [["p", -1, 0.0, 10.0, None], ["a", 0, 1.0, 5.0, None], ["b", 0, 3.0, 6.0, None]]
    assert layers.self_times(spans)[0] == 5.0


def test_corrupted_per_topic_value_counts_as_a_failed_operation(tmp_path, monkeypatch):
    from tarstop import cli

    monkeypatch.chdir(tmp_path)
    inputs = bench.generate("review-deep", 4, Path("in"), tiny=True)
    truth = checks.truths(inputs.reviewed)
    commands = [bench.fill(argv, "out") for argv in bench.sequence("review-deep", inputs, tiny=True)]
    Path("out").mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(inputs.setup_train) == 0
        codes = [cli.main(argv) for argv in commands]
    problems = [bench.check_command(argv, code, truth, inputs.review_targets)
                for argv, code in zip(commands, codes)]
    assert problems == [[]] * len(commands)

    per_topic = Path("out/report/per_topic.csv")
    lines = per_topic.read_text().splitlines()
    fields = lines[1].split(",")
    fields[7] = repr(float(fields[7]) * 0.5 + 0.01)  # the recall column
    per_topic.write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n")
    assert bench.check_command(commands[-1], 0, truth, inputs.review_targets)


def test_speed_factor_is_reference_time_over_nominal():
    import speed

    assert speed.factor([2 * speed.NOMINAL_S] * 3) == 2.0
    assert speed.factor([speed.NOMINAL_S, 3 * speed.NOMINAL_S, 0.5 * speed.NOMINAL_S]) == 1.0
    assert len(speed.sample(2)) == 2
