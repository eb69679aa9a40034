"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
execute. The end-to-end criterion trains four full policies and dominates
the runtime (about a minute on a laptop CPU).
"""

import csv
import os
import time

import numpy as np
import pytest

from conftest import (finite_difference, make_topic, max_rel_error, oracle_rank, prefix_count, subset,
                      topic_labels, topic_metrics)
from test_ppo import brute_force_gae, buffer_from_columns
from tarstop.baselines import budget_stop, oracle_stop
from tarstop.cli import main
from tarstop.corpus import assemble_topics, load_qrels, load_run, synth_topics
from tarstop.env import reward
from tarstop.metrics import aggregate
from tarstop.nets import chosen_and_entropy, forward, init_params, joint_params, log_softmax
from tarstop.ppo import Hyperparams, Minibatch, compute_gae, infer_stop, ppo_loss, train


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_reward_values():
    start = time.perf_counter()
    checks = {
        (25, 50, 100): 0.5,
        (50, 50, 100): 0.0,
        (75, 50, 100): -0.5,
        (100, 50, 100): -1.0,
    }
    worst = max(abs(reward(*args) - expected) for args, expected in checks.items())
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-12 and elapsed < 1.0,
           f"max reward deviation {worst:.2e} in {elapsed:.3f}s")


def test_criterion_2_optimal_stop_property():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(1000):
        n_batches = int(rng.integers(1, 201))
        target = int(rng.integers(1, n_batches + 1))
        sums = np.cumsum([reward(i, target, n_batches) for i in range(1, n_batches + 1)])
        # the reward at the target batch is 0, so the cumulative sum ties at
        # target-1 and target; the optimum is the latest maximiser
        best = int(np.flatnonzero(sums == sums.max())[-1]) + 1
        if best != target:
            failures += 1
    elapsed = time.perf_counter() - start
    report(2, failures == 0 and elapsed < 5.0,
           f"{failures} mismatches over 1000 random (batches, target) pairs in {elapsed:.2f}s")


def surrogate_loss(actor, critic, batch, hyper):
    """ppo_loss's loss alone, with the same arithmetic; finite differences
    call it thousands of times and need no gradient."""
    logits, _ = forward(actor, batch.obs)
    values = forward(critic, batch.obs)[0][:, 0]
    logp, entropy = chosen_and_entropy(log_softmax(logits), batch.actions)
    ratio = np.exp(logp - batch.log_probs_old)
    clipped = np.clip(ratio, 1.0 - hyper.clip_range, 1.0 + hyper.clip_range) * batch.advantages
    policy_loss = -np.minimum(ratio * batch.advantages, clipped).mean()
    value_loss = float(np.mean((values - batch.returns) ** 2))
    return float(policy_loss + hyper.value_coef * value_loss - hyper.entropy_coef * float(entropy.mean()))


def test_criterion_3_gradient_fidelity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        width, n = 6, 12
        params, (actor, critic) = joint_params(
            init_params(rng, (width, 64, 64, 2), out_gain=0.01),
            init_params(rng, (width, 64, 64, 1), out_gain=1.0),
        )
        obs = rng.uniform(-1.0, 1.0, (n, width))
        actions = rng.integers(0, 2, n)
        logits, _ = forward(actor, obs)
        logp_now, _ = chosen_and_entropy(log_softmax(np.atleast_2d(logits)), actions)
        # log-ratio offsets keep every sample away from the clip kinks at
        # ratio 0.8 and 1.2: half near 1, half deep inside the clipped zone
        offsets = np.where(rng.random(n) < 0.5,
                           rng.uniform(-0.05, 0.05, n),
                           rng.choice([-1.0, 1.0], n) * rng.uniform(0.35, 0.6, n))
        batch = Minibatch(
            obs=obs,
            actions=actions,
            log_probs_old=logp_now - offsets,
            advantages=rng.standard_normal(n),
            returns=rng.standard_normal(n),
        )
        hyper = Hyperparams()
        loss, _, grads = ppo_loss(actor, critic, batch, hyper)
        assert loss == surrogate_loss(actor, critic, batch, hyper)

        def loss_at_params():
            return surrogate_loss(actor, critic, batch, hyper)

        numeric = finite_difference(loss_at_params, [params], h=1e-5)
        worst = max(worst, max_rel_error([grads], numeric))
    elapsed = time.perf_counter() - start
    report(3, worst < 1e-4 and elapsed < 30.0,
           f"max relative gradient error {worst:.2e} over 10 seeds in {elapsed:.1f}s")


def test_criterion_4_gae_matches_brute_force():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n)
        dones = rng.random(n) < 0.4
        bootstrap = float(rng.standard_normal())
        gamma = float(rng.uniform(0.5, 1.0))
        lam = float(rng.uniform(0.5, 1.0))
        buf = buffer_from_columns(rewards, values, dones, bootstrap)
        compute_gae(buf, gamma, lam)
        expected = brute_force_gae(rewards, values, dones, bootstrap, gamma, lam)
        worst = max(worst, float(np.abs(buf.advantages[:, 0] - expected).max()))
    report(4, worst <= 1e-10, f"max advantage deviation {worst:.2e} over 100 buffers")


def test_criterion_5_oracle_and_excess_identities():
    topics = synth_topics(200, 200, 0.1, 40.0, seed=5)
    targets = (0.8, 0.9, 1.0)
    results = oracle_stop(topics, list(targets))
    metrics = {(m.topic_id, m.target_recall): m for m in aggregate(results, topics).per_topic}
    failures = []
    for k, (topic_id, labels) in enumerate(zip(topics.topic_ids, topic_labels(topics))):
        g = prefix_count(labels)
        for target, result in zip(targets, results[3 * k:3 * k + 3]):
            need = target * g[-1] - 1e-9
            if metrics[topic_id, target].recall < target - 1e-9:
                failures.append((topic_id, target, "recall below target"))
            if result.docs_examined > 1 and g[result.docs_examined - 1] >= need:
                failures.append((topic_id, target, "earlier rank reaches target"))
            if metrics[topic_id, target].excess != 0.0:
                failures.append((topic_id, target, "nonzero oracle excess"))
    report(5, not failures,
           f"{len(failures)} violations over 200 topics x 3 targets" +
           (f", first {failures[0]}" if failures else ""))


def test_criterion_6_unattainable_target_overshoot():
    labels = np.zeros(20, dtype=int)
    labels[1:18:2] = 1  # 9 relevant documents
    topic = make_topic(labels)
    result, = oracle_stop(topic, [0.8])
    recall = topic_metrics(result, topic).recall
    report(6, result.relevant_found == 8 and abs(recall - 8 / 9) < 1e-12,
           f"oracle at target 0.8 over 9 relevant found {result.relevant_found}, recall {recall:.4f}")


def test_criterion_7_end_to_end_training():
    start = time.perf_counter()
    topics = synth_topics(45, 2000, 0.02, 100.0, seed=7)
    train_topics, held_out = subset(topics, range(30)), subset(topics, range(30, 45))
    oracle_cost = float(np.mean([oracle_rank(labels, 0.9) / len(labels)
                                 for labels in topic_labels(held_out)]))
    assert 0.10 <= oracle_cost <= 0.20, f"synthetic decay mistuned: oracle cost {oracle_cost:.3f}"
    budget_excess = float(np.mean([topic_metrics(result, held_out, 0.9).excess
                                   for result in budget_stop(held_out, 0.5)]))
    passed = 0
    details = []
    for seed in range(4):
        checkpoint, _ = train(train_topics, 0.9, Hyperparams(seed=seed), n_batches=100)
        recalls, costs, excesses = [], [], []
        results = infer_stop(checkpoint, held_out.batched(100))
        for result in results:
            metrics = topic_metrics(result, held_out, 0.9)
            recalls.append(metrics.recall)
            costs.append(metrics.cost)
            excesses.append(metrics.excess)
        mean_recall = float(np.mean(recalls))
        mean_cost = float(np.mean(costs))
        mean_excess = float(np.mean(excesses))
        ok = mean_recall >= 0.8 and mean_cost <= 0.5 and mean_excess < budget_excess
        passed += ok
        details.append(f"seed {seed}: recall {mean_recall:.3f} cost {mean_cost:.3f} "
                       f"excess {mean_excess:.3f} {'ok' if ok else 'MISS'}")
    elapsed = time.perf_counter() - start
    report(7, passed >= 3 and elapsed < 900.0,
           f"{passed}/4 seeds met recall>=0.8, cost<=0.5, excess<budget({budget_excess:.3f}) "
           f"in {elapsed:.0f}s; " + "; ".join(details))


def test_criterion_8_training_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--count", "10", "--docs", "400",
                 "--prevalence", "0.05", "--decay", "40", "--seed", "1"]) == 0
    run_path, qrels_path = data / "synthetic.run", data / "synthetic.qrels"
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["train", "--run", str(run_path), "--qrels", str(qrels_path),
                     "--out", str(out), "--target", "0.9", "--timesteps", "4000",
                     "--seed", "3"])
        assert code == 0
        outputs.append(out)
    same_ckpt = (outputs[0] / "policy-t0.9.json").read_bytes() == (outputs[1] / "policy-t0.9.json").read_bytes()
    same_log = (outputs[0] / "train-log-t0.9.csv").read_bytes() == (outputs[1] / "train-log-t0.9.csv").read_bytes()
    report(8, same_ckpt and same_log,
           f"checkpoint bytes identical: {same_ckpt}, log bytes identical: {same_log}")


def test_criterion_9_reporting_shape(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--count", "8", "--docs", "400",
                 "--prevalence", "0.05", "--decay", "40", "--seed", "2"]) == 0
    run_path, qrels_path = data / "synthetic.run", data / "synthetic.qrels"
    model = tmp_path / "model"
    assert main(["train", "--run", str(run_path), "--qrels", str(qrels_path),
                 "--out", str(model), "--target", "0.9", "--timesteps", "1600",
                 "--seed", "0"]) == 0
    results = []
    policy_csv = tmp_path / "policy.csv"
    assert main(["stop", "--checkpoint", str(model / "policy-t0.9.json"),
                 "--run", str(run_path), "--qrels", str(qrels_path),
                 "--out", str(policy_csv)]) == 0
    results.append(policy_csv)
    for method, extra in (("oracle", []), ("knee", []), ("budget", ["--fraction", "0.5"])):
        path = tmp_path / f"{method}.csv"
        assert main(["baseline", "--method", method, "--run", str(run_path),
                     "--qrels", str(qrels_path), "--out", str(path),
                     "--target", "0.9", *extra]) == 0
        results.append(path)
    out = tmp_path / "report"
    eval_args = ["eval", "--run", str(run_path), "--qrels", str(qrels_path), "--out", str(out)]
    for path in results:
        eval_args.extend(["--results", str(path)])
    assert main(eval_args) == 0

    with open(out / "aggregate.csv", newline="") as fh:
        agg = list(csv.DictReader(row for row in fh if not row.startswith("#")))
    with open(out / "per_topic.csv", newline="") as fh:
        per_topic = list(csv.DictReader(fh))
    methods = {row["method"] for row in agg}
    # recall-vs-cost scatter per target: one (mean_cost, mean_recall) point
    # per method; excess distribution: per-topic excess values per method
    scatter_ready = all({"mean_recall", "mean_cost"} <= set(row) for row in agg)
    per_method_excess = {m: [r["excess"] for r in per_topic if r["method"] == m] for m in methods}
    distribution_ready = all(len(v) == 8 for v in per_method_excess.values())
    oracle_pareto = all(row["pareto_flag"] == "1" for row in agg if row["method"] == "oracle")
    ok = (methods == {"policy", "oracle", "knee", "budget"} and scatter_ready
          and distribution_ready and oracle_pareto)
    report(9, ok,
           f"methods {sorted(methods)}, scatter columns {scatter_ready}, "
           f"per-topic excess vectors {distribution_ready}, oracle pareto {oracle_pareto}")


def test_criterion_10_external_collection_fidelity(tmp_path):
    run_path = os.environ.get("TARSTOP_FIDELITY_RUN")
    qrels_path = os.environ.get("TARSTOP_FIDELITY_QRELS")
    if not run_path or not qrels_path:
        print("SKIP criterion 10: set TARSTOP_FIDELITY_RUN and TARSTOP_FIDELITY_QRELS "
              "to score an external collection")
        pytest.skip("no external collection supplied")
    topics = assemble_topics(load_run(run_path), load_qrels(qrels_path))
    assert topics, "external collection has no usable topics"
    out = tmp_path / "report"
    oracle_csv = tmp_path / "oracle.csv"
    assert main(["baseline", "--method", "oracle", "--run", run_path,
                 "--qrels", qrels_path, "--out", str(oracle_csv),
                 "--target", "0.8", "--target", "0.9", "--target", "1.0"]) == 0
    assert main(["eval", "--results", str(oracle_csv), "--run", run_path,
                 "--qrels", qrels_path, "--out", str(out)]) == 0
    with open(out / "per_topic.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    report(10, len(rows) == 3 * len(topics),
           f"ingested {len(topics)} external topics, {len(rows)} per-topic metric rows")
