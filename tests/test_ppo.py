import dataclasses
import json

import numpy as np
import pytest

from conftest import make_collection, make_topic, topic_metrics
from tarstop.corpus import Collection, synth_topics
from tarstop.env import STOP, VecStoppingEnv, observation_table, observe
from tarstop.cache import entry_path, read_entry
from tarstop.errors import ConfigError
from tarstop.metrics import StopResult
from tarstop import cache, nets, ppo
from tarstop.nets import HIDDEN_SIZES, MlpParams, adam_init, forward, init_params, joint_params, softmax
from tarstop.ppo import (
    CHECKPOINTS,
    Checkpoint,
    Hyperparams,
    LogRow,
    LossStats,
    Rollout,
    collect_rollout,
    compute_gae,
    infer_stop,
    load_checkpoint,
    normalize_advantages,
    ppo_loss,
    ppo_update,
    save_checkpoint,
    train,
    write_training_log,
)


def brute_force_gae(rewards, values, dones, bootstrap, gamma, lam):
    """Direct evaluation of the truncated (gamma*lambda)-weighted delta sums."""
    n = len(rewards)
    deltas = np.zeros(n)
    for t in range(n):
        next_value = bootstrap if t == n - 1 else values[t + 1]
        nonterminal = 0.0 if dones[t] else 1.0
        deltas[t] = rewards[t] + gamma * next_value * nonterminal - values[t]
    adv = np.zeros(n)
    for t in range(n):
        total, factor = 0.0, 1.0
        for k in range(t, n):
            total += factor * deltas[k]
            if dones[k]:
                break
            factor *= gamma * lam
        adv[t] = total
    return adv


def rollout_from_columns(rewards, values, dones, bootstrap):
    rewards = np.asarray(rewards, dtype=float)[:, None]
    values = np.asarray(values, dtype=float)[:, None]
    dones = np.asarray(dones, dtype=bool)[:, None]
    n = len(rewards)
    return Rollout(
        obs=np.zeros((n, 1, 2)),
        actions=np.zeros((n, 1), dtype=np.int64),
        log_probs=np.zeros((n, 1)),
        rewards=rewards,
        values=values,
        dones=dones,
        bootstrap_values=np.array([bootstrap], dtype=float),
    )


class TestHyperparams:
    def test_defaults_are_valid(self):
        Hyperparams().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_timesteps": 0},
            {"n_steps": 0},
            {"minibatch_size": 0},
            {"n_epochs": 0},
            {"n_envs": 0},
            {"learning_rate": -1.0},
            {"clip_range": 0.0},
            {"clip_range": 1.0},
            {"gamma": 0.0},
            {"gamma": 1.5},
            {"gae_lambda": 0.0},
            {"max_grad_norm": 0.0},
            {"learning_rate": float("nan")},
            {"entropy_coef": float("inf")},
            {"value_coef": float("inf")},
            {"max_grad_norm": float("nan")},
            {"seed": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Hyperparams(**kwargs).validate()


class TestComputeGae:
    def test_monte_carlo_limit(self):
        # lambda=1 with zero values and one terminated episode: advantages
        # are plain discounted returns from each step
        gamma = 0.9
        rollout = rollout_from_columns([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [False, False, True], 0.0)
        advantages = compute_gae(rollout, gamma, 1.0)
        expected = [1 + 2 * gamma + 3 * gamma**2, 2 + 3 * gamma, 3.0]
        assert np.allclose(advantages[:, 0], expected, atol=1e-12)

    def test_gamma_zero_is_one_step_error(self, rng):
        rewards = rng.standard_normal(5)
        values = rng.standard_normal(5)
        rollout = rollout_from_columns(rewards, values, [False] * 5, 0.3)
        # hyperparams forbid gamma=0 but the estimator itself degrades cleanly
        assert np.allclose(compute_gae(rollout, 0.0, 0.95)[:, 0], rewards - values, atol=1e-12)

    def test_leaves_the_rollout_unchanged(self, rng):
        rewards = rng.standard_normal(8)
        values = rng.standard_normal(8)
        dones = rng.random(8) < 0.3
        rollout = rollout_from_columns(rewards, values, dones, 0.7)
        before = [a.copy() for a in rollout]
        advantages = compute_gae(rollout, 0.99, 0.95)
        assert advantages.shape == rollout.rewards.shape
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(rollout, before))
        assert not any(np.shares_memory(advantages, a) for a in rollout)

    def test_matches_brute_force_on_random_buffers(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 11))
            rewards = rng.standard_normal(n)
            values = rng.standard_normal(n)
            dones = rng.random(n) < 0.35
            bootstrap = float(rng.standard_normal())
            gamma = float(rng.uniform(0.5, 1.0))
            lam = float(rng.uniform(0.5, 1.0))
            advantages = compute_gae(rollout_from_columns(rewards, values, dones, bootstrap),
                                     gamma, lam)
            expected = brute_force_gae(rewards, values, dones, bootstrap, gamma, lam)
            assert np.allclose(advantages[:, 0], expected, atol=1e-10)

    def test_boundary_blocks_value_leakage(self):
        # with a terminal at step 0, the bootstrap and later values must not
        # flow into the first advantage
        rollout = rollout_from_columns([1.0, 5.0], [0.5, 9.0], [True, False], 100.0)
        assert abs(compute_gae(rollout, 0.99, 0.95)[0, 0] - (1.0 - 0.5)) < 1e-12


def small_pool(seed=0, n_topics=6, n_docs=40, n_batches=8):
    return synth_topics(n_topics, n_docs, 0.25, 10.0, seed=seed).batched(n_batches)


def fresh_nets(width, seed=0):
    actor = init_params(seed, (width, 8, 8, 2), out_gain=0.01)
    critic = init_params(seed + 1, (width, 8, 8, 1), out_gain=1.0)
    return actor, critic


class TestCollectRollout:
    def test_shapes(self):
        pool = small_pool()
        venv = VecStoppingEnv(pool, 0.9, n_envs=8, seed=0)
        actor, critic = fresh_nets(venv.n_batches)
        buf, _ = collect_rollout(actor, critic, venv, 100, np.random.default_rng(0))
        assert buf.obs.shape == (100, 8, venv.n_batches)
        assert buf.actions.shape == (100, 8)
        assert buf.rewards.shape == (100, 8)
        assert buf.bootstrap_values.shape == (8,)

    def test_deterministic(self):
        pool = small_pool()
        rollouts = []
        for _ in range(2):
            venv = VecStoppingEnv(pool, 0.9, n_envs=4, seed=3)
            actor, critic = fresh_nets(venv.n_batches)
            buf, _ = collect_rollout(actor, critic, venv, 25, np.random.default_rng(5))
            rollouts.append(buf)
        for name in ("obs", "actions", "log_probs", "rewards", "values", "dones"):
            assert np.array_equal(getattr(rollouts[0], name), getattr(rollouts[1], name))

    def test_extreme_stop_logit_gives_unit_episodes(self):
        pool = small_pool()
        venv = VecStoppingEnv(pool, 0.9, n_envs=4, seed=0)
        actor, critic = fresh_nets(venv.n_batches)
        actor.biases[-1][:] = [50.0, -50.0]  # always STOP
        buf, episodes = collect_rollout(actor, critic, venv, 10, np.random.default_rng(0))
        assert buf.dones.all()
        assert len(episodes) == 40
        assert all(e["stop_batch"] == 1 for e in episodes)


class TestPpoLoss:
    def _batch_from_rollout(self, seed=0):
        pool = small_pool(seed)
        venv = VecStoppingEnv(pool, 0.9, n_envs=4, seed=seed)
        actor, critic = fresh_nets(venv.n_batches, seed)
        buf, _ = collect_rollout(actor, critic, venv, 20, np.random.default_rng(seed))
        advantages = compute_gae(buf, 0.99, 0.95)
        n = advantages.size
        batch = (buf.obs.reshape(n, -1), buf.actions.reshape(n), buf.log_probs.reshape(n),
                 normalize_advantages(advantages.reshape(n)), (advantages + buf.values).reshape(n))
        return actor, critic, batch

    def test_unchanged_policy_has_unit_ratio(self):
        actor, critic, batch = self._batch_from_rollout()
        hyper = Hyperparams()
        _, stats, _ = ppo_loss(actor, critic, *batch, hyper)
        assert stats.clip_fraction == 0.0
        # -mean(normalized advantages), which is zero up to float error
        assert abs(stats.policy_loss) < 1e-12
        assert abs(stats.approx_kl) < 1e-12

    def test_clipped_branch_value(self):
        # two samples with ratio exactly 1.5 and positive advantage: the
        # clipped factor 1.2 is the active branch, so the loss is -1.2
        actor = MlpParams([np.zeros((3, 2))], [np.zeros(2)])
        critic = MlpParams([np.zeros((3, 1))], [np.zeros(1)])
        logp_now = np.log(0.5)
        batch = (np.zeros((2, 3)), np.array([0, 1]), np.array([logp_now - np.log(1.5)] * 2),
                 np.array([1.0, 1.0]), np.zeros(2))
        _, stats, _ = ppo_loss(actor, critic, *batch, Hyperparams(clip_range=0.2))
        assert abs(stats.policy_loss - (-1.2)) < 1e-12
        assert stats.clip_fraction == 1.0

    def test_negative_advantage_clips_low_side(self):
        actor = MlpParams([np.zeros((3, 2))], [np.zeros(2)])
        critic = MlpParams([np.zeros((3, 1))], [np.zeros(1)])
        logp_now = np.log(0.5)
        batch = (np.zeros((2, 3)), np.array([0, 1]),
                 np.array([logp_now - np.log(0.5)] * 2),  # ratio 0.5
                 np.array([-1.0, -1.0]), np.zeros(2))
        _, stats, _ = ppo_loss(actor, critic, *batch, Hyperparams(clip_range=0.2))
        # min(0.5 * -1, 0.8 * -1) = -0.8 -> loss +0.8
        assert abs(stats.policy_loss - 0.8) < 1e-12

    def test_stats_bounds(self):
        actor, critic, batch = self._batch_from_rollout(seed=2)
        actor2 = MlpParams([w + 0.01 for w in actor.weights], [b + 0.01 for b in actor.biases])
        _, stats, _ = ppo_loss(actor2, critic, *batch, Hyperparams())
        assert 0.0 <= stats.clip_fraction <= 1.0
        assert stats.approx_kl >= -1e-12
        assert 0.0 <= stats.entropy <= np.log(2.0) + 1e-12

    def test_entropy_term_vanishes_for_deterministic_policy(self):
        actor, critic, batch = self._batch_from_rollout(seed=3)
        actor.biases[-1][:] = [30.0, -30.0]
        obs, actions, log_probs_old, advantages, returns = batch
        batch = (obs, actions, np.full_like(log_probs_old, -1e-13), advantages, returns)
        h_on = Hyperparams(entropy_coef=0.1)
        h_off = Hyperparams(entropy_coef=0.0)
        _, _, grads_on = ppo_loss(actor, critic, *batch, h_on)
        _, _, grads_off = ppo_loss(actor, critic, *batch, h_off)
        assert np.allclose(grads_on, grads_off, atol=1e-8)

    def test_gradient_vector_is_both_backward_passes_bitwise(self, monkeypatch):
        # the reference is each network's gradient in its own new buffer, as
        # ppo_loss returned them before they shared one vector
        actor, critic, batch = self._batch_from_rollout(seed=1)
        separate = []

        def recording_backward(params, cache, grad_out, out=None):
            separate.append(nets.backward(params, cache, grad_out).flat)
            return nets.backward(params, cache, grad_out, out=out)

        monkeypatch.setattr(ppo, "backward", recording_backward)
        _, _, grads = ppo_loss(actor, critic, *batch, Hyperparams())
        assert [g.size for g in separate] == [actor.flat.size, critic.flat.size]
        assert np.array_equal(grads, np.concatenate(separate))

    def test_advantage_normalization_invariant(self, rng):
        for _ in range(20):
            adv = rng.standard_normal(int(rng.integers(2, 200))) * rng.uniform(0.1, 10)
            norm = normalize_advantages(adv)
            assert abs(norm.mean()) < 1e-10
            assert abs(norm.std() - 1.0) < 1e-6

    def test_normalization_guard_for_constant_advantages(self):
        norm = normalize_advantages(np.full(5, 3.0))
        assert np.allclose(norm, 0.0)


class TestPpoUpdate:
    def test_update_changes_params_and_reports_stats(self):
        pool = small_pool()
        venv = VecStoppingEnv(pool, 0.9, n_envs=4, seed=0)
        params, (actor, critic) = joint_params(*fresh_nets(venv.n_batches))
        before = [net.flat.copy() for net in (actor, critic)]
        buf, _ = collect_rollout(actor, critic, venv, 25, np.random.default_rng(0))
        advantages = compute_gae(buf, 0.99, 0.95)
        hyper = Hyperparams(minibatch_size=20, n_epochs=2)
        opt = adam_init(params)
        stats = ppo_update(actor, critic, params, opt, buf, advantages, hyper,
                           np.random.default_rng(0))
        # both networks move, through their views of the one vector
        assert all(not np.array_equal(net.flat, b) for net, b in zip((actor, critic), before))
        assert opt.step == 2 * (100 // 20)
        assert 0.0 <= stats.clip_fraction <= 1.0
        assert stats.approx_kl >= -1e-12
        assert all(np.isfinite(stats))

    def test_stats_are_the_python_float_mean_of_its_minibatches(self, monkeypatch):
        pool = small_pool()
        venv = VecStoppingEnv(pool, 0.9, n_envs=4, seed=0)
        params, (actor, critic) = joint_params(*fresh_nets(venv.n_batches))
        rollout, _ = collect_rollout(actor, critic, venv, 25, np.random.default_rng(0))
        advantages = compute_gae(rollout, 0.99, 0.95)
        calls = []

        def recording_loss(*args):
            result = ppo_loss(*args)
            calls.append((args[2:7], result[1]))
            return result

        monkeypatch.setattr(ppo, "ppo_loss", recording_loss)
        hyper = Hyperparams(minibatch_size=30, n_epochs=3)  # 100 rows: a short last minibatch
        stats = ppo_update(actor, critic, params, adam_init(params), rollout, advantages, hyper,
                           np.random.default_rng(4))
        assert type(stats) is LossStats and len(calls) == 3 * 4
        totals = [0.0] * len(LossStats._fields)
        for _, each in calls:
            assert type(each) is LossStats
            totals = [total + value for total, value in zip(totals, each)]
        assert [s.hex() for s in stats] == [(t / len(calls)).hex() for t in totals]
        # each minibatch is a slice of one permutation per epoch, its returns advantages + values
        rng = np.random.default_rng(4)
        rows = (rollout.obs.reshape(100, -1), rollout.actions.reshape(100),
                rollout.log_probs.reshape(100), advantages.reshape(100),
                (advantages + rollout.values).reshape(100))
        for epoch in range(3):
            perm = rng.permutation(100)
            for k, start in enumerate(range(0, 100, 30)):
                (obs, actions, log_probs, adv, returns), _ = calls[4 * epoch + k]
                mb = perm[start : start + 30]
                assert np.array_equal(obs, rows[0][mb]) and np.array_equal(actions, rows[1][mb])
                assert np.array_equal(log_probs, rows[2][mb])
                assert np.array_equal(adv, normalize_advantages(rows[3][mb]))
                assert np.array_equal(returns, rows[4][mb])


class TestTrain:
    def test_timestep_accounting(self):
        topics = synth_topics(4, 40, 0.25, 10.0, seed=0)
        hyper = Hyperparams(total_timesteps=4000, n_steps=10, n_envs=4, minibatch_size=40, seed=0)
        _, rows = train(topics, 0.9, hyper, n_batches=8)
        assert len(rows) == 100  # 4000 / (10 * 4)
        assert rows[-1].timesteps == 4000
        assert [r.iteration for r in rows[:3]] == [1, 2, 3]

    def test_deterministic_given_seed(self):
        topics = synth_topics(4, 40, 0.25, 10.0, seed=0)
        hyper = Hyperparams(total_timesteps=800, n_steps=10, n_envs=4, minibatch_size=40, seed=7)
        ckpt1, rows1 = train(topics, 0.9, hyper, n_batches=8)
        ckpt2, rows2 = train(topics, 0.9, hyper, n_batches=8)
        for a, b in zip(ckpt1.actor.arrays() + ckpt1.critic.arrays(),
                        ckpt2.actor.arrays() + ckpt2.critic.arrays()):
            assert np.array_equal(a, b)
        assert rows1 == rows2

    def test_clipped_training_is_deterministic(self):
        topics = synth_topics(4, 40, 0.25, 10.0, seed=0)
        base = dict(total_timesteps=800, n_steps=10, n_envs=4, minibatch_size=40, seed=7)
        clipped = Hyperparams(max_grad_norm=0.05, **base)
        ckpt1, rows1 = train(topics, 0.9, clipped, n_batches=8)
        ckpt2, rows2 = train(topics, 0.9, clipped, n_batches=8)
        assert np.array_equal(ckpt1.actor.flat, ckpt2.actor.flat)
        assert np.array_equal(ckpt1.critic.flat, ckpt2.critic.flat)
        assert rows1 == rows2
        # the limit is active: clipping changes the trained critic
        unclipped, _ = train(topics, 0.9, Hyperparams(**base), n_batches=8)
        assert not np.array_equal(ckpt1.critic.flat, unclipped.critic.flat)

    def test_seed_changes_outcome(self):
        topics = synth_topics(4, 40, 0.25, 10.0, seed=0)
        base = dict(total_timesteps=800, n_steps=10, n_envs=4, minibatch_size=40)
        ckpt1, _ = train(topics, 0.9, Hyperparams(seed=1, **base), n_batches=8)
        ckpt2, _ = train(topics, 0.9, Hyperparams(seed=2, **base), n_batches=8)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(ckpt1.actor.arrays(), ckpt2.actor.arrays()))

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError, match="topics"):
            train(make_collection(), 0.9, Hyperparams(total_timesteps=100, n_steps=5, n_envs=2))

    def test_too_few_timesteps_rejected(self):
        topics = synth_topics(2, 20, 0.3, 5.0, seed=0)
        with pytest.raises(ConfigError, match="rollout"):
            train(topics, 0.9, Hyperparams(total_timesteps=10, n_steps=100, n_envs=8))

    def test_learns_fixed_target_batch(self):
        # every topic reaches full recall exactly at batch 10 of 20, so the
        # return-optimal stop is batch 10
        labels = np.zeros(100, dtype=int)
        labels[45:50] = 1  # batch 10 covers ranks 46..50
        topics = make_collection(*[labels] * 4)
        hyper = Hyperparams(total_timesteps=24_000, seed=0)
        _, rows = train(topics, 1.0, hyper, n_batches=20)
        tail = [r.mean_stop_batch for r in rows[-3:]]
        assert 8.0 <= float(np.mean(tail)) <= 12.0


def per_step_observe_infer(checkpoint, topics, mode="greedy", rng=None):
    """Reference for ``infer_stop``: every step rebuilds each live topic's
    row with ``observe`` from the topics' examined counts."""
    table = observation_table(topics, checkpoint.normalize_obs)
    examined = np.ones(len(topics), dtype=np.int64)
    live = np.arange(len(topics))
    while live.size:
        logits, _ = forward(checkpoint.actor, observe(table, live, examined[live]))
        if mode == "greedy":
            stop = logits.argmax(axis=1) == STOP
        else:
            stop = rng.random(live.size) < softmax(logits)[:, STOP]
        live = live[~stop & (examined[live] < checkpoint.n_batches)]
        examined[live] += 1
    return [
        StopResult(topic_id, "policy", checkpoint.target_recall,
                   int(topics.sizes[k, :n].sum()), int(topics.cum_rel[k, n - 1]), int(n))
        for k, (topic_id, n) in enumerate(zip(topics.collection.topic_ids, examined))
    ]


def random_policy_collection(seed, n_batches=16, normalize="ratio", count=40):
    """A checkpoint with a randomly initialised actor of the trained shape
    (B -> 64 -> 64 -> 2) and ``count`` topics, many shorter than B."""
    rng = np.random.default_rng(seed)
    actor = init_params(rng, (n_batches, *HIDDEN_SIZES, 2), out_gain=1.0)
    critic = init_params(rng, (n_batches, *HIDDEN_SIZES, 1), out_gain=1.0)
    rankings = []
    for _ in range(count):
        labels = (rng.random(int(rng.integers(1, 3 * n_batches))) < rng.uniform(0.05, 0.5))
        rankings.append(labels.astype(int))
    checkpoint = Checkpoint(actor, critic, 0.9, n_batches, normalize, Hyperparams())
    return checkpoint, Collection.of([f"r{k}" for k in range(count)], rankings).batched(n_batches)


class TestInferStop:
    @pytest.mark.parametrize("normalize", ["ratio", "count"])
    @pytest.mark.parametrize("seed", [0, 3, 6])  # seeds whose greedy stops spread
    def test_matches_per_step_observe_loop(self, seed, normalize):
        ckpt, bts = random_policy_collection(seed, normalize=normalize)
        greedy = infer_stop(ckpt, bts)
        assert greedy == per_step_observe_infer(ckpt, bts)
        assert len({r.stop_batch for r in greedy}) >= 3  # mixed stop points
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        sampled = infer_stop(ckpt, bts, mode="sample", rng=ours)
        assert sampled == per_step_observe_infer(ckpt, bts, "sample", reference)
        assert len({r.stop_batch for r in sampled}) >= 3
        # one uniform per live topic per step, the last step included
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_each_step_forwards_the_rows_observe_builds(self, monkeypatch):
        ckpt, bts = random_policy_collection(6)
        rows = []

        def spy(params, x):
            rows.append(np.array(x))  # a copy: infer_stop writes into its rows between steps
            return forward(params, x)

        monkeypatch.setattr(ppo, "forward", spy)
        results = infer_stop(ckpt, bts)
        stops = np.array([r.stop_batch for r in results])
        assert len(rows) == stops.max()
        table = observation_table(bts, ckpt.normalize_obs)
        for step, seen in enumerate(rows, start=1):
            live = np.flatnonzero(stops >= step)  # the topics still reading, in input order
            assert np.array_equal(seen, observe(table, live, np.full(live.size, step)))

    def _checkpoint(self, width, stop_bias):
        actor = MlpParams([np.zeros((width, 2))], [np.array([stop_bias, 0.0])])
        critic = MlpParams([np.zeros((width, 1))], [np.zeros(1)])
        return Checkpoint(actor, critic, 0.9, width, "ratio", Hyperparams())

    def test_always_stop_policy(self):
        bt = make_topic([1, 0, 1, 0, 1, 0]).batched(3)
        [result] = infer_stop(self._checkpoint(3, stop_bias=5.0), bt)
        assert result.stop_batch == 1
        assert result.docs_examined == int(bt.sizes[0, 0])
        assert result.relevant_found == int(bt.cum_rel[0, 0])

    def test_never_stop_policy_reads_everything(self):
        topic = make_topic([1, 0, 1, 0, 1, 0])
        [result] = infer_stop(self._checkpoint(3, stop_bias=-5.0), topic.batched(3))
        assert result.stop_batch == 3
        assert result.docs_examined == topic.n_docs[0]
        assert topic_metrics(result, topic).recall == 1.0
        assert topic_metrics(result, topic).cost == 1.0

    def test_greedy_is_deterministic(self):
        topics = synth_topics(1, 60, 0.2, 10.0, seed=0)
        hyper = Hyperparams(total_timesteps=400, n_steps=10, n_envs=4, minibatch_size=40, seed=0)
        ckpt, _ = train(topics, 0.9, hyper, n_batches=6)
        bt = topics.batched(6)
        assert infer_stop(ckpt, bt) == infer_stop(ckpt, bt)

    def test_sample_mode_is_seeded(self):
        bts = make_collection([1, 0, 1, 0, 1, 0], [1, 0, 1, 0, 1, 0]).batched(3)
        ckpt = self._checkpoint(3, stop_bias=0.0)
        a = infer_stop(ckpt, bts, mode="sample", rng=np.random.default_rng(5))
        b = infer_stop(ckpt, bts, mode="sample", rng=np.random.default_rng(5))
        assert a == b

    def test_sample_mode_draws_at_the_last_batch_too(self):
        bts = make_collection([1, 0, 1, 0, 1], [0, 1]).batched(3)
        ckpt = self._checkpoint(3, stop_bias=-5.0)
        ours, reference = np.random.default_rng(2), np.random.default_rng(2)
        sampled = infer_stop(ckpt, bts, mode="sample", rng=ours)
        assert sampled == per_step_observe_infer(ckpt, bts, "sample", reference)
        assert [r.stop_batch for r in sampled] == [3, 3]
        assert ours.bit_generator.state == reference.bit_generator.state

    def test_batched_pass_matches_per_topic_loop(self):
        # count observations and a STOP margin of 10 * (revealed counts -
        # unrevealed batches) + 5: an odd multiple of 5, never near zero,
        # so summation-order differences of a batched matmul cannot flip it
        n_batches = 6
        actor = MlpParams([np.zeros((n_batches, 2))], [np.array([5.0, 0.0])])
        actor.weights[0][:, STOP] = 10.0
        critic = MlpParams([np.zeros((n_batches, 1))], [np.zeros(1)])
        ckpt = Checkpoint(actor, critic, 0.9, n_batches, "count", Hyperparams())
        rng = np.random.default_rng(3)
        rankings = []
        for _ in range(12):
            labels = (rng.random(30) < rng.uniform(0.0, 0.5)).astype(int)
            labels[-1] = 1
            rankings.append(labels)
        bts = Collection.of([f"m{k}" for k in range(12)], rankings).batched(n_batches)

        def one_topic(k):
            examined = 1
            while True:
                obs = [float(c) if j < examined else -1.0 for j, c in enumerate(bts.batch_rel[k])]
                logits, _ = forward(actor, np.array([obs]))
                if int(np.argmax(logits[0])) == STOP or examined == n_batches:
                    return StopResult(f"m{k}", "policy", 0.9, int(bts.sizes[k, :examined].sum()),
                                      int(bts.cum_rel[k, examined - 1]), examined)
                examined += 1

        expected = [one_topic(k) for k in range(12)]
        assert len({r.stop_batch for r in expected}) >= 3  # mixed stop points
        assert infer_stop(ckpt, bts) == expected

    def test_width_mismatch_rejected(self):
        bt = make_topic([1, 0, 1, 0]).batched(4)
        with pytest.raises(ConfigError, match="checkpoint expects 3 batches, the topics are cut into 4"):
            infer_stop(self._checkpoint(3, 0.0), bt)

    def test_bad_mode_rejected(self):
        bt = make_topic([1, 0, 1]).batched(3)
        with pytest.raises(ConfigError, match="mode"):
            infer_stop(self._checkpoint(3, 0.0), bt, mode="argmax")


class TestCheckpointIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        topics = synth_topics(2, 30, 0.3, 8.0, seed=0)
        hyper = Hyperparams(total_timesteps=400, n_steps=10, n_envs=4, minibatch_size=40, seed=0)
        ckpt, _ = train(topics, 0.9, hyper, n_batches=6)
        path = tmp_path / "policy.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for a, b in zip(ckpt.actor.arrays() + ckpt.critic.arrays(),
                        loaded.actor.arrays() + loaded.critic.arrays()):
            assert np.array_equal(a, b)
        assert loaded.hyper == ckpt.hyper
        assert loaded.target_recall == ckpt.target_recall
        assert loaded.n_batches == ckpt.n_batches
        assert loaded.normalize_obs == ckpt.normalize_obs
        second = tmp_path / "again.json"
        save_checkpoint(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ConfigError, match="checkpoint"):
            load_checkpoint(path)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text('{"kind": "tarstop-checkpoint", "format_version": 1}')
        with pytest.raises(ConfigError, match="truncated.json.*missing key 'actor'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("net, sizes, message", [
        ("actor", [5, 4, 2], "actor maps 5 inputs to 2 outputs"),
        ("critic", [5, 4, 1], "critic maps 5 inputs to 1 outputs"),
        ("actor", [6, 4, 3], "actor maps 6 inputs to 3 outputs"),
        ("critic", [6, 4, 2], "critic maps 6 inputs to 2 outputs"),
    ])
    def test_network_widths_checked(self, tmp_path, net, sizes, message):
        actor = init_params(0, (6, 4, 2), out_gain=0.01)
        critic = init_params(1, (6, 4, 1), out_gain=1.0)
        nets = {"actor": actor, "critic": critic, net: init_params(2, tuple(sizes), out_gain=1.0)}
        path = tmp_path / "policy.json"
        save_checkpoint(Checkpoint(nets["actor"], nets["critic"], 0.9, 6, "ratio", Hyperparams()), path)
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(n_batches="6"), "n_batches must be an integer, got '6'"),
        (lambda d: d.update(target_recall=None), "target_recall must be a number"),
        (lambda d: d.update(target_recall=1.5), r"target_recall must be in \(0, 1\], got 1.5"),
        (lambda d: d.update(normalize_obs=5), "normalize_obs must be one of .*, got 5"),
        (lambda d: d.update(hyperparams=[]), "hyperparams must be a JSON object"),
        (lambda d: d["critic"]["biases"][0].__setitem__(0, float("nan")),
         "critic has non-finite weights"),
        (lambda d: d["actor"]["weights"].__setitem__(1, [[0.0] * 2] * 3),
         "actor weights and biases are malformed: layer shapes do not chain"),
        (lambda d: d["actor"].pop("biases"), "actor is missing key 'biases'"),
    ], ids=["n_batches", "target_recall", "target_recall-range", "normalize_obs", "hyperparams",
            "non-finite", "unchained", "missing-biases"])
    def test_malformed_fields_rejected(self, tmp_path, edit, message):
        actor = init_params(0, (6, 4, 2), out_gain=0.01)
        critic = init_params(1, (6, 4, 1), out_gain=1.0)
        path = tmp_path / "policy.json"
        save_checkpoint(Checkpoint(actor, critic, 0.9, 6, "ratio", Hyperparams()), path)
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(path)

    def test_training_log_format(self, tmp_path):
        topics = synth_topics(2, 30, 0.3, 8.0, seed=0)
        hyper = Hyperparams(total_timesteps=400, n_steps=10, n_envs=4, minibatch_size=40, seed=0)
        _, rows = train(topics, 0.9, hyper, n_batches=6)
        path = tmp_path / "log.csv"
        write_training_log(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,timesteps,mean_ep_reward,mean_stop_batch,policy_loss,value_loss,entropy,clip_fraction,approx_kl"
        assert lines[0] == ",".join(LogRow._fields)
        assert len(lines) == len(rows) + 1
        assert all(type(row) is LogRow for row in rows)
        # a row ends with its iteration's update stats, field for field
        assert LogRow._fields[-len(LossStats._fields):] == LossStats._fields

    def test_training_log_golden_text(self, tmp_path):
        rows = [
            LogRow(iteration=1, timesteps=20, mean_ep_reward=0.1 + 0.2,
                   mean_stop_batch=float("nan"), policy_loss=-1e-17, value_loss=2.5,
                   entropy=0.6931471805599453, clip_fraction=0.0, approx_kl=1 / 3),
            LogRow(iteration=2, timesteps=40, mean_ep_reward=-0.5, mean_stop_batch=3.0,
                   policy_loss=1e22, value_loss=0.0, entropy=0.1, clip_fraction=0.25,
                   approx_kl=2e-05),
        ]
        path = tmp_path / "log.csv"
        write_training_log(path, rows)
        assert path.read_bytes() == (
            b"iteration,timesteps,mean_ep_reward,mean_stop_batch,policy_loss,value_loss,"
            b"entropy,clip_fraction,approx_kl\r\n"
            b"1,20,0.30000000000000004,nan,-1e-17,2.5,0.6931471805599453,0.0,0.3333333333333333\r\n"
            b"2,40,-0.5,3.0,1e+22,0.0,0.1,0.25,2e-05\r\n"
        )


def _same_checkpoint(a: Checkpoint, b: Checkpoint) -> bool:
    """Bitwise-equal networks, and equal fields of equal Python types."""
    fields = ("target_recall", "n_batches", "normalize_obs")
    return (
        all(x.flat.dtype == y.flat.dtype and x.flat.tobytes() == y.flat.tobytes()
            and x.sizes == y.sizes for x, y in ((a.actor, b.actor), (a.critic, b.critic)))
        and [(type(getattr(a, f)), getattr(a, f)) for f in fields]
        == [(type(getattr(b, f)), getattr(b, f)) for f in fields]
        and [(type(v), v) for v in dataclasses.astuple(a.hyper)]
        == [(type(v), v) for v in dataclasses.astuple(b.hyper)]
    )


def _rewrite_entry(path, edit):
    with np.load(path) as data:
        arrays = dict(data)
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _edit_fields(edit):
    def apply(arrays):
        fields = json.loads(arrays["fields"].item())
        edit(fields)
        arrays["fields"] = np.array(json.dumps(fields))
    return apply


def _flip_a_weight_byte(path):
    data = bytearray(path.read_bytes())
    data[data.index(b"actor.npy") + 400] ^= 0x01  # the member's local header, then its data
    path.write_bytes(bytes(data))


ENTRY_DAMAGE = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    "flipped-byte": _flip_a_weight_byte,
    "missing-array": lambda p: _rewrite_entry(p, lambda a: a.pop("critic")),
    "foreign-array": lambda p: _rewrite_entry(p, lambda a: a.update(labels=np.ones(3, np.uint8))),
    "integer-flat": lambda p: _rewrite_entry(p, lambda a: a.update(actor=a["actor"].astype(int))),
    "non-finite-flat": lambda p: _rewrite_entry(p, lambda a: a["critic"].__setitem__(0, np.inf)),
    "sizes-do-not-fit-flat": lambda p: _rewrite_entry(p, _edit_fields(
        lambda f: f["architecture"].update(actor_sizes=[6, 64, 64, 3]))),
    "sizes-disagree-with-n_batches": lambda p: _rewrite_entry(p, _edit_fields(
        lambda f: f.update(n_batches=7))),
    "fields-not-json": lambda p: _rewrite_entry(p, lambda a: a.update(fields=np.array("{"))),
    "fields-not-an-object": lambda p: _rewrite_entry(p, lambda a: a.update(fields=np.array("[]"))),
    "fields-not-text": lambda p: _rewrite_entry(p, lambda a: a.update(fields=np.arange(3.0))),
    "bad-hyperparams": lambda p: _rewrite_entry(p, _edit_fields(
        lambda f: f["hyperparams"].update(gamma=2.0))),
}


class TestCheckpointCache:
    @pytest.fixture
    def saved(self, tmp_path):
        topics = synth_topics(2, 30, 0.3, 8.0, seed=0)
        hyper = Hyperparams(total_timesteps=400, n_steps=10, n_envs=4, minibatch_size=40, seed=0,
                            max_grad_norm=0.5)
        ckpt, _ = train(topics, 1, hyper, n_batches=6)  # an int target stays an int
        path = tmp_path / "policy.json"
        save_checkpoint(ckpt, path)
        return path

    @staticmethod
    def uncached(path, monkeypatch):
        with monkeypatch.context() as m:
            m.setenv("TARSTOP_CACHE_DIR", "")
            return load_checkpoint(path)

    def test_hit_equals_the_json_load(self, saved, monkeypatch):
        parses = []
        monkeypatch.setattr(json, "load", lambda fh, _load=json.load: parses.append(1) or _load(fh))
        miss = load_checkpoint(saved)
        entry = entry_path(CHECKPOINTS, [saved])
        hit = read_entry(entry, CHECKPOINTS)
        assert parses == [1] and hit is not None
        assert type(hit.target_recall) is int and hit.hyper.max_grad_norm == 0.5
        again = load_checkpoint(saved)
        assert parses == [1]  # served from the entry
        parsed = self.uncached(saved, monkeypatch)
        assert parses == [1, 1]
        assert all(_same_checkpoint(c, parsed) for c in (miss, hit, again))

    @pytest.mark.parametrize("damage", sorted(ENTRY_DAMAGE))
    def test_damaged_entry_is_a_miss_and_rewritten(self, saved, topic_cache_dir, monkeypatch,
                                                   damage):
        load_checkpoint(saved)
        entry = entry_path(CHECKPOINTS, [saved])
        ENTRY_DAMAGE[damage](entry)
        assert read_entry(entry, CHECKPOINTS) is None
        assert _same_checkpoint(load_checkpoint(saved), self.uncached(saved, monkeypatch))
        assert _same_checkpoint(read_entry(entry, CHECKPOINTS), self.uncached(saved, monkeypatch))
        assert [p.name for p in topic_cache_dir.iterdir()] == [entry.name]  # no temp file left

    def test_malformed_checkpoint_is_never_stored(self, saved, topic_cache_dir):
        saved.write_text(saved.read_text().replace('"gamma": 0.99', '"gamma": 2.0'))
        for _ in range(2):
            with pytest.raises(ConfigError, match="policy.json: hyperparams gamma must be in"):
                load_checkpoint(saved)
        assert list(topic_cache_dir.iterdir()) == []

    def test_file_rewritten_while_loading_files_no_entry_under_the_old_bytes(self, saved,
                                                                              monkeypatch):
        first = saved.read_bytes()
        data = json.loads(first)
        data["hyperparams"]["seed"] = 1
        second = (json.dumps(data, sort_keys=True) + "\n").encode()
        original = cache.entry_path

        def rewrite_after_hashing(kind, sources):
            path = original(kind, sources)
            saved.write_bytes(second)  # e.g. ``train`` overwriting the checkpoint
            return path

        monkeypatch.setattr(cache, "entry_path", rewrite_after_hashing)
        loaded = load_checkpoint(saved)
        monkeypatch.setattr(cache, "entry_path", original)
        assert loaded.hyper.seed == 0
        assert read_entry(entry_path(CHECKPOINTS, [first]), CHECKPOINTS).hyper.seed == 0
        assert read_entry(entry_path(CHECKPOINTS, [second]), CHECKPOINTS) is None
        assert load_checkpoint(saved).hyper.seed == 1

    def test_same_bytes_at_another_path_hit(self, saved, tmp_path, monkeypatch):
        load_checkpoint(saved)
        copy = tmp_path / "elsewhere.json"
        copy.write_bytes(saved.read_bytes())
        monkeypatch.setattr(json, "load", None)  # a parse would fail
        assert _same_checkpoint(load_checkpoint(copy), load_checkpoint(saved))
