import numpy as np
import pytest

from conftest import make_collection, make_topic
from tarstop.env import CONTINUE, STOP, VecStoppingEnv, observation_table, observe, reward
from tarstop.errors import ConfigError


def best_stop_batch(n_batches, target):
    """Brute-force maximiser of the cumulative episode reward.

    The reward at the target batch is 0, so stopping there ties with
    stopping one earlier; the optimum takes the latest maximiser.
    """
    sums = np.cumsum([reward(i, target, n_batches) for i in range(1, n_batches + 1)])
    return int(np.flatnonzero(sums == sums.max())[-1]) + 1


class TestReward:
    def test_zero_at_target(self):
        for n, t in [(4, 2), (100, 50), (7, 7)]:
            assert reward(t, t, n) == 0.0

    def test_minus_one_at_final_batch(self):
        assert reward(100, 50, 100) == -1.0
        assert reward(4, 1, 4) == -1.0

    def test_linear_values(self):
        assert abs(reward(25, 50, 100) - 0.5) < 1e-12
        assert abs(reward(75, 50, 100) + 0.5) < 1e-12

    def test_sign_matches_position(self):
        for i in range(1, 11):
            r = reward(i, 6, 10)
            assert (r >= 0) == (i <= 6)

    def test_strictly_decreasing(self):
        values = [reward(i, 6, 10) for i in range(1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_arrays_match_scalars(self):
        examined = np.arange(1, 11)
        targets = np.array([6, 6, 1, 10, 3, 3, 7, 10, 2, 9])
        values = reward(examined, targets, 10)
        assert values.tolist() == [reward(int(i), int(t), 10) for i, t in zip(examined, targets)]

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            reward(0, 2, 4)
        with pytest.raises(ValueError):
            reward(5, 2, 4)
        with pytest.raises(ValueError):
            reward(1, 0, 4)
        with pytest.raises(ValueError):
            reward(1, 5, 4)
        with pytest.raises(ValueError):
            reward(np.array([1, 5]), np.array([2, 2]), 4)
        with pytest.raises(ValueError):
            reward(np.array([1, 2]), np.array([2, 0]), 4)


def four_batch_topic(first_batch_relevant=2):
    labels = [0] * 8
    for i in range(first_batch_relevant):
        labels[i] = 1
    labels[-1] = 1  # keeps the target definable
    return make_topic(labels).batched(4)


def one_topic_env(bt, target_recall, normalize="ratio"):
    """A single slot over a one-topic pool: every episode reads ``bt``."""
    return VecStoppingEnv(bt, target_recall, n_envs=1, seed=0, normalize=normalize)


def run_episode(env, stop_at):
    """Step slot 0 until it finishes, stopping once ``stop_at`` batches are read."""
    total, done = 0.0, False
    while not done:
        action = STOP if env.examined[0] >= stop_at else CONTINUE
        _, r, dones, infos = env.step([action])
        total += r[0]
        done = dones[0]
    return total, infos[0]


class TestStoppingEnv:
    # the test_reset_* cases check an episode's start: every slot begins with one batch read

    def test_reset_reveals_only_first_batch(self):
        env = one_topic_env(four_batch_topic(2), 1.0)
        assert env.current_obs().tolist() == [[1.0, -1.0, -1.0, -1.0]]

    def test_reset_with_empty_first_batch(self):
        env = one_topic_env(four_batch_topic(0), 1.0)
        assert env.current_obs().tolist() == [[0.0, -1.0, -1.0, -1.0]]

    def test_reset_is_deterministic(self):
        env = one_topic_env(four_batch_topic(1), 1.0)
        assert np.array_equal(env.current_obs(), env.current_obs())
        assert np.array_equal(env.current_obs(), one_topic_env(four_batch_topic(1), 1.0).current_obs())

    def test_count_mode_shows_raw_counts(self):
        env = one_topic_env(four_batch_topic(2), 1.0, normalize="count")
        assert env.current_obs().tolist() == [[2.0, -1.0, -1.0, -1.0]]

    @pytest.mark.parametrize("normalize", ["ratio", "count"])
    def test_empty_batch_observes_zero(self, normalize):
        # 3 documents in 5 batches: batches 4 and 5 hold none
        bt = make_topic([0, 1, 1]).batched(5)
        assert bt.sizes.tolist() == [[1, 1, 1, 0, 0]]
        table = observation_table(bt, normalize)
        assert table.tolist() == [[0.0, 1.0, 1.0, 0.0, 0.0]]
        assert observe(table, np.array([0]), np.array([4])).tolist() == [[0.0, 1.0, 1.0, 0.0, -1.0]]

    def test_bad_normalize_mode(self):
        with pytest.raises(ConfigError):
            one_topic_env(four_batch_topic(), 1.0, normalize="z-score")
        with pytest.raises(ConfigError):
            observation_table(four_batch_topic(), "z-score")

    def test_continue_credits_current_state(self):
        # T=2 with B=4: relevant in batches 1 and 2 only, target 1.0
        bt = make_topic([1, 0, 0, 1, 0, 0, 0, 0]).batched(4)
        env = one_topic_env(bt, 1.0)
        assert bt.target_batch(1.0).tolist() == [2]
        obs, r, done, _ = env.step([CONTINUE])
        assert r[0] == 0.5  # reward of the state acted in, 1 - 1/2
        assert not done[0]
        assert env.examined[0] == 2
        assert obs[0].tolist()[:2] == [0.5, 0.5]

    def test_stop_ends_episode_and_keeps_observation(self):
        env = one_topic_env(four_batch_topic(1), 1.0)
        env.step([CONTINUE])
        before = env.step([CONTINUE])[0]
        obs, r, done, infos = env.step([STOP])
        assert done[0]
        assert r[0] == reward(3, four_batch_topic(1).target_batch(1.0)[0], 4)
        assert infos[0]["stop_batch"] == 3
        # STOP reveals nothing: the stop point reproduces the observation acted on
        assert np.array_equal(observe(env.table, np.array([0]), np.array([3])), before)
        # the finished slot's returned observation already belongs to a fresh episode
        assert np.array_equal(obs, one_topic_env(four_batch_topic(1), 1.0).current_obs())

    def test_any_action_terminates_at_last_batch(self):
        env = one_topic_env(four_batch_topic(1), 1.0)
        for _ in range(3):
            _, _, done, _ = env.step([CONTINUE])
            assert not done[0]
        assert env.examined[0] == 4
        _, r, done, infos = env.step([CONTINUE])
        assert done[0]  # CONTINUE at the final batch still ends the episode
        assert r[0] == reward(4, four_batch_topic(1).target_batch(1.0)[0], 4)
        assert infos[0]["stop_batch"] == 4

    def test_invalid_action(self):
        env = one_topic_env(four_batch_topic(1), 1.0)
        with pytest.raises(ValueError):
            env.step([7])

    def test_episode_reward_closed_form_when_target_is_last_batch(self):
        # relevant only in the last batch: T = B, so running to the end
        # accrues sum over i of (1 - i/B) = (B - 1) / 2
        n_batches = 8
        labels = [0] * (n_batches - 1) + [1]
        env = one_topic_env(make_topic(labels).batched(n_batches), 1.0)
        total, info = run_episode(env, stop_at=n_batches + 1)
        assert abs(total - (n_batches - 1) / 2) < 1e-12
        assert abs(info["episode_reward"] - (n_batches - 1) / 2) < 1e-12

    def test_episode_reward_accounting_matches_direct_sum(self, rng):
        for _ in range(50):
            n_docs = int(rng.integers(4, 40))
            labels = (rng.random(n_docs) < 0.3).astype(int)
            if labels.sum() == 0:
                labels[int(rng.integers(n_docs))] = 1
            bt = make_topic(labels).batched(int(rng.integers(1, n_docs + 1)))
            env = one_topic_env(bt, 0.8)
            total, info = run_episode(env, stop_at=int(rng.integers(1, bt.n_batches + 1)))
            stop = info["stop_batch"]
            direct = sum(reward(i, bt.target_batch(0.8)[0], bt.n_batches) for i in range(1, stop + 1))
            assert abs(total - direct) < 1e-12
            assert abs(info["episode_reward"] - direct) < 1e-12

    def test_observation_prefix_property(self, rng):
        labels = (rng.random(60) < 0.4).astype(int)
        labels[0] = 1
        env = one_topic_env(make_topic(labels).batched(12), 1.0)
        obs = env.current_obs()[0]
        for k in range(1, 13):
            revealed = obs != -1.0
            assert int(revealed.sum()) == k
            assert revealed[:k].all()  # a prefix, no gaps
            obs, _, done, _ = env.step([CONTINUE])
            obs = obs[0]
        assert done[0]


class TestOptimalStopProperty:
    def test_brute_force_argmax_is_target_batch(self, rng):
        for _ in range(200):
            n_batches = int(rng.integers(1, 200))
            target = int(rng.integers(1, n_batches + 1))
            assert best_stop_batch(n_batches, target) == target


def small_pool(rng, n_topics=5, n_docs=30, n_batches=6):
    rankings = []
    for _ in range(n_topics):
        labels = (rng.random(n_docs) < 0.4).astype(int)
        if labels.sum() == 0:
            labels[0] = 1
        rankings.append(labels)
    return make_collection(*rankings).batched(n_batches)


class TestVecStoppingEnv:
    def test_all_stop_resets_every_slot(self, rng):
        venv = VecStoppingEnv(small_pool(rng), 0.9, n_envs=4, seed=0)
        obs, rewards, dones, infos = venv.step([STOP] * 4)
        assert dones.all()
        assert len(infos) == 4
        assert rewards.shape == (4,)
        # every returned observation is a fresh first-batch view
        assert ((obs != -1.0).sum(axis=1) == 1).all()

    def test_resampling_sequence_is_seeded(self, rng):
        pool = small_pool(rng, n_topics=8)
        seen = []
        for _ in range(2):
            venv = VecStoppingEnv(pool, 0.9, n_envs=3, seed=42)
            topics = venv.topic_idx.tolist()
            for _ in range(20):
                _, _, _, ended = venv.step([STOP] * 3)
                assert ended["topic"].tolist() == topics[-3:]
                topics.extend(venv.topic_idx.tolist())
            seen.append(topics)
        assert seen[0] == seen[1]
        # one scalar draw per slot, in slot order, from the seeded stream
        reference = np.random.default_rng(42)
        expected = [int(reference.integers(len(pool))) for _ in range(63)]
        assert seen[0] == expected

    def test_ended_episodes_match_a_per_slot_walk(self, rng):
        pool = small_pool(rng, n_topics=5, n_batches=6)
        n_envs, n_batches, targets = 4, pool.n_batches, pool.target_batch(0.9)
        venv = VecStoppingEnv(pool, 0.9, n_envs=n_envs, seed=11)
        draws = np.random.default_rng(11)  # the env's stream: one draw per slot, in slot order
        walks = [[int(draws.integers(len(pool))), 1, 0.0] for _ in range(n_envs)]
        actions_rng = np.random.default_rng(5)
        stop_kinds = set()
        for _ in range(300):
            actions = np.where(actions_rng.random(n_envs) < 0.3, STOP, CONTINUE)
            _, _, dones, ended = venv.step(actions)
            # perfbench's env.episodes counter reads this len as the count of ended episodes
            assert len(ended) == dones.sum()
            expected = []  # each slot's walk, in slot order: (topic, stop batch, reward)
            for k, walk in enumerate(walks):
                topic, examined, total = walk
                total += reward(examined, targets[topic], n_batches)  # the direct sum
                if actions[k] == STOP or examined == n_batches:
                    assert dones[k]
                    expected.append((topic, examined, total))
                    stop_kinds.add(examined == n_batches)
                    walk[:] = [int(draws.integers(len(pool))), 1, 0.0]
                else:
                    assert not dones[k]
                    walk[1:] = [examined + 1, total]
            assert ended["topic"].tolist() == [topic for topic, _, _ in expected]
            assert ended["stop_batch"].tolist() == [stop for _, stop, _ in expected]
            for record, (_, _, total) in zip(ended, expected):
                assert abs(record["episode_reward"] - total) < 1e-12
            assert venv.topic_idx.tolist() == [walk[0] for walk in walks]
        assert stop_kinds == {False, True}  # STOP and the last batch both ended episodes

    def test_single_env_matches_plain_stepping(self, rng):
        bt = small_pool(rng, n_topics=1)
        venv = VecStoppingEnv(bt, 0.9, n_envs=1, seed=0)
        target = bt.target_batch(0.9)[0]
        for examined in range(1, bt.n_batches):
            expected = [-1.0] * bt.n_batches
            for j in range(examined):  # the float64 ratio, rounded once to float32
                expected[j] = float(np.float32(bt.batch_rel[0, j] / bt.sizes[0, j]))
            assert venv.current_obs()[0].tolist() == expected
            _, r, done, _ = venv.step([CONTINUE])
            assert r[0] == reward(examined, target, bt.n_batches)
            assert not done[0]

    def test_episode_info_reports_stop_batch(self, rng):
        venv = VecStoppingEnv(small_pool(rng), 0.9, n_envs=2, seed=1)
        venv.step([CONTINUE, CONTINUE])
        _, _, dones, infos = venv.step([STOP, CONTINUE])
        assert dones[0]
        assert infos[0]["stop_batch"] == 2

    def test_action_count_mismatch(self, rng):
        venv = VecStoppingEnv(small_pool(rng), 0.9, n_envs=2, seed=0)
        with pytest.raises(ValueError, match="2 actions"):
            venv.step([STOP])

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            VecStoppingEnv(make_collection().batched(6), 0.9, n_envs=1, seed=0)
