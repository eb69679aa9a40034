"""Sequential batch-review decision process for recall-targeted stopping.

An episode walks a batched ranking starting with the first batch already
examined. The observation has one slot per batch: examined slots hold that
batch's relevant-document ratio (or raw count), unexamined slots hold a -1
sentinel. STOP ends the episode; CONTINUE reveals the next batch; at the
last batch every action terminates. Per-state rewards are positive up to
the target batch and negative beyond it, so the episode return is largest
when the agent stops where the target recall is reached.

Training and inference build observations the same way: a precomputed
``(n_topics, B)`` table of what each batch reveals (:func:`observation_table`,
from a collection's ``corpus.Batches``) plus, per episode, a topic index and
the number of batches examined (:func:`observe`). Training steps a fixed set of such episodes
(:class:`VecStoppingEnv`); inference advances every topic of a collection
at once (``ppo.infer_stop``). An ended episode is an :data:`EPISODE` record;
its reward is one lookup in its topic's running sum of state rewards.
"""

from __future__ import annotations

import numpy as np

from .corpus import Batches
from .errors import ConfigError
from .nets import DTYPE

STOP = 0
CONTINUE = 1

OBS_SENTINEL = -1.0

NORMALIZE_MODES = ("ratio", "count")

# an ended episode: its topic's index in the pool, its stop batch and its reward
EPISODE = np.dtype([("topic", np.int64), ("stop_batch", np.int64), ("episode_reward", np.float64)])


def reward(batches_examined, target, n_batches):
    """Reward of the state where ``batches_examined`` batches have been read.

    Decreases linearly from just under 1 to 0 at the target batch, then from
    0 to -1 at the last batch. Scalars give a float; arrays broadcast and
    give an array.
    """
    i, t, b = np.asarray(batches_examined), np.asarray(target), np.asarray(n_batches)
    if np.any((i < 1) | (i > b)):
        raise ValueError(f"batches examined {i} outside [1, {b}]")
    if np.any((t < 1) | (t > b)):
        raise ValueError(f"target batch {t} outside [1, {b}]")
    # past-target branch only applies where t < b; the floor keeps t == b finite
    r = np.where(i <= t, 1.0 - i / t, (t - i) / np.maximum(b - t, 1))
    return float(r) if r.ndim == 0 else r


def observation_table(pool: Batches, normalize: str) -> np.ndarray:
    """``(n_topics, B)`` matrix of what each batch reveals once examined,
    in the networks' ``nets.DTYPE``.

    Every observation a network sees is built from such a table, so this is
    where a non-finite value is rejected, once per table rather than once
    per forward pass. The ratios are computed in float64 and rounded once.
    """
    if normalize not in NORMALIZE_MODES:
        raise ConfigError(f"normalize must be one of {NORMALIZE_MODES}, got {normalize!r}")
    table = pool.batch_rel.astype(np.float64)
    if normalize == "ratio":  # an empty batch reveals 0
        table /= np.maximum(pool.sizes, 1)
    if not np.isfinite(table).all():
        raise ValueError("non-finite values in observation table")
    return table.astype(DTYPE)


def observe(table: np.ndarray, topic_idx: np.ndarray, examined: np.ndarray) -> np.ndarray:
    """One observation row per episode: the first ``examined`` batches of
    topic ``topic_idx`` revealed, the rest at the sentinel."""
    revealed = np.arange(table.shape[1]) < examined[:, None]
    return np.where(revealed, table[topic_idx], OBS_SENTINEL)


class VecStoppingEnv:
    """A fixed number of stopping episodes running over a topic pool.

    The state is two arrays over the slots: the topic each one reads and
    how many batches it has examined. A finished slot immediately restarts
    on a topic drawn uniformly from the pool (one shared, explicitly seeded
    generator, slots resampled in index order), so every step returns a
    full set of live observations. The done flags mark episode boundaries
    for advantage masking; ``target_batch`` holds each topic's target batch.
    """

    def __init__(
        self,
        pool: Batches,
        target_recall: float,
        n_envs: int,
        seed,
        normalize: str = "ratio",
    ):
        if not pool:
            raise ConfigError("topic pool is empty")
        if n_envs < 1:
            raise ConfigError(f"n_envs must be >= 1, got {n_envs}")
        self.table = observation_table(pool, normalize)
        self.n_batches = pool.n_batches
        self.target_batch = pool.target_batch(target_recall)
        # reward of every (topic, batches examined) state, row per topic, and its running sum
        self.rewards = reward(np.arange(1, self.n_batches + 1), self.target_batch[:, None],
                              self.n_batches)
        self.reward_sums = np.cumsum(self.rewards, axis=1)
        self.n_envs = n_envs
        self.rng = np.random.default_rng(seed)
        self.topic_idx = np.array([self._draw() for _ in range(n_envs)])
        self.examined = np.ones(n_envs, dtype=np.int64)

    def _draw(self) -> int:
        # one scalar draw per slot keeps the generator stream, and so every
        # checkpoint, independent of how many slots finish together
        return int(self.rng.integers(len(self.table)))

    def current_obs(self) -> np.ndarray:
        return observe(self.table, self.topic_idx, self.examined)

    def step(self, actions) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Step every slot; finished slots restart on a new topic.

        The reward credited belongs to the state acted in; an episode
        stopping after s batches earns the running sum of the first s state
        rewards. Returns (observations, rewards, dones, ended) where
        observations for finished slots already belong to the fresh episode
        and ``ended`` holds one :data:`EPISODE` record per finished slot.
        """
        actions = np.asarray(actions)
        if actions.shape != (self.n_envs,):
            raise ValueError(f"expected {self.n_envs} actions, got shape {actions.shape}")
        stops = actions == STOP
        if not (stops | (actions == CONTINUE)).all():
            raise ValueError(f"actions must be STOP (0) or CONTINUE (1), got {actions.tolist()}")
        rewards = self.rewards[self.topic_idx, self.examined - 1]
        dones = stops | (self.examined == self.n_batches)
        slots = np.flatnonzero(dones)
        ended = np.empty(len(slots), EPISODE)
        ended["topic"], ended["stop_batch"] = self.topic_idx[slots], self.examined[slots]
        ended["episode_reward"] = self.reward_sums[ended["topic"], ended["stop_batch"] - 1]
        for k in slots:
            self.topic_idx[k] = self._draw()
        self.examined = np.where(dones, 1, self.examined + 1)
        return self.current_obs(), rewards, dones, ended
