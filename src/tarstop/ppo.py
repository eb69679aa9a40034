"""Clipped-surrogate policy-gradient training for the stopping agent.

The loop is the standard one: collect fixed-horizon rollouts from a set of
parallel environments, estimate advantages with GAE, then run several
epochs of clipped-ratio updates over shuffled minibatches. Everything is
driven by explicitly seeded generators so identical configs give
bit-identical checkpoints and logs.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .cache import Kind, cached
from .corpus import Batches, Collection, check_seed, check_target
from .env import CONTINUE, NORMALIZE_MODES, STOP, VecStoppingEnv, observation_table, observe
from .errors import ConfigError
from .metrics import StopResult, write_table
from .nets import (
    ACTIVATION,
    HIDDEN_SIZES,
    INIT_SCHEME,
    AdamState,
    MlpParams,
    adam_init,
    adam_step,
    backward,
    chosen_and_entropy,
    clip_grads,
    forward,
    init_params,
    joint_params,
    log_softmax,
    params_from_flat,
    params_to_jsonable,
    softmax,
)

CHECKPOINT_VERSION = 1
POLICY_METHOD = "policy"


class NonFiniteLossError(RuntimeError):
    """Training aborted on a non-finite loss; message carries diagnostics."""


@dataclass(frozen=True)
class Hyperparams:
    total_timesteps: int = 100_000
    n_steps: int = 100
    minibatch_size: int = 100
    learning_rate: float = 1e-4
    n_epochs: int = 8
    entropy_coef: float = 0.1
    gamma: float = 0.99
    clip_range: float = 0.2
    gae_lambda: float = 0.95
    value_coef: float = 0.5
    n_envs: int = 8
    seed: int = 0
    max_grad_norm: float | None = None

    def validate(self) -> None:
        """Each field a finite number of its annotated type (no bools), in range."""
        for field in fields(self):  # field.type is the annotation's text: "int", ...
            value = getattr(self, field.name)
            if value is None and field.type == "float | None":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                problem = "must be a number"
            elif field.type == "int" and not isinstance(value, int):
                problem = "must be an integer"
            elif not abs(value) <= sys.float_info.max:  # nan, inf, or an int past any float
                problem = "must be finite"
            else:
                continue
            raise ConfigError(f"key {field.name!r} {problem}, got {value!r}")
        check_seed(self.seed)
        for name in ("total_timesteps", "n_steps", "minibatch_size", "n_epochs", "n_envs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("learning_rate", "entropy_coef", "value_coef"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.clip_range < 1.0:
            raise ConfigError(f"clip_range must be in (0, 1), got {self.clip_range}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 < self.gae_lambda <= 1.0:
            raise ConfigError(f"gae_lambda must be in (0, 1], got {self.gae_lambda}")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ConfigError(f"max_grad_norm must be positive, got {self.max_grad_norm}")


class Rollout(NamedTuple):
    """Fixed-horizon trajectories, time-major over (n_steps, n_envs)."""

    obs: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray
    bootstrap_values: np.ndarray


class LossStats(NamedTuple):
    """A minibatch's loss terms and diagnostics, or their mean over an update."""

    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float


class LogRow(NamedTuple):
    """One training iteration's line of the training log; the fields are its columns."""

    iteration: int
    timesteps: int
    mean_ep_reward: float
    mean_stop_batch: float
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float


def collect_rollout(
    actor: MlpParams,
    critic: MlpParams,
    venv: VecStoppingEnv,
    n_steps: int,
    rng: np.random.Generator,
) -> tuple[Rollout, list[dict]]:
    """Roll the current policy for ``n_steps`` across all slots.

    Actions are sampled from the actor's softmax; finished episodes are
    reported in the returned info records while their slots restart
    mid-rollout.
    """
    n_envs = venv.n_envs
    obs = venv.current_obs()
    buf_obs = np.zeros((n_steps, n_envs, venv.n_batches))
    buf_actions = np.zeros((n_steps, n_envs), dtype=np.int64)
    buf_logp = np.zeros((n_steps, n_envs))
    buf_rewards = np.zeros((n_steps, n_envs))
    buf_values = np.zeros((n_steps, n_envs))
    buf_dones = np.zeros((n_steps, n_envs), dtype=bool)
    episodes: list[dict] = []
    for t in range(n_steps):
        logits, _ = forward(actor, obs)
        values, _ = forward(critic, obs)
        lp = log_softmax(logits)
        actions = np.where(rng.random(n_envs) < np.exp(lp[:, STOP]), STOP, CONTINUE)
        buf_obs[t] = obs
        buf_actions[t] = actions
        buf_logp[t] = lp[np.arange(n_envs), actions]
        buf_values[t] = values[:, 0]
        obs, rewards, dones, infos = venv.step(actions)
        buf_rewards[t] = rewards
        buf_dones[t] = dones
        episodes.extend(infos)
    bootstrap, _ = forward(critic, obs)
    return Rollout(buf_obs, buf_actions, buf_logp, buf_rewards, buf_values, buf_dones,
                   bootstrap[:, 0]), episodes


def compute_gae(rollout: Rollout, gamma: float, gae_lambda: float) -> np.ndarray:
    """The rollout's advantages by truncated GAE, shaped like its rewards.

    The recursion stops at episode boundaries; episodes still open at the
    end of the rollout bootstrap with the critic value of the post-rollout
    state.
    """
    advantages = np.zeros_like(rollout.rewards)
    next_values, carry = rollout.bootstrap_values, np.zeros_like(rollout.bootstrap_values)
    for t in reversed(range(len(rollout.rewards))):
        nonterminal = 1.0 - rollout.dones[t]
        delta = rollout.rewards[t] + gamma * next_values * nonterminal - rollout.values[t]
        carry = delta + gamma * gae_lambda * nonterminal * carry
        advantages[t] = carry
        next_values = rollout.values[t]
    return advantages


def ppo_loss(
    actor: MlpParams,
    critic: MlpParams,
    obs: np.ndarray,
    actions: np.ndarray,
    log_probs_old: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    hyper: Hyperparams,
) -> tuple[float, LossStats, np.ndarray]:
    """Clipped-surrogate loss on one minibatch of rows (advantages already normalized).

    Returns ``(loss, stats, grads)``: ``grads`` holds the exact gradient for
    the actor's ``flat`` followed by the critic's, in one vector.
    """
    logits, actor_cache = forward(actor, obs)
    values_2d, critic_cache = forward(critic, obs)
    values = values_2d[:, 0]
    lp_all = log_softmax(logits)
    logp, entropy = chosen_and_entropy(lp_all, actions)
    log_ratio = logp - log_probs_old
    ratio = np.exp(log_ratio)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - hyper.clip_range, 1.0 + hyper.clip_range) * advantages
    policy_loss = -np.minimum(unclipped, clipped).mean()
    value_err = values - returns
    value_loss = float(np.mean(value_err**2))
    entropy_mean = float(entropy.mean())
    loss = float(policy_loss + hyper.value_coef * value_loss - hyper.entropy_coef * entropy_mean)
    stats = LossStats(float(policy_loss), value_loss, entropy_mean,
                      float(np.mean(np.abs(ratio - 1.0) > hyper.clip_range)),
                      float(np.mean(ratio - 1.0 - log_ratio)))
    n = len(advantages)
    # The clipped branch has zero gradient wherever it is the strict minimum.
    active = unclipped <= clipped
    d_logp = np.where(active, ratio * advantages, 0.0) * (-1.0 / n)
    probs = softmax(logits)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), actions] = 1.0
    d_logits = d_logp[:, None] * (one_hot - probs)
    d_entropy = -probs * (lp_all + entropy[:, None])
    d_logits += (-hyper.entropy_coef / n) * d_entropy
    d_values = (2.0 * hyper.value_coef / n) * value_err
    grads = np.empty(actor.flat.size + critic.flat.size)
    backward(actor, actor_cache, d_logits, out=grads[: actor.flat.size])
    backward(critic, critic_cache, d_values[:, None], out=grads[actor.flat.size :])
    return loss, stats, grads


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    return (adv - adv.mean()) / max(float(adv.std()), 1e-8)


def ppo_update(
    actor: MlpParams,
    critic: MlpParams,
    params: np.ndarray,
    opt: AdamState,
    rollout: Rollout,
    advantages: np.ndarray,
    hyper: Hyperparams,
    rng: np.random.Generator,
) -> LossStats:
    """Run ``n_epochs`` of shuffled minibatch updates over one rollout and
    its :func:`compute_gae` advantages; the stats are the minibatches' mean.

    ``params`` is the one vector that ``actor`` and ``critic`` view, as
    made by :func:`joint_params`; ``opt`` is its Adam state.
    """
    n = advantages.size
    flat = (
        rollout.obs.reshape(n, -1),
        rollout.actions.reshape(n),
        rollout.log_probs.reshape(n),
        advantages.reshape(n),
        (advantages + rollout.values).reshape(n),  # the returns
    )
    starts = range(0, n, hyper.minibatch_size)
    totals = np.zeros(len(LossStats._fields))
    for _ in range(hyper.n_epochs):
        # one gather per epoch; each minibatch is then a contiguous slice
        perm = rng.permutation(n)
        obs, actions, log_probs, adv, returns = (a[perm] for a in flat)
        for start in starts:
            mb = slice(start, start + hyper.minibatch_size)
            loss, stats, grads = ppo_loss(actor, critic, obs[mb], actions[mb], log_probs[mb],
                                          normalize_advantages(adv[mb]), returns[mb], hyper)
            if not np.isfinite(loss):
                raise NonFiniteLossError(f"non-finite loss {loss} during update: {stats}")
            if hyper.max_grad_norm is not None:
                clip_grads(grads, hyper.max_grad_norm)
            adam_step(params, grads, opt, hyper.learning_rate)
            totals += stats
    return LossStats(*(totals / (hyper.n_epochs * len(starts))).tolist())


@dataclass
class Checkpoint:
    """A trained policy plus everything needed to rerun it."""

    actor: MlpParams
    critic: MlpParams
    target_recall: float
    n_batches: int
    normalize_obs: str
    hyper: Hyperparams


def train(
    topics: Collection,
    target_recall: float,
    hyper: Hyperparams = Hyperparams(),
    n_batches: int = 100,
    normalize: str = "ratio",
) -> tuple[Checkpoint, list[LogRow]]:
    """Train one stopping policy for one target recall.

    Consumes ``total_timesteps // (n_steps * n_envs)`` full iterations of
    collect / estimate / update and returns the checkpoint plus one log row
    per iteration.
    """
    hyper.validate()
    if not topics:
        raise ConfigError("no training topics")
    pool = topics.batched(n_batches)
    seeds = np.random.SeedSequence(hyper.seed).spawn(5)
    venv = VecStoppingEnv(pool, target_recall, hyper.n_envs, seeds[0], normalize)
    params, (actor, critic) = joint_params(
        init_params(np.random.default_rng(seeds[1]), (n_batches, *HIDDEN_SIZES, 2), out_gain=0.01),
        init_params(np.random.default_rng(seeds[2]), (n_batches, *HIDDEN_SIZES, 1), out_gain=1.0),
    )
    opt = adam_init(params)
    action_rng = np.random.default_rng(seeds[3])
    shuffle_rng = np.random.default_rng(seeds[4])
    per_iteration = hyper.n_steps * hyper.n_envs
    iterations = hyper.total_timesteps // per_iteration
    if iterations < 1:
        raise ConfigError(
            f"total_timesteps {hyper.total_timesteps} is less than one rollout "
            f"({hyper.n_steps} steps x {hyper.n_envs} envs)"
        )
    rows: list[LogRow] = []
    for iteration in range(1, iterations + 1):
        rollout, episodes = collect_rollout(actor, critic, venv, hyper.n_steps, action_rng)
        advantages = compute_gae(rollout, hyper.gamma, hyper.gae_lambda)
        stats = ppo_update(actor, critic, params, opt, rollout, advantages, hyper, shuffle_rng)
        rewards = [e["episode_reward"] for e in episodes]
        stops = [e["stop_batch"] for e in episodes]
        rows.append(LogRow(iteration, iteration * per_iteration,
                           float(np.mean(rewards)) if rewards else float("nan"),
                           float(np.mean(stops)) if stops else float("nan"), *stats))
    checkpoint = Checkpoint(actor, critic, target_recall, n_batches, normalize, hyper)
    return checkpoint, rows


def infer_stop(
    checkpoint: Checkpoint,
    topics: Batches,
    mode: str = "greedy",
    rng=None,
) -> list[StopResult]:
    """Run the trained policy over every topic and report where each stopped.

    All topics advance together: each step is one forward pass over the
    topics still reading, whose rows ``env.observe`` builds once, as in
    training; all have examined as many batches, so a step reveals one column.
    The policy sees only the examined prefix, never the target batch or
    unexamined labels. Greedy mode takes the argmax action, STOP winning
    exact ties; sample mode draws one uniform per live topic per step.
    """
    if topics.n_batches != checkpoint.n_batches:
        raise ConfigError(
            f"checkpoint expects {checkpoint.n_batches} batches, the topics are cut into {topics.n_batches}"
        )
    if mode not in ("greedy", "sample"):
        raise ConfigError(f"mode must be 'greedy' or 'sample', got {mode!r}")
    if mode == "sample" and not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    table = observation_table(topics, checkpoint.normalize_obs)
    examined = np.full(len(topics), checkpoint.n_batches)  # until a topic stops earlier
    live = np.arange(len(topics))
    obs = observe(table, live, np.ones_like(live))
    step = 1  # batches examined by every live topic
    while live.size:
        logits, _ = forward(checkpoint.actor, obs)
        if mode == "greedy":
            stop = logits.argmax(axis=1) == STOP
        else:
            stop = rng.random(live.size) < softmax(logits)[:, STOP]
        if step == checkpoint.n_batches:
            break
        if stop.any():
            examined[live[stop]] = step
            live, obs = live[~stop], obs[~stop]
        obs[:, step] = table[live, step]
        step += 1
    last = (np.arange(len(topics)), examined - 1)  # each topic's last batch read
    docs, found = np.cumsum(topics.sizes, axis=1)[last].tolist(), topics.cum_rel[last].tolist()
    return list(map(StopResult, topics.collection.topic_ids, repeat(POLICY_METHOD),
                    repeat(checkpoint.target_recall), docs, found, examined.tolist()))


def _payload(checkpoint: Checkpoint) -> dict:
    """A checkpoint's JSON object, less the networks' weights."""
    return {
        "format_version": CHECKPOINT_VERSION,
        "kind": "tarstop-checkpoint",
        "target_recall": checkpoint.target_recall,
        "n_batches": checkpoint.n_batches,
        "normalize_obs": checkpoint.normalize_obs,
        "architecture": {
            "actor_sizes": list(checkpoint.actor.sizes),
            "critic_sizes": list(checkpoint.critic.sizes),
            "activation": ACTIVATION,
            "init": INIT_SCHEME,
        },
        "hyperparams": asdict(checkpoint.hyper),
    }


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Write the checkpoint as versioned JSON; floats round-trip bit-exactly."""
    payload = {**_payload(checkpoint), "actor": params_to_jsonable(checkpoint.actor),
               "critic": params_to_jsonable(checkpoint.critic)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``, parsed or from the input cache (:mod:`tarstop.cache`)."""
    with open(path, "rb") as fh:
        raw = fh.read()  # the key hashes these bytes and a miss parses them

    def parse():
        try:  # decoded as open(path, encoding="utf-8") would
            data = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
        return _checked(path, data, lambda network: MlpParams(network["weights"], network["biases"]))

    return cached(CHECKPOINTS, (raw,), parse)[0]


def _checked(path, data, network) -> Checkpoint:
    """Checkpoint JSON ``data``, its networks made by ``network``, checked; errors name ``path``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(data).__name__}")
    if data.get("kind") != "tarstop-checkpoint":
        raise ConfigError(f"{path}: not a tarstop checkpoint")
    if data.get("format_version") != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {data.get('format_version')}")
    try:
        networks = {name: data[name] for name in ("actor", "critic")}
        hyper = data["hyperparams"]
        target_recall, n_batches = data["target_recall"], data["n_batches"]
        normalize_obs = data["normalize_obs"]
    except KeyError as exc:
        raise ConfigError(f"{path}: checkpoint is missing key {exc.args[0]!r}") from None
    if isinstance(n_batches, bool) or not isinstance(n_batches, int):
        raise ConfigError(f"{path}: n_batches must be an integer, got {n_batches!r}")
    if isinstance(target_recall, bool) or not isinstance(target_recall, (int, float)):
        raise ConfigError(f"{path}: target_recall must be a number, got {target_recall!r}")
    check_target(target_recall, f"{path}: target_recall")
    if normalize_obs not in NORMALIZE_MODES:
        raise ConfigError(
            f"{path}: normalize_obs must be one of {NORMALIZE_MODES}, got {normalize_obs!r}"
        )
    if not isinstance(hyper, dict):
        raise ConfigError(f"{path}: hyperparams must be a JSON object")
    actor = _load_network(path, "actor", network, networks["actor"], n_batches, 2)
    critic = _load_network(path, "critic", network, networks["critic"], n_batches, 1)
    for key in hyper:
        if key not in Hyperparams.__dataclass_fields__:
            raise ConfigError(f"{path}: unknown hyperparams key {key!r}")
    hyperparams = Hyperparams(**hyper)
    try:
        hyperparams.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: hyperparams {exc}") from None
    return Checkpoint(
        actor=actor,
        critic=critic,
        target_recall=target_recall,
        n_batches=n_batches,
        normalize_obs=normalize_obs,
        hyper=hyperparams,
    )


def _load_network(path, name: str, network, value, n_batches: int, n_out: int) -> MlpParams:
    """``network(value)``, checked to be finite, chained and ``n_batches -> n_out``."""
    try:
        params = network(value)  # the MlpParams constructor checks that the layers chain
    except KeyError as exc:
        raise ConfigError(f"{path}: {name} is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: a JSON int past any float
        raise ConfigError(f"{path}: {name} weights and biases are malformed: {exc}") from None
    if not np.isfinite(params.flat).all():
        raise ConfigError(f"{path}: {name} has non-finite weights")
    # inference sizes its observations from n_batches, so the networks must agree
    sizes = params.sizes
    if (sizes[0], sizes[-1]) != (n_batches, n_out):
        raise ConfigError(
            f"{path}: {name} maps {sizes[0]} inputs to {sizes[-1]} outputs, "
            f"expected {n_batches} (n_batches) to {n_out}"
        )
    return params


def _checkpoint_entry(checkpoint: Checkpoint) -> dict[str, np.ndarray]:
    fields = np.array(json.dumps(_payload(checkpoint)))
    return {"actor": checkpoint.actor.flat, "critic": checkpoint.critic.flat, "fields": fields}


def _checkpoint_from_entry(arrays: dict[str, np.ndarray]) -> Checkpoint:
    fields = arrays["fields"]
    if fields.shape != () or fields.dtype.kind != "U":
        raise ValueError("checkpoint entry fields are not one text")
    data = json.loads(fields.item())
    try:
        sizes = {name: data["architecture"][f"{name}_sizes"] for name in ("actor", "critic")}
    except (KeyError, TypeError):
        raise ValueError("checkpoint entry fields lack the layer sizes") from None
    data.update({name: (arrays[name], sizes[name]) for name in sizes})
    return _checked("cache entry", data, lambda network: params_from_flat(*network))


# A cached checkpoint: each network's ``flat`` buffer, and the rest as its
# JSON text, so a hit goes through the same checks as a parse.
CHECKPOINTS = Kind(b"tarstop-checkpoint-v1", ("actor", "critic", "fields"),
                   _checkpoint_entry, _checkpoint_from_entry)


def write_training_log(path, rows: list[LogRow]) -> None:
    write_table(path, LogRow._fields, rows)
