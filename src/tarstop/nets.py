"""Tiny dense networks with hand-written gradients and Adam.

The policy and value heads are small enough (input -> 64 -> 64 -> out,
tanh hidden activations) that a tensor framework buys nothing here:
forward, backward and the optimizer fit in a page of numpy, run in float64
and stay bit-reproducible across runs.

Each network's parameters live in one contiguous float64 buffer,
``MlpParams.flat``: every weight matrix, then every bias vector, in layer
order. ``weights`` and ``biases`` are views into it, so writing through a
view changes ``flat`` and the reverse. Gradients use the same layout.
Training keeps the actor's and the critic's buffers end to end in one
vector (``joint_params``), so Adam and gradient clipping are single vector
operations over both networks at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HIDDEN_SIZES = (64, 64)
ACTIVATION = "tanh"
INIT_SCHEME = "orthogonal"


class MlpParams:
    """Per-layer weight matrices (in x out) and bias vectors over one buffer.

    The constructor copies its arguments into a new buffer; ``flat`` is that
    buffer and ``arrays()`` its views in buffer order.
    """

    def __init__(self, weights, biases):
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if not weights or len(weights) != len(biases):
            raise ValueError(f"{len(weights)} weight matrices for {len(biases)} bias vectors")
        if any(w.ndim != 2 for w in weights) or any(b.ndim != 1 for b in biases):
            raise ValueError("weights must be matrices and biases vectors")
        if any(a.shape[1] != b.shape[0] for a, b in zip(weights, weights[1:])) or any(
            b.shape != (w.shape[1],) for w, b in zip(weights, biases)
        ):
            raise ValueError(
                f"layer shapes do not chain: weights {[w.shape for w in weights]}, "
                f"biases {[b.shape for b in biases]}"
            )
        arrays = [*weights, *biases]
        layout, offset = [], 0
        for a in arrays:
            layout.append((offset, offset + a.size, a.shape))
            offset += a.size
        self._bind(np.empty(offset), tuple(layout))
        for view, a in zip(self.arrays(), arrays):
            view[...] = a

    def _bind(self, flat: np.ndarray, layout: tuple) -> None:
        # layout: one (start, stop, shape) per array of arrays(), in buffer order
        views = [flat[start:stop].reshape(shape) for start, stop, shape in layout]
        n_layers = len(layout) // 2
        self.flat = flat
        self.weights = views[:n_layers]
        self.biases = views[n_layers:]
        self._layout = layout

    @classmethod
    def over(cls, flat: np.ndarray, like: "MlpParams") -> "MlpParams":
        """Params viewing ``flat`` (not a copy) with the layer shapes of ``like``."""
        params = cls.__new__(cls)
        params._bind(flat, like._layout)
        return params

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))

    def arrays(self) -> list[np.ndarray]:
        return [*self.weights, *self.biases]


def joint_params(*nets: MlpParams) -> tuple[np.ndarray, list[MlpParams]]:
    """One new buffer holding each network's ``flat`` in turn, and each
    network re-made as a view into its slice of it."""
    flat = np.concatenate([net.flat for net in nets])
    bounds = np.cumsum([0, *(net.flat.size for net in nets)])
    return flat, [MlpParams.over(flat[a:b], net) for a, b, net in zip(bounds, bounds[1:], nets)]


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix QR sign ambiguity
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(gain * q)


def init_params(seed, sizes: tuple[int, ...], out_gain: float) -> MlpParams:
    """Orthogonal initialization: gain sqrt(2) on hidden layers, ``out_gain``
    on the output layer, zero biases. Deterministic per seed."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights, biases = [], []
    for k, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        gain = out_gain if k == len(sizes) - 2 else np.sqrt(2.0)
        weights.append(_orthogonal(rng, n_in, n_out, gain))
        biases.append(np.zeros(n_out))
    return MlpParams(weights, biases)


def forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Affine + tanh stack over the rows of ``x``, a 2-D float64 array;
    returns (output rows, cache of per-layer inputs).

    Inputs are not checked to be finite here: observations are, once, when
    ``env.observation_table`` builds them.
    """
    width = params.weights[0].shape[0]
    if x.shape[1:] != (width,):
        raise ValueError(f"input of shape {x.shape} does not fit network width {width}")
    h, cache = x, [x]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = h @ w
        h += b
        np.tanh(h, out=h)
        cache.append(h)
    out = h @ params.weights[-1]
    out += params.biases[-1]
    return out, cache


def backward(params: MlpParams, cache: list[np.ndarray], grad_out, out=None) -> MlpParams:
    """Exact gradients for the scalar loss whose output gradient is ``grad_out``,
    2-D float64 rows like :func:`forward`'s output.

    ``cache`` must come from a matching :func:`forward` call; gradients are
    summed over the batch dimension and written into ``out``, a flat buffer
    laid out like ``params.flat`` (a new one if not given).
    """
    g, n_layers = grad_out, len(params.weights)
    if len(cache) != n_layers:
        raise ValueError(f"cache has {len(cache)} entries for {n_layers} layers")
    if g.shape != (cache[-1].shape[0], params.weights[-1].shape[1]):
        raise ValueError(f"grad_out shape {g.shape} does not match network output")
    grads = MlpParams.over(np.empty_like(params.flat) if out is None else out, params)
    for k in reversed(range(n_layers)):
        np.matmul(cache[k].T, g, out=grads.weights[k])
        g.sum(axis=0, out=grads.biases[k])
        if k > 0:
            tanh_grad = np.square(cache[k])  # tanh' = 1 - tanh^2
            np.subtract(1.0, tanh_grad, out=tanh_grad)
            g = g @ params.weights[k].T
            g *= tanh_grad
    return grads


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def chosen_and_entropy(lp: np.ndarray, actions) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log-probability of ``actions`` and entropy, from 2-D log-softmax rows."""
    acts = np.atleast_1d(np.asarray(actions, dtype=np.int64))
    return lp[np.arange(len(acts)), acts], -(np.exp(lp) * lp).sum(axis=-1)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, flat like the parameter buffer."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_init(params: np.ndarray) -> AdamState:
    return AdamState(np.zeros_like(params), np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update, applied in place to the whole buffer."""
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grads * grads
    # params -= lr * (m / c1) / (sqrt(v / c2) + eps), in place with the same rounding
    step = m / c1
    step *= lr
    denom = v / c2
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    params -= step


def clip_grads(grads: np.ndarray, max_norm: float) -> None:
    """Scale ``grads`` in place so its L2 norm is at most ``max_norm``."""
    norm = float(np.sqrt(grads @ grads))
    if norm > max_norm:
        grads *= max_norm / norm


def params_to_jsonable(params: MlpParams) -> dict:
    return {
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }


def params_from_flat(flat: np.ndarray, sizes: list[int]) -> MlpParams:
    """The params with layer ``sizes`` whose ``flat`` buffer equals ``flat``."""
    shapes = [*zip(sizes, sizes[1:]), *((n,) for n in sizes[1:])]
    ends = np.cumsum([0, *map(math.prod, shapes)])
    if flat.dtype != np.float64 or flat.shape != (ends[-1],) or min(sizes, default=-1) < 0:
        raise ValueError(f"layer sizes {sizes} do not fit {flat.size} float64 parameters")
    arrays = [flat[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]
    return MlpParams(arrays[: len(sizes) - 1], arrays[len(sizes) - 1:])
