import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import finite_difference, make_collection, max_rel_error
from tarstop.env import NORMALIZE_MODES, observation_table
from tarstop.nets import (
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
    softmax,
)


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_params(7, (10, 64, 64, 2), out_gain=0.01)
        b = init_params(7, (10, 64, 64, 2), out_gain=0.01)
        for wa, wb in zip(a.arrays(), b.arrays()):
            assert np.array_equal(wa, wb)

    def test_hidden_layers_are_orthogonal_with_gain(self):
        params = init_params(0, (100, 64, 64, 2), out_gain=0.01)
        w0 = params.weights[0]  # 100 x 64, smaller dimension 64
        assert np.allclose(w0.T @ w0, 2.0 * np.eye(64), atol=1e-6)
        w1 = params.weights[1]
        assert np.allclose(w1.T @ w1, 2.0 * np.eye(64), atol=1e-6)

    def test_output_gain(self):
        actor = init_params(0, (100, 64, 64, 2), out_gain=0.01)
        assert np.allclose(actor.weights[-1].T @ actor.weights[-1], 1e-4 * np.eye(2), atol=1e-9)
        critic = init_params(0, (100, 64, 64, 1), out_gain=1.0)
        assert np.allclose(critic.weights[-1].T @ critic.weights[-1], np.eye(1), atol=1e-9)

    def test_wide_layer_orthogonal_on_rows(self):
        params = init_params(3, (4, 16, 2), out_gain=1.0)
        w = params.weights[0]  # 4 x 16: rows are the smaller side
        assert np.allclose(w @ w.T, 2.0 * np.eye(4), atol=1e-6)

    def test_biases_zero(self):
        params = init_params(1, (10, 64, 64, 2), out_gain=0.01)
        for b in params.biases:
            assert not b.any()

    def test_sizes_property(self):
        params = init_params(0, (5, 8, 3), out_gain=1.0)
        assert params.sizes == (5, 8, 3)


class TestForward:
    def test_zero_params_give_zero_outputs(self):
        params = MlpParams(
            [np.zeros((4, 8)), np.zeros((8, 2))],
            [np.zeros(8), np.zeros(2)],
        )
        out, _ = forward(params, np.ones((1, 4)))
        assert out.tolist() == [[0.0, 0.0]]
        assert softmax(out).tolist() == [[0.5, 0.5]]

    def test_zero_value_head(self):
        params = MlpParams([np.zeros((4, 8)), np.zeros((8, 1))], [np.zeros(8), np.zeros(1)])
        out, _ = forward(params, np.ones((1, 4)))
        assert out.tolist() == [[0.0]]

    def test_pure(self, rng):
        params = init_params(2, (6, 16, 16, 2), out_gain=0.01)
        x = rng.standard_normal((1, 6))
        out1, _ = forward(params, x)
        out2, _ = forward(params, x)
        assert np.array_equal(out1, out2)

    def test_batched_matches_single_rows(self, rng):
        params = init_params(2, (6, 16, 16, 2), out_gain=0.01)
        xs = rng.standard_normal((5, 6))
        batched, cache = forward(params, xs)
        assert cache[0] is xs  # the input rows themselves, neither copied nor converted
        for k in range(5):
            single, _ = forward(params, xs[k : k + 1])
            assert single.shape == (1, 2)
            assert np.allclose(batched[k], single[0], atol=1e-15)

    def test_non_finite_input_rejected(self):
        # every network input is a row of an observation table, which is
        # where a non-finite value is rejected
        batched = make_collection([1, 0, 0, 1, 1, 0], [1, 0, 0, 1, 1, 0]).batched(3)
        for bad in (np.nan, np.inf):
            broken = dataclasses.replace(batched, cum_rel=np.array([[1, 1, 2], [1.0, bad, 1.0]]))
            for mode in NORMALIZE_MODES:
                with pytest.raises(ValueError, match="non-finite values in observation table"):
                    observation_table(broken, mode)

    def test_width_mismatch_rejected(self):
        params = init_params(0, (3, 4, 2), out_gain=1.0)
        for bad in (np.zeros((1, 5)), np.zeros((2, 2)), np.zeros(3), np.zeros((1, 1, 3))):
            with pytest.raises(ValueError, match=f"shape {re.escape(str(bad.shape))} .* width 3"):
                forward(params, bad)


class TestLogProbAndEntropy:
    def test_uniform_logits(self):
        (logp,), (entropy,) = chosen_and_entropy(log_softmax(np.atleast_2d(np.zeros(2))), 0)
        assert abs(logp - math.log(0.5)) < 1e-15
        assert abs(entropy - math.log(2.0)) < 1e-15

    def test_extreme_logits_stay_finite(self):
        # expected value via an independent formulation: -log1p(exp(-20))
        expected = -math.log1p(math.exp(-20.0))
        with np.errstate(over="raise"):
            (logp,), (entropy,) = chosen_and_entropy(
                log_softmax(np.atleast_2d(np.array([10.0, -10.0]))), 0)
        assert abs(logp - expected) < 1e-15
        assert 0.0 <= entropy <= math.log(2.0)
        (logp2,), _ = chosen_and_entropy(log_softmax(np.atleast_2d(np.array([1000.0, -1000.0]))), 1)
        assert logp2 == -2000.0

    def test_entropy_maximal_only_for_equal_logits(self, rng):
        for _ in range(100):
            logits = rng.standard_normal(2) * 3
            _, (entropy,) = chosen_and_entropy(log_softmax(np.atleast_2d(logits)), 0)
            assert entropy <= math.log(2.0) + 1e-12
            if abs(logits[0] - logits[1]) > 1e-3:
                assert entropy < math.log(2.0)

    def test_batched(self, rng):
        logits = rng.standard_normal((6, 2))
        actions = rng.integers(0, 2, size=6)
        logp, entropy = chosen_and_entropy(log_softmax(np.atleast_2d(logits)), actions)
        assert logp.shape == (6,)
        assert entropy.shape == (6,)
        for k in range(6):
            (single_lp,), (single_h,) = chosen_and_entropy(
                log_softmax(np.atleast_2d(logits[k])), int(actions[k]))
            assert abs(logp[k] - single_lp) < 1e-15
            assert abs(entropy[k] - single_h) < 1e-15

    def test_softmax_sums_to_one_and_positive(self, rng):
        # strict positivity holds up to logit gaps of ~745, where the true
        # probability drops below the smallest representable double
        for scale in (1.0, 50.0, 300.0):
            logits = np.clip(rng.standard_normal((20, 2)) * scale, -350.0, 350.0)
            p = softmax(logits)
            assert np.all(p > 0)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.allclose(np.exp(log_softmax(logits)), p, atol=1e-12)
        extreme = softmax(np.array([[350.0, -350.0]]))
        assert np.all(extreme > 0)
        assert abs(extreme.sum() - 1.0) < 1e-12


class TestBackward:
    def test_matches_finite_differences_on_random_nets(self, rng):
        for _ in range(4):
            sizes = (3, 5, 4, 2)
            params = init_params(rng, sizes, out_gain=0.5)
            xs = rng.standard_normal((6, 3))
            loss_weights = rng.standard_normal((6, 2))

            def loss():
                out, _ = forward(params, xs)
                return float((out * loss_weights).sum())

            out, cache = forward(params, xs)
            analytic = backward(params, cache, loss_weights)
            numeric = finite_difference(loss, [params.flat])
            assert max_rel_error([analytic.flat], numeric) < 1e-4

    def test_gradient_linearity(self, rng):
        params = init_params(rng, (4, 6, 2), out_gain=1.0)
        xs = rng.standard_normal((3, 4))
        _, cache = forward(params, xs)
        g = rng.standard_normal((3, 2))
        once = backward(params, cache, g)
        thrice = backward(params, cache, 3.0 * g)
        for a, b in zip(once.arrays(), thrice.arrays()):
            assert np.allclose(3.0 * a, b, atol=1e-12)

    def test_dead_input_feature_gets_zero_gradient(self, rng):
        params = init_params(rng, (4, 6, 2), out_gain=1.0)
        xs = rng.standard_normal((5, 4))
        xs[:, 2] = 0.0
        _, cache = forward(params, xs)
        grads = backward(params, cache, np.ones((5, 2)))
        assert not grads.weights[0][2, :].any()

    def test_shape_mismatch_rejected(self, rng):
        params = init_params(rng, (4, 6, 2), out_gain=1.0)
        _, cache = forward(params, rng.standard_normal((5, 4)))
        with pytest.raises(ValueError, match="grad_out"):
            backward(params, cache, np.ones((5, 3)))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = init_params(0, (3, 4, 2), out_gain=1.0)
        before = params.flat.copy()
        adam_step(params.flat, np.zeros_like(params.flat), adam_init(params.flat), lr=0.1)
        assert np.array_equal(params.flat, before)

    def test_first_step_is_signed_lr(self, rng):
        params = init_params(1, (3, 4, 2), out_gain=1.0)
        before = [a.copy() for a in params.arrays()]

        def away_from_zero(shape):
            return rng.uniform(0.5, 2.0, shape) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)

        grads = MlpParams([away_from_zero(w.shape) for w in params.weights],
                          [away_from_zero(b.shape) for b in params.biases])
        lr = 1e-3
        adam_step(params.flat, grads.flat, adam_init(params.flat), lr=lr)
        for new, old, g in zip(params.arrays(), before, grads.arrays()):
            assert np.allclose(new - old, -lr * np.sign(g), atol=1e-8)

    def test_step_counter_increments(self):
        params = init_params(0, (3, 4, 2), out_gain=1.0)
        state = adam_init(params.flat)
        grads = np.ones_like(params.flat)
        adam_step(params.flat, grads, state, lr=0.01)
        assert state.step == 1
        adam_step(params.flat, grads, state, lr=0.01)
        assert state.step == 2

    def test_shape_mismatch_rejected(self):
        params = init_params(0, (3, 4, 2), out_gain=1.0)
        # one element short; a length-1 vector would broadcast without the check
        for bad in (np.ones(params.flat.size - 1), np.ones(1)):
            with pytest.raises(ValueError, match="gradient shape"):
                adam_step(params.flat, bad, adam_init(params.flat), lr=0.01)


def reference_backward(params, cache, grad_out):
    """Per-layer gradients as separate arrays, in ``arrays()`` order."""
    g = np.atleast_2d(grad_out)
    grad_w, grad_b = [], []
    for k in reversed(range(len(params.weights))):
        grad_w.insert(0, cache[k].T @ g)
        grad_b.insert(0, g.sum(axis=0))
        if k > 0:
            g = (g @ params.weights[k].T) * (1.0 - cache[k] ** 2)
    return [*grad_w, *grad_b]


class TestFlatBuffer:
    def test_views_share_the_buffer(self):
        params = init_params(0, (3, 4, 2), out_gain=1.0)
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert params.flat.size == 3 * 4 + 4 * 2 + 4 + 2
        assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in params.arrays()]))
        params.weights[1][2, 1] = 7.5
        assert params.flat[3 * 4 + 2 * 2 + 1] == 7.5
        params.flat[-1] = -3.0
        assert params.biases[-1][-1] == -3.0

    def test_joint_params_views_one_new_buffer(self):
        actor = init_params(0, (3, 4, 2), out_gain=1.0)
        critic = init_params(1, (3, 4, 1), out_gain=1.0)
        flat, (a, c) = joint_params(actor, critic)
        assert np.array_equal(flat, np.concatenate([actor.flat, critic.flat]))
        assert (a.sizes, c.sizes) == (actor.sizes, critic.sizes)
        c.biases[-1][0] = 9.0
        assert flat[-1] == 9.0 and critic.biases[-1][0] == 0.0
        flat[0] += 1.0
        assert a.weights[0][0, 0] == actor.weights[0][0, 0] + 1.0
        assert not np.shares_memory(flat, actor.flat) and not np.shares_memory(flat, critic.flat)

    def test_constructor_copies_its_arguments(self):
        w, b = np.ones((2, 3)), np.zeros(3)
        params = MlpParams([w], [b])
        w[0, 0] = 5.0
        assert params.weights[0][0, 0] == 1.0
        assert params.sizes == (2, 3)

    def test_malformed_layers_rejected(self):
        with pytest.raises(ValueError):
            MlpParams([np.ones((2, 3))], [])
        with pytest.raises(ValueError):
            MlpParams([np.ones(3)], [np.ones(3)])
        with pytest.raises(ValueError):
            MlpParams([[[1.0, 2.0], [3.0]]], [[0.0]])
        with pytest.raises(ValueError, match=r"do not chain: weights \[\(4, 6\), \(5, 2\)\]"):
            MlpParams([np.ones((4, 6)), np.ones((5, 2))], [np.ones(6), np.ones(2)])
        with pytest.raises(ValueError, match=r"do not chain: .* biases \[\(6,\), \(3,\)\]"):
            MlpParams([np.ones((4, 6)), np.ones((6, 2))], [np.ones(6), np.ones(3)])

    def test_backward_fills_one_flat_buffer(self, rng):
        params = init_params(rng, (5, 7, 6, 2), out_gain=0.5)
        xs = rng.standard_normal((9, 5))
        g = rng.standard_normal((9, 2))
        _, cache = forward(params, xs)
        grads = backward(params, cache, g)
        reference = reference_backward(params, cache, g)
        assert np.array_equal(grads.flat, np.concatenate([a.ravel() for a in reference]))
        assert not np.shares_memory(grads.flat, params.flat)


class TestAdamFlat:
    def test_matches_per_array_reference_bitwise(self, rng):
        # the reference steps each array of each network on its own, as the
        # two networks were stepped before they shared one buffer
        nets = [init_params(4, (5, 8, 8, 2), out_gain=0.1), init_params(5, (5, 8, 8, 1), out_gain=1.0)]
        reference = [[a.copy() for a in net.arrays()] for net in nets]
        ref_m = [[np.zeros_like(a) for a in arrays] for arrays in reference]
        ref_v = [[np.zeros_like(a) for a in arrays] for arrays in reference]
        params, nets = joint_params(*nets)
        state = adam_init(params)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 3e-3
        for step in range(1, 6):
            grads = rng.standard_normal(params.size)
            adam_step(params, grads, state, lr)
            split = nets[0].flat.size
            grad_nets = [MlpParams.over(grads[:split], nets[0]), MlpParams.over(grads[split:], nets[1])]
            c1, c2 = 1.0 - b1**step, 1.0 - b2**step
            for arrays, grad_net, ms, vs in zip(reference, grad_nets, ref_m, ref_v):
                for p, g, m, v in zip(arrays, grad_net.arrays(), ms, vs):
                    m *= b1
                    m += (1.0 - b1) * g
                    v *= b2
                    v += (1.0 - b2) * g * g
                    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
            for net, arrays in zip(nets, reference):
                for a, b in zip(net.arrays(), arrays):
                    assert np.array_equal(a, b)
            assert np.array_equal(state.m, np.concatenate([m.ravel() for ms in ref_m for m in ms]))
            assert np.array_equal(state.v, np.concatenate([v.ravel() for vs in ref_v for v in vs]))


class TestClipGrads:
    @staticmethod
    def _grads(rng, scale):
        """A joint gradient vector over two networks, and their views into it."""
        return joint_params(*(
            MlpParams([rng.standard_normal((4, 6)) * scale, rng.standard_normal((6, k)) * scale],
                      [rng.standard_normal(6) * scale, rng.standard_normal(k) * scale])
            for k in (2, 1)))

    @staticmethod
    def _reference_norm(nets):
        return math.sqrt(sum(float((a * a).sum()) for g in nets for a in g.arrays()))

    def test_norm_matches_per_array_sum(self, rng):
        grads, nets = self._grads(rng, 3.0)
        reference = self._reference_norm(nets)
        before = grads.copy()
        clip_grads(grads, 0.5 * reference)
        # the scale applied is 0.5 * reference / norm
        assert np.allclose(grads / before, 0.5, rtol=1e-12, atol=0.0)

    def test_clipped_to_max_norm(self, rng):
        grads, nets = self._grads(rng, 5.0)
        before = grads.copy()
        assert self._reference_norm(nets) > 1.0
        clip_grads(grads, 1.0)
        assert abs(self._reference_norm(nets) - 1.0) < 1e-12
        # one common scale for both networks: directions are kept
        ratios = grads / before
        assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_under_the_limit_unchanged(self, rng):
        grads, _ = self._grads(rng, 0.01)
        before = grads.copy()
        clip_grads(grads, 100.0)
        assert np.array_equal(grads, before)
