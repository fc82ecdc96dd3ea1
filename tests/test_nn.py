"""Tests for the hand-written layers, optimizer, and counter-based RNG."""

import numpy as np
import pytest

from uavad.nn import (
    ParamSet,
    Rng,
    adam_step,
    concat_forward,
    conv1x1_backward,
    conv1x1_forward,
    dense_backward,
    dense_forward,
    glorot_uniform,
    numeric_gradient,
    relative_error,
    relu_backward,
    relu_forward,
    reparameterize_backward,
    reparameterize_forward,
    sigmoid_forward,
)

GRAD_TOL = 1e-6


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(123), Rng(123)
        assert np.array_equal(a.uniform(1000), b.uniform(1000))
        assert np.array_equal(a.gaussian((3, 5)), b.gaussian((3, 5)))

    def test_different_seeds_diverge(self):
        assert not np.array_equal(Rng(1).uniform(100), Rng(2).uniform(100))

    def test_scalar_and_shaped_draws_share_one_stream(self):
        a, b = Rng(9), Rng(9)
        scalars = np.array([a.uniform() for _ in range(8)])
        assert np.array_equal(scalars, b.uniform(8))

    def test_uniform_range_and_moments(self):
        u = Rng(2024).uniform(200_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_gaussian_moments(self):
        g = Rng(77).gaussian(200_000)
        assert abs(g.mean()) < 0.01
        assert abs(g.var() - 1.0) < 0.02
        assert abs(np.mean(g**3)) < 0.03  # symmetric third moment

    def test_randint_bounds_and_coverage(self):
        rng = Rng(5)
        draws = [rng.randint(7) for _ in range(2000)]
        assert set(draws) == set(range(7))
        with pytest.raises(ValueError):
            rng.randint(0)

    def test_permutation_is_a_permutation(self):
        rng = Rng(11)
        for n in (1, 2, 10, 100):
            assert sorted(rng.permutation(n).tolist()) == list(range(n))

    def test_permutation_is_roughly_uniform(self):
        """Each value should land in each slot about n!/n of the time."""
        rng = Rng(13)
        counts = np.zeros((4, 4), dtype=int)
        trials = 12_000
        for _ in range(trials):
            perm = rng.permutation(4)
            for slot, value in enumerate(perm):
                counts[slot, value] += 1
        expected = trials / 4
        assert np.all(np.abs(counts - expected) < 0.1 * trials)

    def test_sample_without_replacement(self):
        rng = Rng(3)
        seq = list(range(20))
        sample = rng.sample_without_replacement(seq, 8)
        assert len(sample) == len(set(sample)) == 8
        assert set(sample) <= set(seq)
        with pytest.raises(ValueError):
            rng.sample_without_replacement(seq, 21)


class TestParamSet:
    def test_iteration_in_name_order(self):
        ps = ParamSet()
        ps.add("b", np.zeros(2))
        ps.add("a", np.zeros(2))
        assert [p.name for p in ps] == ["a", "b"]

    def test_duplicate_name_rejected(self):
        ps = ParamSet()
        ps.add("w", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            ps.add("w", np.zeros(2))

    def test_value_round_trip(self):
        ps = ParamSet()
        ps.add("w", np.arange(6.0).reshape(2, 3))
        snapshot = ps.copy_values()
        ps["w"].value += 1.0
        restored = ParamSet()
        restored.add("w", snapshot["w"])
        assert np.array_equal(restored["w"].value, np.arange(6.0).reshape(2, 3))


def check_layer_gradients(forward, backward, params, inputs, seed):
    """Compare analytic input/parameter gradients against finite differences.

    ``forward`` maps inputs to an output y; the scalar objective is sum(y * r)
    for a fixed random r, whose gradient through y is exactly r.
    """
    rng = np.random.default_rng(seed)
    y = forward()
    r = rng.standard_normal(y.shape)

    def objective():
        return float(np.sum(forward() * r))

    for p in params:
        p.grad.fill(0.0)
    d_inputs = backward(r)
    worst = 0.0
    for p in params:
        numeric = numeric_gradient(objective, p.value)
        worst = max(worst, relative_error(p.grad, numeric))
    for analytic, arr in d_inputs:
        numeric = numeric_gradient(objective, arr)
        worst = max(worst, relative_error(analytic, numeric))
    return worst


class TestDense:
    def test_forward_matches_matmul(self):
        """y = x @ W.T + b with W stored as (n_out, n_in)."""
        ps = ParamSet()
        w = ps.add("w", np.arange(6.0).reshape(2, 3))  # rows [0,1,2], [3,4,5]
        b = ps.add("b", np.array([1.0, -1.0]))
        x = np.array([[1.0, 0.0, 2.0]])
        np.testing.assert_allclose(dense_forward(x, w, b), [[5.0, 12.0]])

    def test_gradients(self):
        rng = np.random.default_rng(0)
        ps = ParamSet()
        w = ps.add("w", rng.standard_normal((4, 7)))
        b = ps.add("b", rng.standard_normal(4))
        x = rng.standard_normal((5, 7))
        worst = check_layer_gradients(
            lambda: dense_forward(x, w, b),
            lambda r: [(dense_backward(r, x, w, b), x)],
            [w, b],
            [x],
            seed=1,
        )
        assert worst < GRAD_TOL, f"dense gradient error {worst}"

    def test_gradients_accumulate(self):
        """Two backward passes add into .grad rather than overwriting it."""
        rng = np.random.default_rng(2)
        ps = ParamSet()
        w = ps.add("w", rng.standard_normal((3, 3)))
        b = ps.add("b", np.zeros(3))
        x = rng.standard_normal((2, 3))
        dy = rng.standard_normal((2, 3))
        dense_backward(dy, x, w, b)
        once = w.grad.copy()
        dense_backward(dy, x, w, b)
        np.testing.assert_allclose(w.grad, 2.0 * once)

    def test_width_mismatch_rejected(self):
        ps = ParamSet()
        w = ps.add("w", np.zeros((2, 3)))
        b = ps.add("b", np.zeros(2))
        with pytest.raises(ValueError, match="width"):
            dense_forward(np.zeros((1, 4)), w, b)


class TestActivations:
    def test_relu_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4)) + 0.05  # keep clear of the kink
        r = rng.standard_normal((6, 4))
        analytic = relu_backward(r, x)
        numeric = numeric_gradient(lambda: float(np.sum(relu_forward(x) * r)), x)
        assert relative_error(analytic, numeric) < GRAD_TOL

    def test_sigmoid_open_interval(self):
        """Saturated logits still produce outputs strictly inside (0, 1)."""
        y = sigmoid_forward(np.array([-1e6, -50.0, 0.0, 50.0, 1e6]))
        assert np.all(y > 0.0) and np.all(y < 1.0)
        assert y[2] == 0.5

    def test_sigmoid_symmetry(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(
            sigmoid_forward(x) + sigmoid_forward(-x), 1.0, atol=1e-12
        )

    def test_sigmoid_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 5))
        r = rng.standard_normal((5, 5))
        y = sigmoid_forward(x)
        analytic = r * y * (1.0 - y)  # the derivative adnet.backward fuses into dlogits
        numeric = numeric_gradient(lambda: float(np.sum(sigmoid_forward(x) * r)), x)
        assert relative_error(analytic, numeric) < GRAD_TOL


class TestConv1x1:
    def test_equivalent_to_per_pixel_dense(self):
        """A 1x1 convolution is one dense map applied at every pixel."""
        rng = np.random.default_rng(5)
        ps = ParamSet()
        k = ps.add("k", rng.standard_normal((3, 6)))
        b = ps.add("b", rng.standard_normal(3))
        x = rng.standard_normal((2, 4, 4, 6))
        y = conv1x1_forward(x, k, b)
        assert y.shape == (2, 4, 4, 3)
        for n in range(2):
            for i in range(4):
                for j in range(4):
                    np.testing.assert_allclose(
                        y[n, i, j], k.value @ x[n, i, j] + b.value
                    )

    def test_gradients(self):
        rng = np.random.default_rng(6)
        ps = ParamSet()
        k = ps.add("k", rng.standard_normal((2, 5)))
        b = ps.add("b", rng.standard_normal(2))
        x = rng.standard_normal((3, 2, 2, 5))
        worst = check_layer_gradients(
            lambda: conv1x1_forward(x, k, b),
            lambda r: [(conv1x1_backward(r, x, k, b), x)],
            [k, b],
            [x],
            seed=7,
        )
        assert worst < GRAD_TOL, f"conv1x1 gradient error {worst}"


class TestConcat:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 2))
        y = concat_forward(a, b)
        assert y.shape == (4, 5)
        np.testing.assert_array_equal(y[:, :3], a)
        np.testing.assert_array_equal(y[:, 3:], b)


class TestReparameterize:
    def test_zero_noise_passes_mean_through(self):
        mu = np.array([[1.0, -2.0]])
        lv = np.array([[0.3, -0.7]])
        np.testing.assert_array_equal(
            reparameterize_forward(mu, lv, np.zeros_like(mu)), mu
        )

    def test_gradients(self):
        rng = np.random.default_rng(9)
        mu = rng.standard_normal((4, 3))
        lv = rng.standard_normal((4, 3)) * 0.5
        eps = rng.standard_normal((4, 3))
        r = rng.standard_normal((4, 3))

        def objective():
            return float(np.sum(reparameterize_forward(mu, lv, eps) * r))

        dmu, dlv = reparameterize_backward(r, lv, eps)
        assert relative_error(dmu, numeric_gradient(objective, mu)) < GRAD_TOL
        assert relative_error(dlv, numeric_gradient(objective, lv)) < GRAD_TOL

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reparameterize_forward(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))


class TestAdam:
    def test_first_step_closed_form(self):
        """Step 1 with gradient g moves by -lr * g / (|g| + eps) exactly."""
        ps = ParamSet()
        p = ps.add("w", np.array([1.0, -2.0, 3.0]))
        g = np.array([0.5, -4.0, 1e-3])
        p.grad[:] = g
        lr, eps = 0.01, 1e-8
        adam_step(ps, lr=lr, epsilon=eps, t=1)
        expected = np.array([1.0, -2.0, 3.0]) - lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(p.value, expected, rtol=1e-12)

    def test_zero_gradient_is_a_fixed_point(self):
        ps = ParamSet()
        p = ps.add("w", np.array([1.0, 2.0]))
        adam_step(ps, t=1)
        np.testing.assert_array_equal(p.value, [1.0, 2.0])

    def test_zero_lr_freezes_values(self):
        ps = ParamSet()
        p = ps.add("w", np.array([1.0]))
        p.grad[:] = 5.0
        adam_step(ps, lr=0.0, t=1)
        np.testing.assert_array_equal(p.value, [1.0])

    def test_grads_zeroed_after_step(self):
        ps = ParamSet()
        p = ps.add("w", np.array([1.0]))
        p.grad[:] = 3.0
        adam_step(ps, t=1)
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_descends_a_quadratic(self):
        """Loss 0.5*(w-5)^2 shrinks by orders of magnitude over an Adam run.

        Near the minimum Adam hops around at roughly lr-sized steps, so the
        check is a large relative reduction rather than exact convergence.
        """
        ps = ParamSet()
        p = ps.add("w", np.array([0.0]))
        losses = []
        for t in range(1, 201):
            losses.append(0.5 * float((p.value[0] - 5.0) ** 2))
            p.grad[:] = p.value - 5.0
            adam_step(ps, lr=0.05, t=t)
        assert losses[0] == pytest.approx(12.5)
        assert losses[-1] < losses[0] / 1000
        assert losses[0] > losses[50] > losses[199]

    def test_nonfinite_gradient_names_parameter(self):
        ps = ParamSet()
        p = ps.add("enc.w", np.array([1.0]))
        p.grad[:] = np.nan
        with pytest.raises(FloatingPointError, match="enc.w"):
            adam_step(ps, t=1)

    def test_step_index_must_be_positive(self):
        ps = ParamSet()
        ps.add("w", np.array([1.0]))
        with pytest.raises(ValueError):
            adam_step(ps, t=0)


class TestGlorot:
    def test_bounds_and_spread(self):
        w = glorot_uniform(Rng(0), 64, 32)
        limit = np.sqrt(6.0 / 96.0)
        assert w.shape == (64, 32)
        assert np.all(np.abs(w) <= limit)
        assert w.std() > limit / 4  # actually spread out, not collapsed
        assert abs(w.mean()) < limit / 10


class TestGradientChecking:
    def test_numeric_gradient_on_known_function(self):
        """d/dx sum(x^2) = 2x recovered by central differences."""
        x = np.array([1.0, -2.0, 0.5])
        grad = numeric_gradient(lambda: float(np.sum(x**2)), x)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-8)
        np.testing.assert_allclose(x, [1.0, -2.0, 0.5])  # restored in place

    def test_relative_error_scales(self):
        a = np.array([1.0, 2.0])
        assert relative_error(a, a) == 0.0
        assert relative_error(np.array([1.0]), np.array([1.1])) == pytest.approx(
            0.1 / 1.1
        )
