"""Tests for the hand-written layers, optimizer, and counter-based RNG."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uavad.adnet import ModelConfig, init_params
from uavad.nn import (
    _ADAM_BLOCK,
    _GAMMA,
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


# Seeds where the 64-bit state wraps on the first draws, plus any other.
SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1, 2**64 - _GAMMA]), st.integers(0, 2**64 - 1))


def reference_permutation(rng: Rng, n: int) -> np.ndarray:
    """Fisher-Yates on np.arange, with all n - 1 uniforms from one array draw."""
    perm = np.arange(n)
    u = rng.uniform(max(n - 1, 0))
    for k, i in enumerate(range(n - 1, 0, -1)):
        j = min(int(u[k] * (i + 1)), i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


class TestRngStreams:
    """Scalar draws step the state on Python ints, array draws on uint64
    arrays; both must be one stream, bit for bit, across the 64-bit wrap."""

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, n=st.integers(0, 300))
    @example(seed=2**64 - _GAMMA, n=3)
    @example(seed=2**64 - 1, n=3)
    def test_scalar_draws_equal_one_array_draw(self, seed, n):
        a, b = Rng(seed), Rng(seed)
        scalars = np.array([a.uniform() for _ in range(n)], dtype=np.float64)
        assert scalars.tobytes() == b.uniform(n).tobytes()
        assert a._state == b._state

    @settings(max_examples=20, deadline=None)
    @given(seed=SEEDS)
    @example(seed=0)
    def test_permutation_matches_a_reference_fisher_yates(self, seed):
        a, b = Rng(seed), Rng(seed)
        for n in (0, 1, 2, 17, 240):
            perm = a.permutation(n)
            assert perm.dtype == np.intp
            assert np.array_equal(perm, reference_permutation(b, n))
            assert a._state == b._state


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
        np.testing.assert_allclose(dense_forward(x, w.value, b.value), [[5.0, 12.0]])

    def test_gradients(self):
        rng = np.random.default_rng(0)
        ps = ParamSet()
        w = ps.add("w", rng.standard_normal((4, 7)))
        b = ps.add("b", rng.standard_normal(4))
        x = rng.standard_normal((5, 7))
        worst = check_layer_gradients(
            lambda: dense_forward(x, w.value, b.value),
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
            dense_forward(np.zeros((1, 4)), w.value, b.value)


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """The masked two-branch logistic that sigmoid_forward must reproduce."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, 1e-300, np.nextafter(1.0, 0.0))


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shapes and bits, except that any NaN matches any NaN (their sign
    bit depends on which exp argument carried it)."""
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


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

    @pytest.mark.parametrize(
        "x",
        [
            np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 37.0, -37.0, 709.8, -709.8]),
            np.array([745.2, -745.2, 1e6, -1e6, np.inf, -np.inf, np.nan, 0.5, -2.0]),
            np.linspace(-40.0, 40.0, 64).reshape(4, 2, 8),
        ],
    )
    def test_sigmoid_matches_the_two_branch_form_bit_for_bit(self, x):
        before = x.tobytes()
        assert_same_bits(sigmoid_forward(x), reference_sigmoid(x))
        assert x.tobytes() == before

    @settings(max_examples=200, deadline=None)
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=6), elements=st.floats()))
    def test_sigmoid_matches_the_two_branch_form_on_any_floats(self, x):
        before = x.tobytes()
        assert_same_bits(sigmoid_forward(x), reference_sigmoid(x))
        assert x.tobytes() == before

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
        y = conv1x1_forward(x, k.value, b.value)
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
            lambda: conv1x1_forward(x, k.value, b.value),
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


def reference_adam(value, grad, m, v, lr, beta1, beta2, eps, t):
    """One whole-array Adam update of a single parameter: (value, m, v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad**2
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def random_param_state(ps: ParamSet, seed: int) -> None:
    """Fill every gradient and Adam moment with random values (v >= 0)."""
    rng = np.random.default_rng(seed)
    for p in ps:
        p.grad[...] = rng.standard_normal(p.grad.shape)
        p.adam_m[...] = 0.1 * rng.standard_normal(p.adam_m.shape)
        p.adam_v[...] = 0.01 * rng.random(p.adam_v.shape)


B = _ADAM_BLOCK
# Around one block, and 2.5 blocks, whose last block is partial.
ADAM_SIZES_1D = [(1,), (3,), (B - 1,), (B,), (B + 1,), (5 * B // 2,)]
ADAM_SIZES_2D = [(1, 1), (1, 3), (127, 129), (128, 128), (113, 145), (160, 256)]


class TestAdamInPlace:
    """The blocked in-place update against the whole-array formula."""

    @pytest.mark.parametrize("shapes", [ADAM_SIZES_1D, ADAM_SIZES_2D], ids=["1d", "2d"])
    @pytest.mark.parametrize("t", [1, 2, 50])
    @pytest.mark.parametrize(
        "hyper",
        [dict(lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8), dict(lr=0.03, beta1=0.8, beta2=0.99, eps=1e-6)],
        ids=["default", "custom"],
    )
    def test_bit_equal_to_the_whole_array_formula(self, shapes, t, hyper):
        ps = ParamSet()
        # Names put the largest parameter first, so that smaller ones reuse
        # slices of the scratch buffers sized for it.
        for i, shape in enumerate(reversed(shapes)):
            ps.add(f"p{i}", np.random.default_rng(i).standard_normal(shape))
        random_param_state(ps, seed=t)
        want = {
            p.name: reference_adam(p.value, p.grad, p.adam_m, p.adam_v, t=t, **hyper) for p in ps
        }
        adam_step(
            ps, lr=hyper["lr"], beta1=hyper["beta1"], beta2=hyper["beta2"], epsilon=hyper["eps"], t=t
        )
        for p in ps:
            value, m, v = want[p.name]
            assert p.value.tobytes() == value.tobytes(), p.name
            assert p.adam_m.tobytes() == m.tobytes(), p.name
            assert p.adam_v.tobytes() == v.tobytes(), p.name
            assert not p.grad.any(), p.name

    def test_arrays_are_updated_in_place(self):
        ps = ParamSet()
        p = ps.add("w", np.ones((4, B // 3)))
        random_param_state(ps, seed=0)
        arrays = (p.value, p.grad, p.adam_m, p.adam_v)
        before = p.value.copy()
        adam_step(ps, t=1)
        assert all(a is b for a, b in zip((p.value, p.grad, p.adam_m, p.adam_v), arrays))
        assert not np.array_equal(p.value, before)

    def test_non_contiguous_input_is_still_updated(self):
        ps = ParamSet()
        source = np.arange(12.0).reshape(3, 4)
        p = ps.add("w", source.T)
        assert p.value.flags.c_contiguous
        assert all(a.flags.c_contiguous for a in (p.grad, p.adam_m, p.adam_v))
        p.grad[...] = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
        value, m, v = reference_adam(p.value, p.grad, p.adam_m, p.adam_v, 0.01, 0.9, 0.999, 1e-8, 1)
        adam_step(ps, lr=0.01, t=1)
        assert p.value.tobytes() == value.tobytes()
        assert p.adam_m.tobytes() == m.tobytes() and p.adam_v.tobytes() == v.tobytes()
        np.testing.assert_array_equal(source, np.arange(12.0).reshape(3, 4))

    def test_non_finite_last_gradient_changes_nothing(self):
        ps = ParamSet()
        for name, shape in (("a", (B + 5,)), ("b", (3, 4)), ("z", (7,))):
            ps.add(name, np.random.default_rng(len(name)).standard_normal(shape))
        random_param_state(ps, seed=1)
        ps["z"].grad[-1] = np.nan
        before = {p.name: [a.copy() for a in (p.value, p.grad, p.adam_m, p.adam_v)] for p in ps}
        with pytest.raises(FloatingPointError, match="'z'"):
            adam_step(ps, t=3)
        for p in ps:
            for got, want in zip((p.value, p.grad, p.adam_m, p.adam_v), before[p.name]):
                assert got.tobytes() == want.tobytes(), p.name

    def test_step_allocates_no_per_parameter_temporaries(self):
        """One step on the full model stays far below the 13.6 MB that
        whole-array temporaries take (about 342 000 parameters)."""
        ps = init_params(ModelConfig("uav_adnet"), 0)
        random_param_state(ps, seed=2)
        tracemalloc.start()
        try:
            adam_step(ps, t=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


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
