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
    _MASK64,
    ParamSet,
    _fisher_yates,
    _lockstep_shuffle,
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
        with pytest.raises(ValueError):
            rng.permutation(-1)

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
        with pytest.raises(ValueError):
            rng.sample_without_replacement(seq, -1)


# Seeds where the 64-bit state wraps on the first draws, plus any other.
SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1, 2**64 - _GAMMA]), st.integers(0, 2**64 - 1))


def reference_uniform(state: int) -> tuple[int, float]:
    """One SplitMix64 step on Python ints: the next state and its uniform."""
    z = state = (state + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, ((z ^ (z >> 31)) >> 11) * 2.0**-53


class ReferenceRng:
    """Every Rng draw written out on reference_uniform, one value at a time."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def uniform(self) -> float:
        self.state, u = reference_uniform(self.state)
        return u

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(n)], dtype=np.float64)

    def randint(self, m: int) -> int:
        return min(int(self.uniform() * m), m - 1)

    def permutation(self, n: int) -> np.ndarray:
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.randint(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def gaussians(self, shape) -> np.ndarray:
        n = int(np.prod(shape))
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs).reshape(2, pairs)
        r = np.sqrt(-2.0 * np.log1p(-u[0]))
        theta = 2.0 * np.pi * u[1]
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n].reshape(shape)


# Sizes around 0, 1, 128, 256 and 2048.
SIZES = st.sampled_from([0, 1, 2, 17, 128, 129, 255, 256, 257, 300, 2047, 2048, 2049])
SHAPES = st.one_of(SIZES, st.just((3, 5)))
OPERATIONS = st.one_of(
    st.tuples(st.just("uniform")),
    st.tuples(st.just("randint"), st.integers(1, 2**40)),
    st.tuples(st.just("permutation"), SIZES),
    st.tuples(st.just("sample"), SIZES, st.integers(0, 300)),
    st.tuples(st.just("uniform_array"), SHAPES),
    st.tuples(st.just("gaussian_array"), SHAPES),
)


def run_both(rng: Rng, ref: ReferenceRng, op: tuple):
    """One operation on rng and on ref, as arrays of the same dtype."""
    name, *args = op
    if name == "uniform":
        return np.float64(rng.uniform()), np.float64(ref.uniform())
    if name == "randint":
        return np.int64(rng.randint(args[0])), np.int64(ref.randint(args[0]))
    if name == "permutation":
        return rng.permutation(args[0]), ref.permutation(args[0]).astype(np.intp)
    if name == "sample":
        n, k = args[0], min(args[1], args[0])
        seq = [f"item{i}" for i in range(n)]
        expected = [seq[i] for i in ref.permutation(n)[:k]]
        return np.array(rng.sample_without_replacement(seq, k)), np.array(expected)
    if name == "uniform_array":
        n = int(np.prod(args[0]))
        return rng.uniform(args[0]), ref.uniforms(n).reshape(args[0])
    return rng.gaussian(args[0]), ref.gaussians(args[0])


def reference_permutation(rng: Rng, n: int) -> np.ndarray:
    """Fisher-Yates on np.arange, with all n - 1 uniforms from one array draw."""
    perm = np.arange(n)
    u = rng.uniform(max(n - 1, 0))
    for k, i in enumerate(range(n - 1, 0, -1)):
        j = min(int(u[k] * (i + 1)), i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


class TestRngStreams:
    """Scalar and array draws must be one stream, bit for bit, across the
    64-bit wrap."""

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

    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, program=st.lists(OPERATIONS, max_size=12))
    @example(seed=2**64 - 1, program=[("uniform",), ("uniform_array", 0), ("permutation", 257)])
    @example(seed=0, program=[
        ("gaussian_array", 1), ("uniform_array", 3), ("gaussian_array", 3), ("uniform",)
    ])
    def test_interleaved_draws_are_one_stream(self, seed, program):
        """Any mix of scalar and array draws reads one stream: each output
        equals the one-value-at-a-time reference bit for bit, and the state
        counts exactly the values handed out."""
        rng, ref = Rng(seed), ReferenceRng(seed)
        for op in program:
            got, expected = run_both(rng, ref, op)
            assert got.dtype == expected.dtype and got.shape == expected.shape, op
            assert got.tobytes() == expected.tobytes(), op
            assert rng._state == ref.state, op

    def test_peek_reads_ahead_and_skip_advances_past_the_values_used(self):
        rng, ref, ahead = Rng(2**64 - 3), ReferenceRng(2**64 - 3), ReferenceRng(2**64 - 3)
        for r in (rng, ref, ahead):
            r.uniform()
        assert rng._peek(300).tobytes() == ahead.uniforms(300).tobytes()
        assert rng._state == ref.state
        rng._skip(120)
        ref.uniforms(120)
        assert rng._state == ref.state
        assert rng.uniform() == ref.uniform()


# Uniforms in [0, 1), with both ends often: 0.0 picks slot 0, and the largest
# double below 1.0 picks slot i itself (the product never rounds up to i + 1).
TOP = float(np.nextafter(1.0, 0.0))
UNIFORMS = st.one_of(st.just(0.0), st.just(TOP), st.floats(0.0, 1.0, exclude_max=True))
# (n, k, uniforms) per row; past n - 1 a row's uniforms stand for later draws.
LOCKSTEP_ROWS = st.lists(
    st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n), st.lists(UNIFORMS, min_size=39, max_size=39)
    )),
    min_size=1,
    max_size=8,
)


class TestLockstepShuffle:
    @settings(max_examples=150, deadline=None)
    @given(rows=LOCKSTEP_ROWS)
    @example(rows=[(40, 40, [TOP] * 39), (1, 1, [0.0] * 39), (2, 0, [0.0] * 39)])
    @example(rows=[(3, 2, [0.0] * 39), (40, 1, [0.0] * 39)])
    def test_each_row_heads_the_scalar_loops_shuffle(self, rows):
        """Row r's first n slots are a shuffle of range(n), and its first k
        are the scalar loop's sample of k on the row's first n - 1 uniforms."""
        n = np.array([size for size, _, _ in rows])
        perm = _lockstep_shuffle(n, np.array([us for _, _, us in rows]))
        for r, (size, k, us) in enumerate(rows):
            assert perm[r, :size].tolist() == _fisher_yates(range(size), size, us[: size - 1])
            assert perm[r, :k].tolist() == _fisher_yates(range(size), k, us[: size - 1])
            assert sorted(perm[r, :size].tolist()) == list(range(size))


class TestSampleWithoutReplacement:
    """The partial shuffle returns the first k entries of the full one and
    leaves the state where the full one does."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 4242])
    @pytest.mark.parametrize(
        "n, k", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (17, 0), (17, 9), (17, 17),
                 (230, 54), (2049, 3)],
    )
    def test_first_k_of_the_full_shuffle(self, seed, n, k):
        seq = [f"item{i}" for i in range(n)]
        rng, ref = Rng(seed), ReferenceRng(seed)
        rng.uniform()
        ref.uniform()
        sample = rng.sample_without_replacement(seq, k)
        assert sample == [seq[i] for i in ref.permutation(n)[:k]]
        assert rng._state == ref.state
        assert rng.uniform() == ref.uniform()

    def test_returns_the_items_of_seq(self):
        seq = [object() for _ in range(5)]
        sample = Rng(1).sample_without_replacement(seq, 5)
        assert sorted(map(id, sample)) == sorted(map(id, seq))

    @pytest.mark.parametrize("seed", [0, 2**64 - _GAMMA, 99])
    def test_long_scalar_runs_samples_and_array_draws_are_one_stream(self, seed):
        rng, ref = Rng(seed), ReferenceRng(seed)
        program = [
            ("scalars", 2046),
            ("sample", 40, 6),
            ("scalars", 5),
            ("array", 7),
            ("scalars", 2051),
            ("sample", 3, 3),
            ("array", 1),
            ("sample", 2053, 2),
            ("scalars", 4),
        ]
        for op, *args in program:
            if op == "scalars":
                got = np.array([rng.uniform() for _ in range(args[0])])
                expected = ref.uniforms(args[0])
            elif op == "array":
                got, expected = rng.uniform(args[0]), ref.uniforms(args[0])
            else:
                n, k = args
                got, expected = (np.array(x) for x in run_both(rng, ref, ("sample", n, k)))
            assert got.tobytes() == expected.tobytes(), op
            assert rng._state == ref.state, op


class TestParamSet:
    def test_a_float32_store_updates_in_float32(self):
        """A float32 store's four vectors and Adam's update of them stay
        float32; ``views`` reads a float64 vector in the store's layout."""
        given = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([1.0, -1.0])}
        ps = ParamSet.from_values(given, np.float32)
        ps["w"].grad[...] = 0.5
        adam_step(ps, lr=0.1, t=1)
        for flat in (ps.value, ps.grad, ps.adam_m, ps.adam_v):
            assert flat.dtype == np.float32
        assert (ps["w"].value != given["w"]).all() and ps["w"].adam_v.any()
        wide = ps.value.astype(np.float64)
        views = ps.views(wide)
        assert list(views) == ["b", "w"]
        for name, view in views.items():
            assert np.shares_memory(view, wide)
            assert view.tobytes() == ps.values[name].astype(np.float64).tobytes()

    def test_iteration_in_name_order(self):
        ps = ParamSet.from_values({"b": np.zeros(2), "a": np.zeros(2)})
        assert [p.name for p in ps] == ["a", "b"]

    def test_every_array_is_a_view_of_its_flat_vector(self):
        """Each parameter's value, gradient and moments are views into the
        four flat vectors, laid out in name order; the values start as
        copies of the given arrays."""
        given = {"z": np.arange(3.0), "a": np.arange(6.0).reshape(2, 3), "m": np.ones((0, 4))}
        ps = ParamSet.from_values(given)
        flats = ("value", "grad", "adam_m", "adam_v")
        assert all(getattr(ps, f).shape == (9,) for f in flats)
        assert ps.value.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 1.0, 2.0]
        lo = 0
        for p in ps:
            assert ps.values[p.name] is p.value
            for f in flats:
                arr = getattr(p, f)
                assert arr.shape == given[p.name].shape and arr.flags.c_contiguous
                assert arr.size == 0 or np.shares_memory(arr, getattr(ps, f)), (p.name, f)
                arr[...] = 7.0  # a write through the view lands in its slice
                assert (getattr(ps, f)[lo : lo + arr.size] == 7.0).all()
            assert not np.shares_memory(p.value, given[p.name])
            lo += p.value.size
        ps.zero_grads()
        assert not ps.grad.any()
        zeros = ParamSet({"w": (2, 3), "b": (2,)})
        assert zeros["w"].value.shape == (2, 3) and zeros.value.shape == (8,)
        assert not any(getattr(zeros, f).any() for f in flats)

    def test_value_round_trip(self):
        ps = ParamSet.from_values({"w": np.arange(6.0).reshape(2, 3)})
        snapshot = ps.copy_values()
        ps["w"].value += 1.0
        restored = ParamSet.from_values(snapshot)
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
        # w's rows are [0,1,2] and [3,4,5].
        ps = ParamSet.from_values({"w": np.arange(6.0).reshape(2, 3), "b": np.array([1.0, -1.0])})
        w, b = ps["w"], ps["b"]
        x = np.array([[1.0, 0.0, 2.0]])
        np.testing.assert_allclose(dense_forward(x, w.value, b.value), [[5.0, 12.0]])

    def test_gradients(self):
        rng = np.random.default_rng(0)
        ps = ParamSet.from_values({"w": rng.standard_normal((4, 7)), "b": rng.standard_normal(4)})
        w, b = ps["w"], ps["b"]
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
        ps = ParamSet.from_values({"w": rng.standard_normal((3, 3)), "b": np.zeros(3)})
        w, b = ps["w"], ps["b"]
        x = rng.standard_normal((2, 3))
        dy = rng.standard_normal((2, 3))
        dense_backward(dy, x, w, b)
        once = w.grad.copy()
        dense_backward(dy, x, w, b)
        np.testing.assert_allclose(w.grad, 2.0 * once)

    def test_width_mismatch_rejected(self):
        ps = ParamSet.from_values({"w": np.zeros((2, 3)), "b": np.zeros(2)})
        w, b = ps["w"], ps["b"]
        with pytest.raises(ValueError, match="width"):
            dense_forward(np.zeros((1, 4)), w.value, b.value)

    @pytest.mark.parametrize("n_in, n_out", [(2048, 128), (128, 32), (34, 2048)])
    def test_row_invariant_rows_have_the_bits_of_single_row_calls(self, n_in, n_out):
        """The model's three dense shapes: each row of a row-invariant batch
        equals the default form on that row alone."""
        rng = np.random.default_rng(n_in + n_out)
        w = rng.standard_normal((n_out, n_in))
        b = rng.standard_normal(n_out)
        for n in (1, 2, 7, 64, 65):
            if n_in == 2048:  # binary occupancy rows, as the encoder reads
                x = (rng.random((n, n_in)) < 0.1).astype(np.float64)
            else:
                x = rng.standard_normal((n, n_in))
            single = np.concatenate([dense_forward(x[i : i + 1], w, b) for i in range(n)])
            got = dense_forward(x, w, b, row_invariant=True)
            assert got.tobytes() == single.tobytes(), n


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

    def test_float32_sigmoid_stays_inside_the_open_interval(self):
        """float32 logits past exp's float32 range still give float32 values
        strictly inside (0, 1), where float64's clamps (1e-300 and the
        largest float64 below 1) would round to the endpoints."""
        x = np.array([-1e4, -104.0, -88.0, 0.0, 88.0, 104.0, 1e4], dtype=np.float32)
        y = sigmoid_forward(x)
        assert y.dtype == np.float32
        assert np.all(y > 0.0) and np.all(y < 1.0)
        assert y[3] == 0.5

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

    @pytest.mark.parametrize(
        "x",
        [
            np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 37.0, -37.0, 709.8, -709.8]),
            np.array([745.2, -745.2, 1e6, -1e6, np.inf, -np.inf, np.nan, 0.5, -2.0]),
        ],
    )
    def test_sigmoid_into_given_arrays_with_x_as_work_has_the_same_bits(self, x):
        """Writing to ``out`` and building exp(-|x|) over x itself, as
        inference does, changes no bit of the result."""
        want = reference_sigmoid(x)
        out, work = np.empty_like(x), x.copy()
        assert sigmoid_forward(work, out=out, work=work) is out
        assert_same_bits(out, want)

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
        ps = ParamSet.from_values({"k": rng.standard_normal((3, 6)), "b": rng.standard_normal(3)})
        k, b = ps["k"], ps["b"]
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
        ps = ParamSet.from_values({"k": rng.standard_normal((2, 5)), "b": rng.standard_normal(2)})
        k, b = ps["k"], ps["b"]
        x = rng.standard_normal((3, 2, 2, 5))
        worst = check_layer_gradients(
            lambda: conv1x1_forward(x, k.value, b.value),
            lambda r: [(conv1x1_backward(r, x, k, b), x)],
            [k, b],
            [x],
            seed=7,
        )
        assert worst < GRAD_TOL, f"conv1x1 gradient error {worst}"

    @pytest.mark.parametrize("batch", [1, 8, 9, 64, 513])
    def test_blocked_kernels_have_the_bits_of_the_batched_forms(self, batch):
        """256 pixels per scene, so batches of 8, 9, 64 and 513 end on and
        cross the forward GEMM's block edges. The forward has the bits of one
        4-D matmul, the einsum bias gradient those of sum(axis=0), and the
        input gradient of the first 8 channels those of the same channels of
        the full one, itself the 4-D matmul."""
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((batch, 16, 16, 16))
        dy = rng.standard_normal((batch, 16, 16, 8)) * 1e-3
        k_value, b_value = rng.standard_normal((8, 16)), rng.standard_normal(8)

        want = np.matmul(x, k_value.T)
        want += b_value
        assert conv1x1_forward(x, k_value, b_value).tobytes() == want.tobytes()

        dy2 = dy.reshape(-1, 8)
        want_k, want_b = np.zeros((8, 16)), np.zeros(8)
        want_k += dy2.T @ x.reshape(-1, 16)
        want_b += dy2.sum(axis=0)
        full = np.matmul(dy, k_value)
        for n_in in (None, 8):
            ps = ParamSet.from_values({"k": k_value, "b": b_value})
            k, b = ps["k"], ps["b"]
            got = conv1x1_backward(dy, x, k, b, n_in)
            assert got.tobytes() == np.ascontiguousarray(full[..., : n_in or 16]).tobytes()
            assert k.grad.tobytes() == want_k.tobytes()
            assert b.grad.tobytes() == want_b.tobytes()


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
        ps = ParamSet.from_values({"w": np.array([1.0, -2.0, 3.0])})
        p = ps["w"]
        g = np.array([0.5, -4.0, 1e-3])
        p.grad[:] = g
        lr, eps = 0.01, 1e-8
        adam_step(ps, lr=lr, epsilon=eps, t=1)
        expected = np.array([1.0, -2.0, 3.0]) - lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(p.value, expected, rtol=1e-12)

    def test_zero_gradient_is_a_fixed_point(self):
        ps = ParamSet.from_values({"w": np.array([1.0, 2.0])})
        p = ps["w"]
        adam_step(ps, t=1)
        np.testing.assert_array_equal(p.value, [1.0, 2.0])

    def test_zero_lr_freezes_values(self):
        ps = ParamSet.from_values({"w": np.array([1.0])})
        p = ps["w"]
        p.grad[:] = 5.0
        adam_step(ps, lr=0.0, t=1)
        np.testing.assert_array_equal(p.value, [1.0])

    def test_grads_zeroed_after_step(self):
        ps = ParamSet.from_values({"w": np.array([1.0])})
        p = ps["w"]
        p.grad[:] = 3.0
        adam_step(ps, t=1)
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_descends_a_quadratic(self):
        """Loss 0.5*(w-5)^2 shrinks by orders of magnitude over an Adam run.

        Near the minimum Adam hops around at roughly lr-sized steps, so the
        check is a large relative reduction rather than exact convergence.
        """
        ps = ParamSet.from_values({"w": np.array([0.0])})
        p = ps["w"]
        losses = []
        for t in range(1, 201):
            losses.append(0.5 * float((p.value[0] - 5.0) ** 2))
            p.grad[:] = p.value - 5.0
            adam_step(ps, lr=0.05, t=t)
        assert losses[0] == pytest.approx(12.5)
        assert losses[-1] < losses[0] / 1000
        assert losses[0] > losses[50] > losses[199]

    def test_nonfinite_gradient_names_parameter(self):
        ps = ParamSet.from_values({"enc.w": np.array([1.0])})
        p = ps["enc.w"]
        p.grad[:] = np.nan
        with pytest.raises(FloatingPointError, match="enc.w"):
            adam_step(ps, t=1)

    def test_step_index_must_be_positive(self):
        ps = ParamSet.from_values({"w": np.array([1.0])})
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
# A 3x3 parameter that the first block boundary cuts after its fourth element.
ADAM_SIZES_CUT = [(1,), (3, 3), (B - 4,)]


class TestAdamInPlace:
    """The blocked in-place update against the whole-array formula."""

    @pytest.mark.parametrize(
        "shapes", [ADAM_SIZES_1D, ADAM_SIZES_2D, ADAM_SIZES_CUT], ids=["1d", "2d", "cut"]
    )
    @pytest.mark.parametrize("t", [1, 2, 50])
    @pytest.mark.parametrize(
        "hyper",
        [dict(lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8), dict(lr=0.03, beta1=0.8, beta2=0.99, eps=1e-6)],
        ids=["default", "custom"],
    )
    def test_bit_equal_to_the_whole_array_formula(self, shapes, t, hyper):
        ps = ParamSet.from_values({
            f"p{i}": np.random.default_rng(i).standard_normal(shape)
            for i, shape in enumerate(reversed(shapes))
        })
        # The sweep runs over the flat store: some block boundary falls
        # strictly inside a parameter, so one parameter spans two blocks.
        starts = np.cumsum([p.value.size for p in ps])
        assert any(lo < k < hi for lo, hi in zip([0, *starts], starts)
                   for k in range(B, ps.value.size, B))
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
        ps = ParamSet.from_values({"w": np.ones((4, B // 3))})
        p = ps["w"]
        random_param_state(ps, seed=0)
        arrays = (p.value, p.grad, p.adam_m, p.adam_v)
        before = p.value.copy()
        adam_step(ps, t=1)
        assert all(a is b for a, b in zip((p.value, p.grad, p.adam_m, p.adam_v), arrays))
        assert not np.array_equal(p.value, before)

    def test_non_contiguous_input_is_still_updated(self):
        source = np.arange(12.0).reshape(3, 4)
        ps = ParamSet.from_values({"w": source.T})
        p = ps["w"]
        assert p.value.flags.c_contiguous
        assert all(a.flags.c_contiguous for a in (p.grad, p.adam_m, p.adam_v))
        p.grad[...] = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
        value, m, v = reference_adam(p.value, p.grad, p.adam_m, p.adam_v, 0.01, 0.9, 0.999, 1e-8, 1)
        adam_step(ps, lr=0.01, t=1)
        assert p.value.tobytes() == value.tobytes()
        assert p.adam_m.tobytes() == m.tobytes() and p.adam_v.tobytes() == v.tobytes()
        np.testing.assert_array_equal(source, np.arange(12.0).reshape(3, 4))

    def test_non_finite_last_gradient_changes_nothing(self):
        ps = ParamSet.from_values({
            name: np.random.default_rng(len(name)).standard_normal(shape)
            for name, shape in (("a", (B + 5,)), ("b", (3, 4)), ("z", (7,)))
        })
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
