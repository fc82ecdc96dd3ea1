"""Tests for the autoencoder variants: wiring, loss, gradients, training, checkpoints."""

import base64
import dataclasses
import hashlib
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavad import adnet, nn
from uavad.adnet import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointShapeError,
    CheckpointVersionError,
    Dataset,
    GpsNormalization,
    ModelConfig,
    TrainConfig,
    VARIANTS,
    expected_param_shapes,
    forward,
    gradient_check,
    init_params,
    load_checkpoint,
    loss,
    save_checkpoint,
    train,
)
from uavad.grid import GpsLabel, GridSpec, GridTensor
from uavad.nn import Rng, adam_step
from uavad.world import default_world, sample_dataset


def tiny_config(variant: str) -> ModelConfig:
    """A 4x4 grid with 2 channels keeps full-model checks fast."""
    return ModelConfig(
        variant=variant, grid=GridSpec(cells_x=4, cells_y=4), n_o=2, n_h=3, hidden1=6
    )


def random_batch(config: ModelConfig, batch: int, seed: int):
    """Matching (x, gps, eps) arrays for a forward pass; gps is None when unused."""
    rng = Rng(seed)
    x = (rng.uniform((batch, config.hidden3)) < 0.3).astype(np.float64)
    gps = rng.gaussian((batch, 2)) if config.use_gps else None
    eps = rng.gaussian((batch, config.n_h))
    return x, gps, eps


def untrained_checkpoint() -> Checkpoint:
    """The untrained full-size ``uav_adnet`` of acceptance criterion 8."""
    config = ModelConfig("uav_adnet")
    return Checkpoint(config, GpsNormalization(41.1, 29.0), init_params(config, 0).copy_values())


def tiny_checkpoint(variant: str = "uav_adnet", seed: int = 0) -> Checkpoint:
    config = tiny_config(variant)
    params = init_params(config, seed)
    return Checkpoint(
        config=config,
        gps_normalization=GpsNormalization(lat_ref=41.1, lon_ref=29.0),
        values=params.copy_values(),
        training_meta={"epochs_run": 1, "best_val_loss": 1.0, "seed": seed},
    )


def split_checkpoint(path) -> tuple[dict, bytes]:
    """A saved checkpoint's header line, parsed, and the payload bytes after it."""
    with open(path, "rb") as f:
        return json.loads(f.readline()), f.read()


def join_checkpoint(path, header: dict, payload: bytes) -> None:
    """Write ``header`` as the first line of ``path`` and ``payload`` after it."""
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("ascii") + b"\n" + payload)


def param_bytes(header: dict, name: str) -> slice:
    """Where parameter ``name``'s bytes lie in the payload that ``header`` describes."""
    start = 0
    for entry, shape in header["params"]:
        end = start + 8 * math.prod(shape)
        if entry == name:
            return slice(start, end)
        start = end
    raise KeyError(name)


def with_value(payload: bytes, at: slice, index: int, value: float) -> bytes:
    """``payload`` with the float64 at ``index`` of the parameter at ``at`` replaced."""
    values = np.frombuffer(payload, "<f8").copy()
    values[at.start // 8 + index] = value
    return values.tobytes()


def without_param(header: dict, payload: bytes, name: str) -> bytes:
    """Drop ``name`` from ``header``'s params, and return ``payload`` without its bytes."""
    at = param_bytes(header, name)
    header["params"] = [entry for entry in header["params"] if entry[0] != name]
    return payload[: at.start] + payload[at.stop :]


def format_2_document(ck: Checkpoint) -> str:
    """``ck`` in the layout of checkpoint format 2: one JSON document whose
    parameters hold the base64 of their little-endian float64 bytes."""
    params = {
        name: {"shape": list(arr.shape),
               "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}
        for name, arr in sorted(ck.values.items())
    }
    return json.dumps({
        "format_version": 2, "config": ck.config.to_dict(),
        "gps_normalization": ck.gps_normalization.to_dict(), "params": params,
        "training_meta": ck.training_meta,
    })


# Parameter names in the order of a saved header's params.
PARAMS = sorted(expected_param_shapes(tiny_config("vae")))


class TestModelConfig:
    def test_variant_wiring(self):
        assert ModelConfig("uav_adnet").use_gps and ModelConfig("uav_adnet").use_copy_crop
        assert not ModelConfig("uav_adnet_wo_gps").use_gps
        assert ModelConfig("uav_adnet_wo_gps").use_copy_crop
        assert ModelConfig("cvae").use_gps and not ModelConfig("cvae").use_copy_crop
        assert not ModelConfig("vae").use_gps and not ModelConfig("vae").use_copy_crop

    def test_variant_registry_order(self):
        assert VARIANTS == ("uav_adnet", "uav_adnet_wo_gps", "cvae", "vae")

    def test_default_output_width(self):
        assert ModelConfig("vae").hidden3 == 16 * 16 * 8
        assert tiny_config("vae").hidden3 == 4 * 4 * 2

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            ModelConfig("autoencoder")

    def test_nonpositive_widths_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig("vae", n_h=0)

    def test_dict_round_trip(self):
        config = tiny_config("cvae")
        assert ModelConfig.from_dict(config.to_dict()) == config


class TestGpsNormalization:
    def test_reference_point_maps_to_origin(self):
        gn = GpsNormalization(lat_ref=41.1, lon_ref=29.0)
        assert np.allclose(gn.normalize_array([[41.1, 29.0]]), [[0.0, 0.0]])

    def test_degree_offsets_are_scaled_to_order_one(self):
        """A 1e-4 degree offset (about 10 m) becomes a unit-sized input."""
        gn = GpsNormalization(lat_ref=41.1, lon_ref=29.0)
        out = gn.normalize_array([[41.1 + 1e-4, 29.0 - 2e-4]])
        assert np.allclose(out, [[1.0, -2.0]])

    def test_fit_centers_on_the_mean(self):
        pts = np.array([[41.10, 29.00], [41.12, 29.04]])
        gn = GpsNormalization.fit(pts)
        assert gn.lat_ref == pytest.approx(41.11)
        assert gn.lon_ref == pytest.approx(29.02)
        assert np.allclose(gn.normalize_array(pts).mean(axis=0), [0.0, 0.0], atol=1e-9)

    def test_array_form_matches_scalar_form(self):
        rng = Rng(3)
        gn = GpsNormalization(lat_ref=41.1, lon_ref=29.0)
        pts = np.column_stack(
            [41.1 + rng.gaussian(20) * 1e-3, 29.0 + rng.gaussian(20) * 1e-3]
        )
        batch = gn.normalize_array(pts)
        for i in range(20):
            lat, lon = float(pts[i, 0]), float(pts[i, 1])
            assert batch[i].tolist() == [(lat - 41.1) * 1e4, (lon - 29.0) * 1e4]

    def test_dict_round_trip(self):
        gn = GpsNormalization(lat_ref=41.1, lon_ref=29.0, scale=1e4)
        assert GpsNormalization.from_dict(gn.to_dict()) == gn


class TestParameterWiring:
    def test_gps_widens_the_decoder_input(self):
        for variant in VARIANTS:
            config = tiny_config(variant)
            shapes = expected_param_shapes(config)
            want = config.n_h + (2 if config.use_gps else 0)
            assert shapes["dec.w"] == (config.hidden3, want), variant

    def test_copy_crop_widens_the_output_convolution(self):
        for variant in VARIANTS:
            config = tiny_config(variant)
            shapes = expected_param_shapes(config)
            want = 2 * config.n_o if config.use_copy_crop else config.n_o
            assert shapes["out.k"] == (config.n_o, want), variant

    def test_init_matches_the_shape_table(self):
        for variant in VARIANTS:
            config = tiny_config(variant)
            params = init_params(config, 0)
            shapes = expected_param_shapes(config)
            assert sorted(params.values) == sorted(shapes)
            for p in params:
                assert p.value.shape == shapes[p.name], (variant, p.name)

    def test_init_zero_biases_and_bounded_weights(self):
        config = tiny_config("uav_adnet")
        params = init_params(config, 7)
        for name in ("enc.b", "mu.b", "logvar.b", "dec.b", "out.b"):
            assert not params[name].value.any(), name
        for name, shape in expected_param_shapes(config).items():
            if name.endswith(".b"):
                continue
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            w = params[name].value
            assert np.all(np.abs(w) <= limit), name
            assert w.std() > 0, name

    def test_init_is_seed_reproducible(self):
        a = init_params(tiny_config("cvae"), 42).copy_values()
        b = init_params(tiny_config("cvae"), 42).copy_values()
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestForward:
    def test_shapes_one_row_and_batch(self):
        for variant in VARIANTS:
            config = tiny_config(variant)
            params = init_params(config, 1)
            x, gps, eps = random_batch(config, 5, 2)
            x_hat, mu, log_var = forward(config, params.values, x, gps, eps)
            assert x_hat.shape == (5, config.hidden3)
            assert mu.shape == (5, config.n_h) and log_var.shape == (5, config.n_h)
            g1 = gps[:1] if gps is not None else None
            one = forward(config, params.values, x[:1], g1, eps[:1])
            assert one[0].shape == (1, config.hidden3)

    def test_outputs_are_strict_probabilities(self):
        for variant in VARIANTS:
            config = tiny_config(variant)
            params = init_params(config, 3)
            x, gps, eps = random_batch(config, 8, 4)
            x_hat, _, _ = forward(config, params.values, x, gps, eps)
            assert np.all(x_hat > 0.0) and np.all(x_hat < 1.0)

    def test_batch_rows_match_single_calls(self):
        config = tiny_config("uav_adnet")
        params = init_params(config, 5)
        x, gps, eps = random_batch(config, 6, 6)
        batch_out = forward(config, params.values, x, gps, eps)[0]
        for i in range(6):
            single = forward(config, params.values, x[i : i + 1], gps[i : i + 1], eps[i : i + 1])[0]
            assert np.allclose(batch_out[i], single[0], atol=1e-12), i

    def test_no_noise_means_zero_noise(self):
        """eps=None is the deterministic posterior-mean mode."""
        config = tiny_config("cvae")
        params = init_params(config, 8)
        x, gps, _ = random_batch(config, 4, 9)
        default = forward(config, params.values, x, gps, None)
        explicit = forward(config, params.values, x, gps, np.zeros((4, config.n_h)))
        assert np.array_equal(default[0], explicit[0])

    def test_forward_is_deterministic(self):
        config = tiny_config("vae")
        params = init_params(config, 10)
        x, _, eps = random_batch(config, 4, 11)
        a = forward(config, params.values, x, None, eps)[0]
        b = forward(config, params.values, x, None, eps)[0]
        assert np.array_equal(a, b)

    def test_gps_input_changes_the_reconstruction(self):
        for variant in ("uav_adnet", "cvae"):
            config = tiny_config(variant)
            params = init_params(config, 12)
            x, _, eps = random_batch(config, 1, 13)
            near = forward(config, params.values, x, np.array([[0.0, 0.0]]), eps)[0]
            far = forward(config, params.values, x, np.array([[5.0, 5.0]]), eps)[0]
            assert not np.allclose(near, far), variant

    def test_gps_presence_is_enforced_both_ways(self):
        x, gps = np.zeros((1, tiny_config("vae").hidden3)), np.zeros((1, 2))
        with pytest.raises(ValueError, match="uav_adnet"):
            forward(tiny_config("uav_adnet"), init_params(tiny_config("uav_adnet"), 0).values, x)
        with pytest.raises(ValueError, match="vae"):
            forward(tiny_config("vae"), init_params(tiny_config("vae"), 0).values, x, gps)

    def test_bad_widths_are_rejected(self):
        config = tiny_config("uav_adnet")
        params = init_params(config, 0)
        x, gps = np.zeros((1, config.hidden3)), np.zeros((1, 2))
        with pytest.raises(ValueError, match="input vector"):
            forward(config, params.values, np.zeros((1, config.hidden3 + 1)), gps)
        with pytest.raises(ValueError, match="gps input"):
            forward(config, params.values, x, np.zeros((1, 3)))
        with pytest.raises(ValueError, match="latent noise"):
            forward(config, params.values, x, gps, np.zeros((1, config.n_h + 1)))

    def test_a_single_vector_is_not_a_batch(self):
        config = tiny_config("uav_adnet")
        params = init_params(config, 0)
        x, gps, eps = np.zeros((1, config.hidden3)), np.zeros((1, 2)), np.zeros((1, config.n_h))
        with pytest.raises(ValueError, match=r"input vector .* got shape \(\d+,\)"):
            forward(config, params.values, x[0], gps, eps)
        with pytest.raises(ValueError, match=r"gps input .* got shape \(2,\)"):
            forward(config, params.values, x, gps[0], eps)
        with pytest.raises(ValueError, match=r"latent noise .* got shape \(\d+,\)"):
            forward(config, params.values, x, gps, eps[0])

    def test_batch_size_mismatches_are_rejected(self):
        config = tiny_config("uav_adnet")
        params = init_params(config, 0)
        x = np.zeros((3, config.hidden3))
        with pytest.raises(ValueError, match="batch size"):
            forward(config, params.values, x, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="batch size"):
            forward(config, params.values, x, np.zeros((3, 2)), np.zeros((2, config.n_h)))


class TestParameterStore:
    def test_values_are_the_live_arrays_that_adam_updates(self):
        config = tiny_config("uav_adnet")
        params = init_params(config, 6)
        x, gps, eps = random_batch(config, 4, seed=7)
        before = forward(config, params.values, x, gps, eps)[0]
        _, _, _, cache = adnet._forward_cached(config, params.values, x, gps, eps)
        adnet.backward(config, params, cache)
        adam_step(params, lr=0.01, t=1)
        for p in params:
            assert params.values[p.name] is p.value, p.name
        after = forward(config, params.values, x, gps, eps)[0]
        assert not np.array_equal(after, before)
        assert np.array_equal(after, forward(config, params.copy_values(), x, gps, eps)[0])

    def test_checkpoint_keeps_c_contiguous_float64_arrays(self):
        config = tiny_config("vae")
        values = init_params(config, 0).copy_values()
        values["enc.w"] = np.asfortranarray(values["enc.w"])
        ck = Checkpoint(config, GpsNormalization(41.1, 29.0), values)
        for name, arr in ck.values.items():
            assert arr.dtype == np.float64 and arr.flags.c_contiguous, name
            assert (arr is values[name]) == (name != "enc.w"), name
        assert np.array_equal(ck.values["enc.w"], values["enc.w"])

    def test_first_reconstruct_retains_no_parameter_copy(self):
        """Inference reads the checkpoint's own arrays: no second copy of the
        ~342 000 parameters and no gradient or Adam buffers stay behind."""
        ck = untrained_checkpoint()
        x = np.zeros((1, ck.config.hidden3), dtype=np.uint8)
        tracemalloc.start()
        try:
            probs = ck.reconstruct(x, np.array([[41.1, 29.0]]))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert probs.shape == (1, ck.config.hidden3)
        assert retained < 1_000_000


def traced_peak(fn):
    """``fn()`` and the peak of the memory that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestBoundedMemory:
    def test_reconstruct_holds_one_pass_at_a_time(self):
        """Less its result, a 600-row call peaks no higher than one pass of
        ``RECONSTRUCT_ROWS`` rows: each pass's arrays are gone before the
        next is made."""
        ck = untrained_checkpoint()
        rng = Rng(8)
        x = (rng.uniform((600, ck.config.hidden3)) < 0.05).astype(np.uint8)
        gps = np.column_stack([41.1 + rng.gaussian(600) * 1e-4, 29.0 + rng.gaussian(600) * 1e-4])
        rows = adnet.RECONSTRUCT_ROWS
        one, one_peak = traced_peak(lambda: ck.reconstruct(x[:rows], gps[:rows]))
        probs, peak = traced_peak(lambda: ck.reconstruct(x, gps))
        assert peak - probs.nbytes < 1.25 * (one_peak - one.nbytes)

    def test_save_checkpoint_holds_no_copy_of_a_parameter(self, tmp_path):
        """Saving writes each parameter from its own array: beside the file's
        write buffer (``st_blksize`` bytes), the peak stays below ``dec.b``'s
        16 KiB plus the header line, so no copy of ``enc.w``, ``dec.w``,
        ``mu.w`` or ``logvar.w`` was made."""
        ck = untrained_checkpoint()
        path = tmp_path / "ck.ckpt"
        _, peak = traced_peak(lambda: save_checkpoint(ck, str(path)))
        with open(path, "rb") as f:
            header = f.readline()
        assert len(header) < 1024
        assert peak - os.stat(path).st_blksize < ck.values["dec.b"].nbytes + len(header)

    def test_load_checkpoint_holds_little_beside_the_parameters(self, tmp_path):
        """Loading reads each parameter straight into its array: the peak
        stays below 1.1 times the parameters' own bytes, with no copy of the
        file's text or of a decoded parameter."""
        ck = untrained_checkpoint()
        path = tmp_path / "ck.ckpt"
        save_checkpoint(ck, str(path))
        loaded, peak = traced_peak(lambda: load_checkpoint(str(path)))
        own = sum(arr.nbytes for arr in loaded.values.values())
        assert own == sum(arr.nbytes for arr in ck.values.values()) > 2_000_000
        assert peak < 1.1 * own


class TestLoss:
    def test_uninformative_prediction_costs_log2_per_element(self):
        """x=[1,0] against flat 0.5 predictions costs exactly 2*ln(2)."""
        lb = loss(
            np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.zeros(2), np.zeros(2)
        )
        assert abs(lb.rec - 2.0 * math.log(2.0)) < 1e-12
        assert lb.reg == 0.0
        assert abs(lb.total - lb.rec - lb.reg) < 1e-15

    def test_regularizer_at_the_prior_is_exactly_zero(self):
        lb = loss(np.zeros(4), np.full(4, 0.5), np.zeros(3), np.zeros(3))
        assert lb.reg == 0.0

    def test_unit_mean_unit_variance_costs_one_half(self):
        """A one-dimensional latent at mu=1, sigma^2=1 has divergence 1/2."""
        lb = loss(np.zeros(2), np.full(2, 0.5), np.array([1.0]), np.array([0.0]))
        assert abs(lb.reg - 0.5) < 1e-12

    def test_regularizer_is_never_negative(self):
        """The divergence from the unit prior is non-negative for any statistics."""
        rng = Rng(2024)
        x = np.zeros(2)
        x_hat = np.full(2, 0.5)
        worst = np.inf
        for _ in range(10_000):
            mu = rng.gaussian(3)
            log_var = rng.gaussian(3)
            worst = min(worst, loss(x, x_hat, mu, log_var).reg)
        assert worst >= 0.0

    def test_near_perfect_reconstruction_costs_almost_nothing(self):
        x = np.array([1.0, 0.0, 1.0])
        x_hat = np.array([1.0 - 1e-9, 1e-9, 1.0 - 1e-9])
        assert loss(x, x_hat, np.zeros(1), np.zeros(1)).rec <= 1e-6

    def test_saturated_predictions_stay_finite(self):
        """Exact 0/1 predictions are clamped rather than producing infinities."""
        lb = loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(1), np.zeros(1))
        assert np.isfinite(lb.rec)
        wrong = lb.rec
        right = loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.zeros(1), np.zeros(1)).rec
        assert right < math.log(2.0) < wrong

    def test_batch_mean_semantics(self):
        """Duplicating a sample leaves the loss unchanged; mixing averages it."""
        x_a, xh_a = np.array([1.0, 0.0]), np.array([0.8, 0.3])
        x_b, xh_b = np.array([0.0, 0.0]), np.array([0.1, 0.2])
        mu, lv = np.array([0.5]), np.array([0.2])
        single_a = loss(x_a, xh_a, mu, lv).total
        single_b = loss(x_b, xh_b, mu, lv).total
        doubled = loss(
            np.stack([x_a, x_a]), np.stack([xh_a, xh_a]), np.stack([mu, mu]), np.stack([lv, lv])
        ).total
        mixed = loss(
            np.stack([x_a, x_b]), np.stack([xh_a, xh_b]), np.stack([mu, mu]), np.stack([lv, lv])
        ).total
        assert abs(doubled - single_a) < 1e-12
        assert abs(mixed - 0.5 * (single_a + single_b)) < 1e-12

    def test_non_finite_reconstruction_is_reported(self):
        with pytest.raises(FloatingPointError, match="reconstruction"):
            loss(np.array([1.0]), np.array([np.nan]), np.zeros(1), np.zeros(1))

    def test_non_finite_regularizer_is_reported(self):
        with pytest.raises(FloatingPointError, match="regularizer"):
            loss(np.array([1.0]), np.array([0.5]), np.array([np.inf]), np.zeros(1))

    def test_reconstruction_term_is_bit_equal_to_the_two_log_form(self):
        """On binary x, the summands log(x_hat) on occupied cells and
        log1p(-x_hat) elsewhere are x*log(x_hat) + (1-x)*log1p(-x_hat)."""
        rng = np.random.default_rng(12)
        for _ in range(100):
            b, d = int(rng.integers(1, 70)), int(rng.integers(1, 300))
            x = (rng.random((b, d)) < rng.random()).astype(np.float64)
            x_hat = rng.random((b, d)) ** rng.uniform(0.2, 5.0)  # edges too
            x_hat[rng.random((b, d)) < 0.02] = 0.0
            x_hat[rng.random((b, d)) < 0.02] = 1.0
            kept = x_hat.copy()
            xh = np.clip(x_hat, adnet._LOSS_CLIP, 1.0 - adnet._LOSS_CLIP)
            want = float(-np.sum(x * np.log(xh) + (1.0 - x) * np.log1p(-xh)) / b)
            assert loss(x, x_hat, np.zeros(2), np.zeros(2)).rec == want
            assert x_hat.tobytes() == kept.tobytes()  # the caller's array is not written


class TestFullModelGradients:
    def test_analytic_gradients_match_finite_differences(self):
        """Every parameter of every variant agrees with central differences."""
        for variant in VARIANTS:
            errors = gradient_check(tiny_config(variant), seed=0, batch=2)
            assert set(errors) == set(expected_param_shapes(tiny_config(variant)))
            for name, err in errors.items():
                assert err < 1e-4, f"{variant}/{name}: {err}"

    def test_gradient_check_is_reproducible(self):
        a = gradient_check(tiny_config("vae"), seed=5)
        b = gradient_check(tiny_config("vae"), seed=5)
        assert a == b

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_float32_gradients_are_within_1e_5_of_the_float64_ones(self, variant):
        """One float32 forward and backward, as a training step runs them, on
        the float64 pass's inputs and parameters rounded to float32: every
        gradient is float32 and within 1e-5 of the float64 one, relative to
        its largest magnitude. One float32 rounding is at most ~6e-8 of a
        value, so the bound leaves room for ~170 of them."""
        config = tiny_config(variant)
        x, gps, eps = random_batch(config, 8, seed=3)
        wide = init_params(config, 4)
        narrow = nn.ParamSet.from_values(wide.values, np.float32)
        for params, dtype in ((wide, np.float64), (narrow, np.float32)):
            args = [None if a is None else a.astype(dtype) for a in (x, gps, eps)]
            x_hat, _, _, cache = adnet._forward_cached(config, params.values, *args)
            assert x_hat.dtype == dtype
            assert forward(config, params.values, *args)[0].tobytes() == x_hat.tobytes()
            adnet.backward(config, params, cache)
        for p in narrow:
            want = wide[p.name].grad
            assert p.grad.dtype == np.float32
            assert np.max(np.abs(p.grad - want)) <= 1e-5 * np.max(np.abs(want)), p.name


def reference_backward(config: ModelConfig, params, cache: dict) -> None:
    """adnet.backward as it was with the encoder's input gradient still
    computed (and dropped) by nn.dense_backward."""
    b = cache["x"].shape[0]
    dlogits = (cache["x_hat4"] - cache["x4"]) / b
    dconv_in = nn.conv1x1_backward(dlogits, cache["conv_in"], params["out.k"], params["out.b"])
    dgrid4 = dconv_in[..., : config.n_o] if config.use_copy_crop else dconv_in
    dh3_pre = nn.relu_backward(dgrid4.reshape(b, -1), cache["h3"])
    ddec_in = nn.dense_backward(dh3_pre, cache["dec_in"], params["dec.w"], params["dec.b"])
    dz = ddec_in[:, : config.n_h] if config.use_gps else ddec_in
    dmu, dlog_var = nn.reparameterize_backward(dz, cache["log_var"], cache["eps"])
    dmu = dmu + cache["mu"] / b
    dlog_var = dlog_var + 0.5 * (np.exp(cache["log_var"]) - 1.0) / b
    dh1 = nn.dense_backward(dmu, cache["h1"], params["mu.w"], params["mu.b"])
    dh1 += nn.dense_backward(dlog_var, cache["h1"], params["logvar.w"], params["logvar.b"])
    dh1_pre = nn.relu_backward(dh1, cache["h1_pre"])
    nn.dense_backward(dh1_pre, cache["x"], params["enc.w"], params["enc.b"])


class TestBackwardReference:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradients_are_bit_equal_to_the_reference(self, variant):
        """Full-size model, batch 8, on top of non-zero gradients, so that
        accumulation (not assignment) is checked too."""
        config = ModelConfig(variant)
        x, gps, eps = random_batch(config, 8, seed=21)
        grads = {}
        for run in (adnet.backward, reference_backward):
            params = init_params(config, 4)
            for p in params:
                p.grad[...] = np.random.default_rng(len(p.name)).standard_normal(p.grad.shape)
            _, _, _, cache = adnet._forward_cached(config, params.values, x, gps, eps)
            run(config, params, cache)
            grads[run] = {p.name: p.grad.tobytes() for p in params}
        assert grads[adnet.backward] == grads[reference_backward]

    @pytest.mark.parametrize("batch", [1, 8, 36, 48, 64, 120])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_live_block_step_matches_the_full_width_step(self, variant, batch):
        """As in train: enc.w as the block of the columns that the batch
        sets, read against those columns of the rows. h1_pre and every
        gradient agree with the full-width step within 1e-12 of the array's
        largest magnitude (a sum that cancels to near 0 has no small error
        relative to itself); the block's gradient with the full one's at
        those columns. The batches span a single row, a short last batch
        and batches past the 64 rows of a training step."""
        config = ModelConfig(variant)
        x, gps, eps = random_batch(config, batch, seed=batch)
        x[:, Rng(7).uniform(config.hidden3) >= 0.2] = 0.0  # columns no row sets
        live = np.flatnonzero(x.any(axis=0))
        assert 0 < live.size < config.hidden3
        full = init_params(config, 4)
        block = nn.ParamSet.from_values({**full.values, "enc.w": full.values["enc.w"][:, live]})
        _, _, _, want = adnet._forward_cached(config, full.values, x, gps, eps)
        adnet.backward(config, full, want)
        x_live = np.ascontiguousarray(x[:, live])
        _, _, _, got = adnet._forward_cached(config, block.values, x, gps, eps, x_enc=x_live)
        adnet.backward(config, block, got)

        def error(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(b))

        assert error(got["h1_pre"], want["h1_pre"]) < 1e-12
        for p in block:
            ref = full[p.name].grad[:, live] if p.name == "enc.w" else full[p.name].grad
            assert error(p.grad, ref) < 1e-12, p.name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batches_of_several_sizes_accumulate_the_reference_bits(self, variant):
        """As in train: the forward pass and backward of batches of 64, 48, 8
        and 64 rows in turn, each accumulating on the last batch's
        gradients; after every batch they have the bits of the reference's."""
        config = ModelConfig(variant)
        ref, got = init_params(config, 4), init_params(config, 4)
        for i, batch in enumerate((64, 48, 8, 64)):
            x, gps, eps = random_batch(config, batch, seed=30 + i)
            _, _, _, cache = adnet._forward_cached(config, ref.values, x, gps, eps)
            reference_backward(config, ref, cache)
            _, _, _, cache = adnet._forward_cached(config, got.values, x, gps, eps)
            adnet.backward(config, got, cache)
            for p in got:
                assert p.grad.tobytes() == ref[p.name].grad.tobytes(), (batch, p.name)


def _binary_dataset(n: int, width: int, seed: int, patterns: int = 4) -> Dataset:
    """n samples cycling over a few fixed binary patterns, with jittered GPS."""
    rng = Rng(seed)
    base = (rng.uniform((patterns, width)) < 0.25).astype(np.uint8)
    x = base[np.arange(n) % patterns]
    gps = np.column_stack(
        [41.1 + rng.gaussian(n) * 1e-4, 29.0 + rng.gaussian(n) * 1e-4]
    )
    return Dataset(x, gps)


class TestDataset:
    def test_from_scenes_flattens_in_order(self):
        spec = GridSpec()
        a = GridTensor(spec).with_cell(0, 0, 0)
        b = GridTensor(spec).with_cell(2, 3, 4)
        ds = Dataset.from_scenes([(a, GpsLabel(41.1, 29.0)), (b, GpsLabel(41.2, 29.1))])
        assert ds.n == 2
        assert ds.x.dtype == np.uint8 and ds.gps.dtype == np.float64
        assert ds.x[0].sum() == 1 and ds.x[0][0] == 1
        assert np.allclose(ds.gps[1], [41.2, 29.1])

    def test_rejects_non_binary_values(self):
        with pytest.raises(ValueError, match="binary"):
            Dataset(np.array([[0, 2]]), np.zeros((1, 2)))

    @pytest.mark.parametrize("value", [0.5, 1.7, np.nan, 257])
    def test_rejects_values_that_the_uint8_cast_would_turn_binary(self, value):
        with pytest.raises(ValueError, match="binary"):
            Dataset(np.array([[0.0, value]]), np.zeros((1, 2)))

    def test_binary_floats_and_bools_are_kept_as_uint8(self):
        for x in (np.array([[0.0, 1.0]]), np.array([[False, True]])):
            ds = Dataset(x, np.zeros((1, 2)))
            assert ds.x.dtype == np.uint8 and ds.x.tolist() == [[0, 1]]

    def test_rejects_mismatched_gps(self):
        with pytest.raises(ValueError, match="gps"):
            Dataset(np.zeros((3, 4), dtype=np.uint8), np.zeros((2, 2)))


class TestTraining:
    def test_loss_decreases_on_a_learnable_dataset(self):
        config = tiny_config("vae")
        tc = TrainConfig(lr=0.01, batch_size=8, max_epochs=8, seed=0)
        train_set = _binary_dataset(32, config.hidden3, 5)
        val_set = _binary_dataset(8, config.hidden3, 6)
        checkpoint, history = train(config, train_set, val_set, tc)
        assert 1 <= len(history) <= tc.max_epochs
        assert history[-1].train_loss < history[0].train_loss
        assert all(
            np.isfinite([h.train_loss, h.val_loss, h.val_mse]).all() for h in history
        )

    def test_same_seed_reproduces_history_and_parameters(self):
        config = tiny_config("uav_adnet")
        tc = TrainConfig(lr=0.005, batch_size=8, max_epochs=4, seed=9)
        train_set = _binary_dataset(24, config.hidden3, 7)
        val_set = _binary_dataset(8, config.hidden3, 8)
        ck_a, hist_a = train(config, train_set, val_set, tc)
        ck_b, hist_b = train(config, train_set, val_set, tc)
        assert all(h.wall_s > 0 for h in hist_a + hist_b)
        assert hist_a == hist_b
        first = hist_a[0]  # wall seconds are not part of equality
        assert first == adnet.EpochStats(first.train_loss, first.val_loss, first.val_mse, 1e9)
        assert all(np.array_equal(ck_a.values[k], ck_b.values[k]) for k in ck_a.values)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_columns_no_training_row_sets_keep_their_initial_weights(self, variant):
        """enc.w trains only the input columns that some training row sets;
        a column that only the validation set uses stays untrained too."""
        config = tiny_config(variant)
        train_set = _binary_dataset(24, config.hidden3, 7)
        x = train_set.x.copy()
        x[:, 5:11] = 0
        train_set = Dataset(x, train_set.gps)
        val_set = _binary_dataset(8, config.hidden3, 8)
        assert val_set.x[:, 5:11].any()
        tc = TrainConfig(lr=0.01, batch_size=8, max_epochs=3, seed=4)
        checkpoint, _ = train(config, train_set, val_set, tc)
        start = init_params(config, tc.seed)["enc.w"].value
        trained = checkpoint.values["enc.w"]
        dead = ~x.any(axis=0)
        assert dead[5:11].all() and not dead.all()
        assert trained[:, dead].tobytes() == start[:, dead].tobytes()
        assert (trained[:, ~dead] != start[:, ~dead]).any(axis=0).all()

    @pytest.mark.parametrize(
        "live, pinned",
        [
            ("none", "afc1e628fe7cfb4a0afe27e5cc58cbe2bd4a3d98c4483fb4f051d296ef3767d8"),
            ("all", "60f1d3bf19687a8646e71b96ae97e6f4f3428e44319a549a288719d352bcb941"),
        ],
    )
    def test_trains_with_no_live_column_and_with_every_column_live(self, live, pinned):
        """enc.w's block is (hidden1, 0) on empty training grids and the
        whole of enc.w when every column is set by some training row. Its
        trained columns are written back into the checkpoint's enc.w. The
        parameter bytes of both cases are pinned (sha256 in sorted name
        order)."""
        config = tiny_config("uav_adnet")
        d = config.hidden3
        train_set = _binary_dataset(24, d, 7)
        x = np.zeros_like(train_set.x) if live == "none" else train_set.x.copy()
        if live == "all":
            x[np.arange(d) % 24, np.arange(d)] = 1
        train_set = Dataset(x, train_set.gps)
        val_set = _binary_dataset(8, d, 8)
        tc = TrainConfig(lr=0.01, batch_size=8, max_epochs=2, seed=4)
        checkpoint, history = train(config, train_set, val_set, tc)
        assert len(history) == 2
        assert all(np.isfinite([h.train_loss, h.val_loss, h.val_mse]).all() for h in history)
        start = init_params(config, tc.seed).values
        trained = checkpoint.values["enc.w"]
        if live == "none":
            assert trained.tobytes() == start["enc.w"].tobytes()
        else:
            assert (trained != start["enc.w"]).any(axis=0).all()
        assert (checkpoint.values["dec.b"] != start["dec.b"]).any()
        digest = hashlib.sha256()
        for name in sorted(checkpoint.values):
            digest.update(checkpoint.values[name].astype("<f8").tobytes())
        assert digest.hexdigest() == pinned

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_best_validation_loss_recomputes_from_the_checkpoint(self, variant):
        """The checkpoint's values are the ones validated, full-width enc.w
        included: recomputing the validation loss from them gives
        best_val_loss exactly. The validation set sets columns that no
        training row sets."""
        config = tiny_config(variant)
        base = _binary_dataset(24, config.hidden3, 7)
        x = base.x.copy()
        x[:, 5:11] = 0
        train_set = Dataset(x, base.gps)
        val_set = _binary_dataset(8, config.hidden3, 8)
        assert val_set.x[:, 5:11].any()
        tc = TrainConfig(lr=0.01, batch_size=8, max_epochs=3, seed=2)
        checkpoint, _ = train(config, train_set, val_set, tc)
        gn = checkpoint.gps_normalization
        g_val = gn.normalize_array(val_set.gps) if config.use_gps else None
        val_loss, _ = adnet._validation_stats(config, checkpoint.values, val_set.x, g_val)
        assert val_loss == checkpoint.training_meta["best_val_loss"]

    def test_different_seeds_differ(self):
        config = tiny_config("vae")
        train_set = _binary_dataset(24, config.hidden3, 7)
        val_set = _binary_dataset(8, config.hidden3, 8)
        _, hist_a = train(config, train_set, val_set, TrainConfig(max_epochs=1, seed=1))
        _, hist_b = train(config, train_set, val_set, TrainConfig(max_epochs=1, seed=2))
        assert hist_a[0].train_loss != hist_b[0].train_loss

    def test_checkpoint_keeps_the_best_validation_epoch(self):
        config = tiny_config("vae")
        tc = TrainConfig(lr=0.01, batch_size=8, max_epochs=6, seed=3)
        checkpoint, history = train(
            config, _binary_dataset(32, config.hidden3, 9), _binary_dataset(8, config.hidden3, 10), tc
        )
        best = min(h.val_loss for h in history)
        assert checkpoint.training_meta["best_val_loss"] == pytest.approx(best, abs=0.0)
        assert checkpoint.training_meta["epochs_run"] == len(history)
        assert set(checkpoint.training_meta) == {"epochs_run", "best_val_loss", "seed"}
        assert checkpoint.training_meta["seed"] == 3

    def test_early_stop_on_a_hostile_validation_set(self):
        """Training on empty grids while validating on full ones can never
        improve after the first epoch, so training stops at 1 + patience."""
        config = tiny_config("vae")
        d = config.hidden3
        train_set = Dataset(np.zeros((24, d), dtype=np.uint8), np.zeros((24, 2)))
        val_set = Dataset(np.ones((8, d), dtype=np.uint8), np.zeros((8, 2)))
        tc = TrainConfig(lr=0.01, batch_size=8, max_epochs=30, patience=2, seed=0)
        checkpoint, history = train(config, train_set, val_set, tc)
        assert len(history) == 1 + tc.patience
        assert checkpoint.training_meta["best_val_loss"] == pytest.approx(
            history[0].val_loss, abs=0.0
        )

    def test_checkpoint_holds_the_best_epochs_parameters(self):
        """On the hostile validation set the first epoch stays the best, so
        the checkpoint holds the bits of a one-epoch run with the same seed,
        not the parameters that two more epochs of training moved on."""
        config = tiny_config("vae")
        d = config.hidden3
        train_set = Dataset(np.zeros((24, d), dtype=np.uint8), np.zeros((24, 2)))
        val_set = Dataset(np.ones((8, d), dtype=np.uint8), np.zeros((8, 2)))
        tc = TrainConfig(lr=0.01, batch_size=8, max_epochs=30, patience=2, seed=0)
        checkpoint, history = train(config, train_set, val_set, tc)
        assert len(history) == 3
        first, _ = train(config, train_set, val_set, dataclasses.replace(tc, max_epochs=1))
        for name, value in first.values.items():
            assert checkpoint.values[name].tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_training_steps_run_in_float32(self, variant, monkeypatch):
        """Every step's activations, logit gradient, parameter gradients,
        Adam moments and values are float32: a float64 GPS row or noise draw
        would widen the decoder and everything after it. Only a training
        step calls backward; validation runs float64."""
        real_backward, real_conv_backward = adnet.backward, adnet.conv1x1_backward
        steps = []

        def conv1x1_backward(dy, *args, **kwargs):
            assert dy.dtype == np.float32, "dlogits"
            return real_conv_backward(dy, *args, **kwargs)

        def backward(config, params, cache):
            for name, arr in cache.items():
                assert arr.dtype == np.float32, name
            real_backward(config, params, cache)
            for p in params:
                for arr in (p.value, p.grad, p.adam_m, p.adam_v):
                    assert arr.dtype == np.float32, p.name
            steps.append(cache["x"].shape[0])

        monkeypatch.setattr(adnet, "backward", backward)
        monkeypatch.setattr(adnet, "conv1x1_backward", conv1x1_backward)
        config = tiny_config(variant)
        tc = TrainConfig(lr=0.01, batch_size=8, max_epochs=2, seed=4)
        checkpoint, _ = train(
            config, _binary_dataset(20, config.hidden3, 7), _binary_dataset(8, config.hidden3, 8), tc
        )
        assert steps == [8, 8, 4] * 2
        assert all(arr.dtype == np.float64 for arr in checkpoint.values.values())

    def test_numeric_failures_name_epoch_and_batch(self, monkeypatch):
        config = tiny_config("vae")
        real_loss = adnet.loss
        calls = {"n": 0}

        def explode_on_second_batch(x, x_hat, mu, log_var):
            calls["n"] += 1
            if calls["n"] == 2:
                raise FloatingPointError("non-finite reconstruction loss term")
            return real_loss(x, x_hat, mu, log_var)

        monkeypatch.setattr(adnet, "loss", explode_on_second_batch)
        with pytest.raises(FloatingPointError, match=r"epoch 1, batch 1"):
            train(
                config,
                _binary_dataset(16, config.hidden3, 1),
                _binary_dataset(8, config.hidden3, 2),
                TrainConfig(batch_size=8, max_epochs=2, seed=0),
            )

    def test_rejects_empty_and_mismatched_data(self):
        config = tiny_config("vae")
        good = _binary_dataset(8, config.hidden3, 1)
        empty = Dataset(np.zeros((0, config.hidden3), dtype=np.uint8), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="non-empty"):
            train(config, empty, good, TrainConfig())
        narrow = _binary_dataset(8, config.hidden3 - 1, 1)
        with pytest.raises(ValueError, match="vector length"):
            train(config, narrow, narrow, TrainConfig())

    def test_gps_normalization_is_fitted_from_training_data(self):
        config = tiny_config("cvae")
        train_set = _binary_dataset(16, config.hidden3, 4)
        val_set = _binary_dataset(8, config.hidden3, 5)
        checkpoint, _ = train(config, train_set, val_set, TrainConfig(max_epochs=1, seed=0))
        assert checkpoint.gps_normalization.lat_ref == pytest.approx(train_set.gps[:, 0].mean())
        assert checkpoint.gps_normalization.lon_ref == pytest.approx(train_set.gps[:, 1].mean())

    def test_train_config_validation(self):
        for lr in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="lr"):
                TrainConfig(lr=lr)
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=0)
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)


class TestCheckpointPersistence:
    def test_round_trip_preserves_behavior_bitwise(self, tmp_path):
        for variant in VARIANTS:
            ck = tiny_checkpoint(variant, seed=3)
            path = tmp_path / f"{variant}.ckpt"
            save_checkpoint(ck, str(path))
            loaded = load_checkpoint(str(path))
            assert loaded.config == ck.config
            assert loaded.gps_normalization == ck.gps_normalization
            assert loaded.training_meta == ck.training_meta
            config = ck.config
            for i in range(10):
                x, gps, eps = random_batch(config, 1, 100 + i)
                a = forward(config, ck.values, x, gps, eps)[0]
                b = forward(config, loaded.values, x, gps, eps)[0]
                assert np.array_equal(a, b), (variant, i)

    def test_round_trip_gives_the_same_bits_as_writeable_float64(self, tmp_path):
        ck = tiny_checkpoint("uav_adnet", seed=4)
        path = tmp_path / "ck.ckpt"
        save_checkpoint(ck, str(path))
        loaded = load_checkpoint(str(path))
        assert sorted(loaded.values) == sorted(ck.values)
        for name, arr in loaded.values.items():
            assert arr.dtype == np.float64 and arr.shape == ck.values[name].shape, name
            assert arr.flags.c_contiguous and arr.flags.writeable, name
            assert arr.tobytes() == ck.values[name].tobytes(), name

    def test_file_is_a_json_header_line_then_little_endian_float64(self, tmp_path):
        """The first line is a JSON object naming the format, the
        configuration and the training metadata, with ``params`` as
        ``[name, shape]`` pairs in sorted name order; the rest of the file is
        those parameters' little-endian float64 bytes, in that order."""
        ck = tiny_checkpoint("vae", seed=4)
        path = tmp_path / "ck.ckpt"
        save_checkpoint(ck, str(path))
        header, payload = split_checkpoint(path)
        assert header["format_version"] == CHECKPOINT_FORMAT_VERSION == 3
        assert header["config"] == ck.config.to_dict()
        assert header["gps_normalization"] == ck.gps_normalization.to_dict()
        assert header["training_meta"] == ck.training_meta
        assert header["params"] == [[name, list(ck.values[name].shape)] for name in PARAMS]
        assert payload == b"".join(ck.values[name].astype("<f8").tobytes() for name in PARAMS)

    def test_a_call_equals_its_passes_run_separately(self):
        """Rows go through forward ``adnet.RECONSTRUCT_ROWS`` at a time, with
        GPS normalized only for the GPS variants: for batches that end
        before, on and after a pass's edge, a call equals its passes run as
        calls of their own, bit for bit, whatever the dtype of ``x``, and no
        result changes when later calls run."""
        rows = adnet.RECONSTRUCT_ROWS
        rng = Rng(21)
        for variant in VARIANTS:
            config = ModelConfig(variant)
            ck = Checkpoint(
                config, GpsNormalization(41.1, 29.0), init_params(config, 3).copy_values()
            )
            results = []
            for n in (1, rows - 1, rows, rows + 1, 2 * rows + 1, 600):
                x = (rng.uniform((n, config.hidden3)) < 0.05).astype(np.uint8)
                gps = np.column_stack(
                    [41.1 + rng.gaussian(n) * 1e-4, 29.0 + rng.gaussian(n) * 1e-4]
                )
                got = ck.reconstruct(x, gps)
                assert got.shape == (n, config.hidden3)
                passes = [
                    ck.reconstruct(x[lo : lo + rows], gps[lo : lo + rows])
                    for lo in range(0, n, rows)
                ]
                assert got.tobytes() == np.concatenate(passes).tobytes(), (variant, n)
                g = ck.gps_normalization.normalize_array(gps[:rows]) if config.use_gps else None
                want, _, _ = forward(config, ck.values, x[:rows].astype(np.float64), g)
                assert got[:rows].tobytes() == want.tobytes(), (variant, n)
                assert ck.reconstruct(x.astype(np.float32), gps).tobytes() == got.tobytes()
                if not config.use_gps:
                    assert ck.reconstruct(x, None).tobytes() == got.tobytes()
                results.append((got, got.tobytes()))
            for got, kept in results:
                assert got.tobytes() == kept, variant

    @pytest.mark.parametrize("epochs", [0, 3], ids=["untrained", "trained-3-epochs"])
    def test_row_invariant_rows_have_the_bits_of_single_row_calls(self, epochs):
        """600 world scenes (several passes) in the row-invariant mode equal
        600 one-row calls bit for bit: on the untrained checkpoint of
        acceptance criterion 8 and on a ``uav_adnet`` trained for a few
        epochs."""
        config = ModelConfig("uav_adnet")
        w = default_world()
        if epochs:
            tc = TrainConfig(max_epochs=epochs, seed=4)
            ck, _ = train(config, Dataset.from_scenes(sample_dataset(w, 600, seed=5)),
                          Dataset.from_scenes(sample_dataset(w, 60, seed=6)), tc)
        else:
            ck = untrained_checkpoint()
        data = Dataset.from_scenes(sample_dataset(w, 600, seed=7))
        single = np.concatenate(
            [ck.reconstruct(data.x[i : i + 1], data.gps[i : i + 1]) for i in range(data.n)]
        )
        got = ck.reconstruct(data.x, data.gps, row_invariant=True)
        assert got.tobytes() == single.tobytes()

    def test_reconstruct_requires_gps_for_gps_variants(self):
        ck = tiny_checkpoint("uav_adnet")
        with pytest.raises(ValueError, match="gps"):
            ck.reconstruct(np.zeros((1, ck.config.hidden3)))

    def test_constructor_rejects_wrong_shapes(self):
        config = tiny_config("vae")
        values = init_params(config, 0).copy_values()
        values["enc.w"] = values["enc.w"][:, :-1]
        with pytest.raises(CheckpointShapeError, match="enc.w"):
            Checkpoint(config, GpsNormalization(41.1, 29.0), values)

    def test_constructor_rejects_missing_parameters(self):
        config = tiny_config("vae")
        values = init_params(config, 0).copy_values()
        del values["out.b"]
        with pytest.raises(CheckpointShapeError):
            Checkpoint(config, GpsNormalization(41.1, 29.0), values)

    def _saved_doc(self, tmp_path, variant: str = "vae") -> tuple[dict, str]:
        """A saved checkpoint's parsed header line, and its path."""
        path = tmp_path / "ck.ckpt"
        save_checkpoint(tiny_checkpoint(variant), str(path))
        return split_checkpoint(path)[0], str(path)

    def _reload(self, doc: dict, path: str, payload: bytes | None = None) -> Checkpoint:
        """Load ``path`` with ``doc`` as its header line; its payload bytes
        are kept unless ``payload`` replaces them."""
        if payload is None:
            payload = split_checkpoint(path)[1]
        join_checkpoint(path, doc, payload)
        return load_checkpoint(path)

    def test_unsupported_version_is_a_version_error(self, tmp_path):
        doc, path = self._saved_doc(tmp_path)
        doc["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        with pytest.raises(CheckpointVersionError, match="format version"):
            self._reload(doc, path)

    def test_unparseable_file_is_a_corrupt_error(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(str(path))

    def test_missing_version_field_is_a_corrupt_error(self, tmp_path):
        doc, path = self._saved_doc(tmp_path)
        del doc["format_version"]
        with pytest.raises(CheckpointCorruptError, match="format_version"):
            self._reload(doc, path)

    def test_tampered_shape_is_a_shape_error(self, tmp_path):
        """A self-consistent entry whose shape disagrees with the
        configuration is a shape error, not a corruption."""
        doc, path = self._saved_doc(tmp_path)
        _, payload = split_checkpoint(path)
        at = param_bytes(doc, "enc.b")
        doc["params"][PARAMS.index("enc.b")][1] = [5]
        with pytest.raises(CheckpointShapeError, match="enc.b"):
            self._reload(doc, path, payload[: at.start + 40] + payload[at.stop :])

    def test_missing_parameter_is_a_shape_error(self, tmp_path):
        doc, path = self._saved_doc(tmp_path)
        payload = without_param(doc, split_checkpoint(path)[1], "mu.w")
        with pytest.raises(CheckpointShapeError, match="parameter names"):
            self._reload(doc, path, payload)

    def test_truncated_data_is_a_corrupt_error(self, tmp_path):
        """enc.w one value short: the payload no longer fills the header's shapes."""
        doc, path = self._saved_doc(tmp_path)
        _, payload = split_checkpoint(path)
        at = param_bytes(doc, "enc.w")
        with pytest.raises(CheckpointCorruptError, match="payload holds"):
            self._reload(doc, path, payload[: at.stop - 8] + payload[at.stop :])

    def test_non_finite_values_are_a_corrupt_error(self, tmp_path):
        doc, path = self._saved_doc(tmp_path)
        payload = with_value(split_checkpoint(path)[1], param_bytes(doc, "enc.b"), 0, math.inf)
        with pytest.raises(CheckpointCorruptError, match="non-finite"):
            self._reload(doc, path, payload)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda doc, payload: payload[:-1], r"payload holds \d+ bytes"),
            (lambda doc, payload: payload + b"\0", r"payload holds \d+ bytes"),
            (lambda doc, payload: with_value(payload, param_bytes(doc, "enc.w"), 7, math.nan),
             "'enc.w' has non-finite values"),
            (lambda doc, payload: b"", "payload holds 0 bytes"),
        ],
        ids=["one-byte-short", "one-byte-extra", "packed-nan", "empty"],
    )
    def test_malformed_payload_is_a_corrupt_error_naming_the_path(self, tmp_path, tamper, message):
        doc, path = self._saved_doc(tmp_path)
        payload = tamper(doc, split_checkpoint(path)[1])
        with pytest.raises(CheckpointCorruptError, match=message) as info:
            self._reload(doc, path, payload)
        assert str(info.value).startswith(path)

    def test_impossible_shape_is_a_corrupt_error_before_any_allocation(self, tmp_path):
        """A shape of 10**12 values asks for 8 TB: the header's byte total
        does not match the file, so nothing is allocated."""
        doc, path = self._saved_doc(tmp_path)
        doc["params"][PARAMS.index("enc.w")][1] = [10**12]
        with pytest.raises(CheckpointCorruptError, match="payload holds") as info:
            self._reload(doc, path)
        assert str(info.value).startswith(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_format_is_a_version_error_naming_the_path(self, tmp_path, version):
        """Version 1 stored each parameter as a list of decimal floats and
        version 2 as base64, each in one JSON document; neither is read."""
        ck = tiny_checkpoint("vae")
        doc = json.loads(format_2_document(ck))
        if version == 1:
            doc["format_version"] = 1
            for name, entry in doc["params"].items():
                entry["data"] = ck.values[name].ravel().tolist()
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(
            CheckpointVersionError, match=f"format version {version}, supported 3"
        ) as info:
            load_checkpoint(str(path))
        assert str(info.value).startswith(str(path))

    @pytest.mark.parametrize("target", ["json.dumps", "os.replace"])
    def test_failed_save_keeps_the_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch, target):
        path = tmp_path / "ck.ckpt"
        save_checkpoint(tiny_checkpoint("vae", seed=1), str(path))
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise OSError("injected failure")

        module, attr = target.split(".")
        monkeypatch.setattr({"json": json, "os": os}[module], attr, boom)
        with pytest.raises(OSError, match="injected failure"):
            save_checkpoint(tiny_checkpoint("uav_adnet", seed=2), str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.ckpt"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("training_meta", 5),
            ("params", 5),
            ("params", sorted(expected_param_shapes(tiny_config("vae")))),
        ],
        ids=["training_meta-int", "params-int", "params-list"],
    )
    def test_malformed_field_is_a_corrupt_error_naming_the_path(self, tmp_path, field, value):
        doc, path = self._saved_doc(tmp_path)
        doc[field] = value
        with pytest.raises(CheckpointCorruptError, match=field) as info:
            self._reload(doc, path)
        assert str(info.value).startswith(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (("config", "n_h"), 3.9, "n_h 3.9 must be an integer"),
            (("config", "grid", "cells_x"), 4.0, "cells_x 4.0 must be an integer"),
            (("params", PARAMS.index("enc.b"), 1), [6.9], "'enc.b'.*shape entry 6.9"),
            (("gps_normalization", "scale"), math.nan, "not finite"),
            (("gps_normalization", "lat_ref"), math.inf, "not finite"),
            (("gps_normalization", "lat_ref"), "41.1", "lat_ref '41.1' must be a number"),
            (("gps_normalization", "scale"), True, "scale True must be a number"),
        ],
        ids=["fractional-n_h", "float-cells_x", "fractional-shape", "nan-scale", "inf-lat_ref",
             "string-lat_ref", "bool-scale"],
    )
    def test_non_integer_or_non_finite_field_is_a_corrupt_error(
        self, tmp_path, field, value, message
    ):
        doc, path = self._saved_doc(tmp_path, "uav_adnet")
        node = doc
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        with pytest.raises(CheckpointCorruptError, match=message) as info:
            self._reload(doc, path)
        assert str(info.value).startswith(path)

    def test_shape_errors_name_the_path(self, tmp_path):
        doc, path = self._saved_doc(tmp_path)
        payload = without_param(doc, split_checkpoint(path)[1], "mu.w")
        with pytest.raises(CheckpointShapeError) as info:
            self._reload(doc, path, payload)
        assert str(info.value).startswith(path)

    def test_error_classes_share_a_base(self):
        for cls in (CheckpointVersionError, CheckpointShapeError, CheckpointCorruptError):
            assert issubclass(cls, CheckpointError)


# Any JSON value, NaN and infinities included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

# Key paths into a saved checkpoint's header, from the top level down to
# single parameter fields.
_FIELDS = [
    ("format_version",),
    ("config",),
    ("config", "variant"),
    ("config", "grid"),
    ("config", "grid", "cells_x"),
    ("config", "n_o"),
    ("config", "n_h"),
    ("gps_normalization",),
    ("gps_normalization", "lat_ref"),
    ("gps_normalization", "scale"),
    ("params",),
    ("params", PARAMS.index("enc.w")),
    ("params", PARAMS.index("enc.b"), 1),
    ("params", PARAMS.index("dec.w"), 0),
    ("training_meta",),
]


# Edits of a saved payload: (offset, bytes removed, bytes put in). The tiny
# uav_adnet's payload is 3 536 bytes, so an edit can land in any parameter,
# cut the payload short, grow it, or put NaNs and infinities among its values.
PAYLOAD_EDITS = st.tuples(st.integers(0, 3600), st.integers(0, 64), st.binary(max_size=64))


def _swap_and_load(field: tuple | None, value=None, edit=None) -> CheckpointError | None:
    """Save a checkpoint, put ``value`` at ``field`` of its header (or apply
    a ``PAYLOAD_EDITS`` ``edit`` to its payload) and load it back: it loads,
    or raises a ``CheckpointError`` that starts with the path, which is
    returned."""
    ck = tiny_checkpoint("uav_adnet", seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.ckpt")
        save_checkpoint(ck, path)
        doc, payload = split_checkpoint(path)
        if field is not None:
            node = doc
            for key in field[:-1]:
                node = node[key]
            node[field[-1]] = value
        if edit is not None:
            at, cut, put = edit
            payload = payload[:at] + put + payload[at + cut :]
        join_checkpoint(path, doc, payload)
        try:
            loaded = load_checkpoint(path)
        except CheckpointError as e:
            assert str(e).startswith(path)
            return e
        assert isinstance(loaded, Checkpoint)
        return None


class TestCheckpointFuzz:
    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(_FIELDS), value=JSON_VALUES)
    def test_any_swapped_field_loads_or_raises_a_checkpoint_error(self, field, value):
        _swap_and_load(field, value)

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from(["lat_ref", "lon_ref", "scale"]),
        value=JSON_VALUES.filter(lambda v: type(v) not in (int, float)),
    )
    def test_a_gps_normalization_field_that_is_not_a_number_is_rejected(self, key, value):
        error = _swap_and_load(("gps_normalization", key), value)
        assert isinstance(error, CheckpointCorruptError)
        assert f"{key} {value!r} must be a number" in str(error)

    @settings(max_examples=150, deadline=None)
    @given(edit=PAYLOAD_EDITS)
    def test_any_payload_loads_or_raises_a_checkpoint_error(self, edit):
        _swap_and_load(None, edit=edit)
