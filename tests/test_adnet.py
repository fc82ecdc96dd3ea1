"""Tests for the autoencoder variants: wiring, loss, gradients, training, checkpoints."""

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


def tiny_checkpoint(variant: str = "uav_adnet", seed: int = 0) -> Checkpoint:
    config = tiny_config(variant)
    params = init_params(config, seed)
    return Checkpoint(
        config=config,
        gps_normalization=GpsNormalization(lat_ref=41.1, lon_ref=29.0),
        values=params.copy_values(),
        training_meta={"epochs_run": 1, "best_val_loss": 1.0, "seed": seed},
    )


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
    def test_shapes_single_and_batch(self):
        for variant in VARIANTS:
            config = tiny_config(variant)
            params = init_params(config, 1)
            x, gps, eps = random_batch(config, 5, 2)
            x_hat, mu, log_var = forward(config, params.values, x, gps, eps)
            assert x_hat.shape == (5, config.hidden3)
            assert mu.shape == (5, config.n_h) and log_var.shape == (5, config.n_h)
            one = forward(config, params.values, x[0], gps[0] if gps is not None else None, eps[0])
            assert one[0].shape == (config.hidden3,)

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
            single = forward(config, params.values, x[i], gps[i], eps[i])[0]
            assert np.allclose(batch_out[i], single, atol=1e-12), i

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
        x = np.zeros(tiny_config("vae").hidden3)
        with pytest.raises(ValueError, match="uav_adnet"):
            forward(tiny_config("uav_adnet"), init_params(tiny_config("uav_adnet"), 0).values, x)
        with pytest.raises(ValueError, match="vae"):
            forward(tiny_config("vae"), init_params(tiny_config("vae"), 0).values, x, np.zeros(2))

    def test_bad_widths_are_rejected(self):
        config = tiny_config("uav_adnet")
        params = init_params(config, 0)
        gps = np.zeros(2)
        with pytest.raises(ValueError, match="input vector"):
            forward(config, params.values, np.zeros(config.hidden3 + 1), gps)
        with pytest.raises(ValueError, match="gps input"):
            forward(config, params.values, np.zeros(config.hidden3), np.zeros(3))
        with pytest.raises(ValueError, match="latent noise"):
            forward(config, params.values, np.zeros(config.hidden3), gps, np.zeros(config.n_h + 1))

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
        config = ModelConfig("uav_adnet")
        ck = Checkpoint(
            config, GpsNormalization(41.1, 29.0), init_params(config, 0).copy_values()
        )
        x = np.zeros((1, config.hidden3), dtype=np.uint8)
        tracemalloc.start()
        try:
            probs = ck.reconstruct(x, np.array([[41.1, 29.0]]))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert probs.shape == (1, config.hidden3)
        assert retained < 1_000_000


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


def reference_backward(config: ModelConfig, params, cache: dict) -> None:
    """adnet.backward as it was with the encoder's input gradient still
    computed (and dropped) by nn.dense_backward."""
    b = cache["x"].shape[0]
    dlogits = (cache["x_hat4"] - cache["x4"]) / b
    dconv_in = nn.conv1x1_backward(dlogits, cache["conv_in"], params["out.k"], params["out.b"])
    dgrid4 = dconv_in[..., : config.n_o] if config.use_copy_crop else dconv_in
    dh3_pre = nn.relu_backward(dgrid4.reshape(b, -1), cache["h3_pre"])
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
        assert hist_a == hist_b
        assert all(np.array_equal(ck_a.values[k], ck_b.values[k]) for k in ck_a.values)

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

    def test_explicit_gps_normalization_is_respected(self):
        config = tiny_config("cvae")
        gn = GpsNormalization(lat_ref=41.0, lon_ref=29.0)
        tc = TrainConfig(max_epochs=1, seed=0, gps_normalization=gn)
        checkpoint, _ = train(
            config, _binary_dataset(16, config.hidden3, 4), _binary_dataset(8, config.hidden3, 5), tc
        )
        assert checkpoint.gps_normalization == gn

    def test_train_config_validation(self):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=0.0)
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
            path = tmp_path / f"{variant}.json"
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

    def test_reconstruct_runs_batches_in_chunks(self):
        """Rows go through forward 512 at a time, with GPS normalized only
        for the GPS variants; a batch equals its chunks run separately."""
        rng = Rng(12)
        for variant in VARIANTS:
            ck = tiny_checkpoint(variant, seed=2)
            config = ck.config
            x = (rng.uniform((1030, config.hidden3)) < 0.3).astype(np.uint8)
            gps = np.column_stack(
                [41.1 + rng.gaussian(1030) * 1e-4, 29.0 + rng.gaussian(1030) * 1e-4]
            )
            probs = ck.reconstruct(x, gps)
            assert probs.shape == (1030, config.hidden3)
            chunks = [
                ck.reconstruct(x[lo : lo + 512], gps[lo : lo + 512]) for lo in (0, 512, 1024)
            ]
            assert np.array_equal(probs, np.concatenate(chunks))
            g = ck.gps_normalization.normalize_array(gps[:512]) if config.use_gps else None
            want, _, _ = forward(config, ck.values, x[:512].astype(np.float64), g)
            assert np.array_equal(probs[:512], want)
            if not config.use_gps:
                assert np.array_equal(ck.reconstruct(x, None), probs)

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
        path = tmp_path / "ck.json"
        save_checkpoint(tiny_checkpoint(variant), str(path))
        with open(path, encoding="utf-8") as f:
            return json.load(f), str(path)

    def _reload(self, doc: dict, path: str) -> Checkpoint:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return load_checkpoint(path)

    def test_unsupported_version_is_a_version_error(self, tmp_path):
        doc, path = self._saved_doc(tmp_path)
        doc["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        with pytest.raises(CheckpointVersionError, match="format version"):
            self._reload(doc, path)

    def test_unparseable_file_is_a_corrupt_error(self, tmp_path):
        path = tmp_path / "bad.json"
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
        doc["params"]["enc.b"]["shape"] = [5]
        doc["params"]["enc.b"]["data"] = doc["params"]["enc.b"]["data"][:5]
        with pytest.raises(CheckpointShapeError, match="enc.b"):
            self._reload(doc, path)

    def test_missing_parameter_is_a_shape_error(self, tmp_path):
        doc, path = self._saved_doc(tmp_path)
        del doc["params"]["mu.w"]
        with pytest.raises(CheckpointShapeError, match="parameter names"):
            self._reload(doc, path)

    def test_truncated_data_is_a_corrupt_error(self, tmp_path):
        doc, path = self._saved_doc(tmp_path)
        doc["params"]["enc.w"]["data"] = doc["params"]["enc.w"]["data"][:-1]
        with pytest.raises(CheckpointCorruptError, match="enc.w"):
            self._reload(doc, path)

    def test_non_finite_values_are_a_corrupt_error(self, tmp_path):
        doc, path = self._saved_doc(tmp_path)
        doc["params"]["enc.b"]["data"][0] = float("inf")
        with pytest.raises(CheckpointCorruptError, match="non-finite"):
            self._reload(doc, path)

    @pytest.mark.parametrize("target", ["json.dumps", "os.replace"])
    def test_failed_save_keeps_the_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch, target):
        path = tmp_path / "ck.json"
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
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]

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
            (("params", "enc.b", "shape"), [6.9], "'enc.b'.*shape entry 6.9"),
            (("gps_normalization", "scale"), math.nan, "not finite"),
            (("gps_normalization", "lat_ref"), math.inf, "not finite"),
        ],
        ids=["fractional-n_h", "float-cells_x", "fractional-shape", "nan-scale", "inf-lat_ref"],
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
        del doc["params"]["mu.w"]
        with pytest.raises(CheckpointShapeError) as info:
            self._reload(doc, path)
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

# Key paths into a saved checkpoint document, from the top level down to
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
    ("params", "enc.w"),
    ("params", "enc.b", "shape"),
    ("params", "dec.w", "data"),
    ("training_meta",),
]


class TestCheckpointFuzz:
    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(_FIELDS), value=JSON_VALUES)
    def test_any_swapped_field_loads_or_raises_a_checkpoint_error(self, field, value):
        ck = tiny_checkpoint("uav_adnet", seed=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ck.json")
            save_checkpoint(ck, path)
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            node = doc
            for key in field[:-1]:
                node = node[key]
            node[field[-1]] = value
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            try:
                loaded = load_checkpoint(path)
            except CheckpointError as e:
                assert str(e).startswith(path)
            else:
                assert isinstance(loaded, Checkpoint)
