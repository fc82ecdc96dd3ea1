"""GPS-conditioned autoencoder variants over occupancy grids.

Four wirings of one architecture:

  uav_adnet          GPS concatenated to the latent sample; input grid
                     concatenated channel-wise before the output convolution
                     (the copy-crop path).
  uav_adnet_wo_gps   copy-crop path only.
  cvae               GPS conditioning only.
  vae                neither.

The encoder maps a flat binary grid to a latent mean and log-variance; a
sampled (or posterior-mean) latent code is decoded back to per-cell
occupancy probabilities. Training minimizes element-summed binary
cross-entropy plus the closed-form KL divergence to a unit gaussian prior,
averaged over the batch, with Adam and early stopping on validation loss.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .grid import (
    RECORD_ERRORS, GpsLabel, GridSpec, GridTensor, N_CATEGORIES, atomic_write, flatten, number,
    whole,
)
from .nn import (
    ParamSet,
    Rng,
    adam_step,
    concat_forward,
    conv1x1_backward,
    conv1x1_forward,
    dense_backward,
    dense_forward,
    glorot_uniform,
    relu_backward,
    relu_forward,
    reparameterize_backward,
    reparameterize_forward,
    sigmoid_forward,
)

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "GpsNormalization",
    "LossBreakdown",
    "TrainConfig",
    "EpochStats",
    "Dataset",
    "Checkpoint",
    "CheckpointError",
    "CheckpointVersionError",
    "CheckpointShapeError",
    "CheckpointCorruptError",
    "expected_param_shapes",
    "init_params",
    "forward",
    "backward",
    "loss",
    "train",
    "gradient_check",
    "save_checkpoint",
    "load_checkpoint",
]

logger = logging.getLogger("uavad.adnet")

CHECKPOINT_FORMAT_VERSION = 3

# Loss-side clamp keeping log() finite; forward outputs are not clamped.
_LOSS_CLIP = 1e-7

# Rows per inference pass of Checkpoint.reconstruct, and records per chunk
# of detect_batch. On 440 world scenes, 64- and 128-row passes gave the bits
# of 512-row ones and 32- and 16-row passes did not. Each pass runs on fresh
# arrays: on perfbench-sized data (2-CPU VM), evaluate.run_benchmark took no
# minor page faults per call at 64 rows, and ~12 000 and 1.1-1.2x the time
# at 512 rows.
RECONSTRUCT_ROWS = 64

# variant -> (use_gps, use_copy_crop)
_WIRING = {
    "uav_adnet": (True, True),
    "uav_adnet_wo_gps": (False, True),
    "cvae": (True, False),
    "vae": (False, False),
}

VARIANTS = tuple(_WIRING)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; all layer shapes derive from these."""

    variant: str
    grid: GridSpec = GridSpec()
    n_o: int = N_CATEGORIES  # channels per cell
    n_h: int = 32  # latent width
    hidden1: int = 128  # encoder hidden width

    def __post_init__(self) -> None:
        if self.variant not in _WIRING:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if min(self.n_o, self.n_h, self.hidden1) < 1:
            raise ValueError("n_o, n_h and hidden1 must be positive")

    @property
    def use_gps(self) -> bool:
        return _WIRING[self.variant][0]

    @property
    def use_copy_crop(self) -> bool:
        return _WIRING[self.variant][1]

    @property
    def hidden3(self) -> int:
        """Decoder output width; equals the flattened grid length."""
        return self.grid.cells_x * self.grid.cells_y * self.n_o

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "grid": self.grid.to_dict(),
            "n_o": self.n_o,
            "n_h": self.n_h,
            "hidden1": self.hidden1,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(
            variant=str(d["variant"]),
            grid=GridSpec.from_dict(d["grid"]),
            n_o=whole(d["n_o"], "n_o"),
            n_h=whole(d["n_h"], "n_h"),
            hidden1=whole(d["hidden1"], "hidden1"),
        )


@dataclass(frozen=True)
class GpsNormalization:
    """Centering and scaling that maps site-local degree offsets to O(1) inputs."""

    lat_ref: float
    lon_ref: float
    scale: float = 1e4

    def normalize_array(self, lat_lon: np.ndarray) -> np.ndarray:
        arr = np.asarray(lat_lon, dtype=np.float64)
        return (arr - np.array([self.lat_ref, self.lon_ref])) * self.scale

    @classmethod
    def fit(cls, lat_lon: np.ndarray) -> "GpsNormalization":
        arr = np.asarray(lat_lon, dtype=np.float64).reshape(-1, 2)
        return cls(lat_ref=float(arr[:, 0].mean()), lon_ref=float(arr[:, 1].mean()))

    def to_dict(self) -> dict:
        return {"lat_ref": self.lat_ref, "lon_ref": self.lon_ref, "scale": self.scale}

    @classmethod
    def from_dict(cls, d: dict) -> "GpsNormalization":
        gn = cls(*(number(d[key], key) for key in ("lat_ref", "lon_ref", "scale")))
        if not all(map(math.isfinite, (gn.lat_ref, gn.lon_ref, gn.scale))):
            raise ValueError(f"gps_normalization {gn.to_dict()} is not finite")
        return gn


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    rec: float
    reg: float


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 64
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr {self.lr} must be a positive finite number")


@dataclass(frozen=True)
class EpochStats:
    train_loss: float
    val_loss: float
    val_mse: float
    # Wall seconds of the epoch, validation included; left out of == so that
    # same-seed histories still compare equal.
    wall_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class Dataset:
    """Flattened scenes: binary occupancy rows plus raw GPS degrees."""

    x: np.ndarray  # (n, vector_length) uint8 in {0, 1}
    gps: np.ndarray  # (n, 2) float64 latitude/longitude

    def __post_init__(self) -> None:
        x = np.asarray(self.x)
        gps = np.asarray(self.gps, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("dataset x must be two-dimensional")
        # Checked before the cast to uint8, which would turn 0.5 into 0.
        if not ((x == 0) | (x == 1)).all():
            raise ValueError("dataset x must be binary")
        x = x.astype(np.uint8, copy=False)
        if gps.shape != (x.shape[0], 2):
            raise ValueError(f"gps shape {gps.shape} does not match {x.shape[0]} samples")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "gps", gps)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @classmethod
    def from_scenes(cls, scenes: Iterable[tuple[GridTensor, GpsLabel]]) -> "Dataset":
        xs, gs = [], []
        for g, gps in scenes:
            xs.append(flatten(g))
            gs.append((gps.latitude, gps.longitude))
        return cls(np.array(xs, dtype=np.uint8), np.array(gs, dtype=np.float64))


# ---------------------------------------------------------------------------
# Parameters and forward/backward
# ---------------------------------------------------------------------------


def expected_param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter-name -> shape table for a configuration."""
    d = config.hidden3
    dec_in = config.n_h + (2 if config.use_gps else 0)
    conv_in = 2 * config.n_o if config.use_copy_crop else config.n_o
    return {
        "enc.w": (config.hidden1, d),
        "enc.b": (config.hidden1,),
        "mu.w": (config.n_h, config.hidden1),
        "mu.b": (config.n_h,),
        "logvar.w": (config.n_h, config.hidden1),
        "logvar.b": (config.n_h,),
        "dec.w": (d, dec_in),
        "dec.b": (d,),
        "out.k": (config.n_o, conv_in),
        "out.b": (config.n_o,),
    }


def init_params(config: ModelConfig, rng: Rng | int) -> ParamSet:
    """Glorot-uniform weights, zero biases; weight draw order is fixed."""
    if isinstance(rng, int):
        rng = Rng(rng)
    shapes = expected_param_shapes(config)
    params = ParamSet(shapes)
    for name in ("enc.w", "mu.w", "logvar.w", "dec.w", "out.k"):
        params.values[name][...] = glorot_uniform(rng, *shapes[name])
    return params


def _pass_dtype(a: np.ndarray) -> type:
    """The dtype a pass over ``a`` runs in: float32 for float32, else float64."""
    return np.float32 if a.dtype == np.float32 else np.float64


def _as_batch(arr: np.ndarray | None, width: int, what: str) -> np.ndarray:
    a = np.asarray(arr)
    a = a.astype(_pass_dtype(a), copy=False)
    if a.ndim != 2 or a.shape[1] != width:
        raise ValueError(f"{what} must be rows of {width} components, got shape {a.shape}")
    return a


def _forward_cached(
    config: ModelConfig,
    values: Mapping[str, np.ndarray],
    x: np.ndarray,
    gps: np.ndarray | None,
    eps: np.ndarray,
    out: np.ndarray | None = None,
    *,
    x_enc: np.ndarray | None = None,
    row_invariant: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Batched forward pass keeping the activations needed by backward().

    The probabilities go to ``out`` ((b, D), a fresh array when None); every
    other activation is a fresh array. ``x_enc`` is what the encoder reads:
    the columns of ``x`` that ``values["enc.w"]`` holds, in its order (``x``
    itself when None, for a full-width ``enc.w``).
    ``row_invariant`` runs the dense layers in their row-invariant form (see
    ``dense_forward``): each row then gets the bits it gets in a batch of
    one. The 1x1 conv and the sigmoid need no such form, since their bits
    for a row do not depend on the batch.
    The pass runs in ``x``'s dtype, which ``values``, ``gps`` and ``eps``
    share: a float64 one among float32 ones would widen what follows it.
    """
    b = x.shape[0]
    rows, cols, n_o = config.grid.cells_y, config.grid.cells_x, config.n_o
    shape4 = (b, rows, cols, n_o)

    x_enc = x if x_enc is None else x_enc
    h1_pre = dense_forward(x_enc, values["enc.w"], values["enc.b"], row_invariant=row_invariant)
    h1 = relu_forward(h1_pre)
    mu = dense_forward(h1, values["mu.w"], values["mu.b"], row_invariant=row_invariant)
    log_var = dense_forward(
        h1, values["logvar.w"], values["logvar.b"], row_invariant=row_invariant
    )
    z = reparameterize_forward(mu, log_var, eps)
    dec_in = concat_forward(z, gps) if config.use_gps else z
    h3 = dense_forward(dec_in, values["dec.w"], values["dec.b"], row_invariant=row_invariant)
    np.maximum(h3, 0.0, out=h3)  # the decoder ReLU, in place

    grid4 = h3.reshape(shape4)
    x4 = x.reshape(shape4)
    conv_in = concat_forward(grid4, x4) if config.use_copy_crop else grid4
    logits = conv1x1_forward(conv_in, values["out.k"], values["out.b"])
    # exp(-|l|) overwrites the logits, which nothing reads afterwards.
    x_hat4 = sigmoid_forward(
        logits, out=None if out is None else out.reshape(shape4), work=logits
    )
    x_hat = x_hat4.reshape(x.shape)

    cache = {
        "x": x,
        "x_enc": x_enc,
        "h1_pre": h1_pre,
        "h1": h1,
        "mu": mu,
        "log_var": log_var,
        "eps": eps,
        "dec_in": dec_in,
        "h3": h3,
        "conv_in": conv_in,
        "x4": x4,
        "x_hat4": x_hat4,
    }
    return x_hat, mu, log_var, cache


def forward(
    config: ModelConfig,
    values: Mapping[str, np.ndarray],
    x: np.ndarray,
    gps: np.ndarray | None = None,
    eps: np.ndarray | None = None,
    *,
    out: np.ndarray | None = None,
    row_invariant: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reconstruction probabilities plus latent statistics.

    ``values`` maps each parameter name to its array: ``ParamSet.values``
    while training, ``Checkpoint.values`` at inference. ``x`` holds flat
    binary vectors as rows; ``gps`` holds the normalized two-component
    location inputs as rows, required exactly when the variant uses GPS.
    ``eps`` is the latent noise; None means zeros, the deterministic
    posterior-mean mode used at inference. A float32 ``x`` runs a float32
    pass; any other runs in float64. ``out`` (n, D) receives the
    probabilities; see ``_forward_cached``, also for ``row_invariant``.
    """
    xb = _as_batch(x, config.hidden3, "input vector")
    if config.use_gps:
        if gps is None:
            raise ValueError(f"variant {config.variant!r} requires a gps input")
        gb = _as_batch(gps, 2, "gps input")
        if gb.shape[0] != xb.shape[0]:
            raise ValueError("gps batch size does not match input batch size")
    else:
        if gps is not None:
            raise ValueError(f"variant {config.variant!r} takes no gps input")
        gb = None
    if eps is None:
        eb = np.zeros((xb.shape[0], config.n_h), xb.dtype)
    else:
        eb = _as_batch(eps, config.n_h, "latent noise")
        if eb.shape[0] != xb.shape[0]:
            raise ValueError("latent noise batch size does not match input batch size")

    x_hat, mu, log_var, _ = _forward_cached(
        config, values, xb, gb, eb, out, row_invariant=row_invariant
    )
    return x_hat, mu, log_var


def loss(
    x: np.ndarray, x_hat: np.ndarray, mu: np.ndarray, log_var: np.ndarray
) -> LossBreakdown:
    """Element-summed cross-entropy of binary ``x`` plus closed-form KL, each
    averaged over the batch, computed in float32 when ``x_hat`` is float32
    and in float64 otherwise."""
    xh = np.asarray(x_hat)
    dtype = _pass_dtype(xh)
    xb, xh, mub, lvb = (np.atleast_2d(np.asarray(a, dtype)) for a in (x, xh, mu, log_var))
    b = xb.shape[0]

    xh = np.clip(xh, _LOSS_CLIP, 1.0 - _LOSS_CLIP)
    occupied = xb != 0  # a cell adds log(x_hat) where x is 1, log1p(-x_hat) where 0
    log_occupied = np.log(xh[occupied])
    np.log1p(np.negative(xh, out=xh), out=xh)
    xh[occupied] = log_occupied
    rec = float(-np.sum(xh) / b)
    if not np.isfinite(rec):
        raise FloatingPointError("non-finite reconstruction loss term")
    reg = float(0.5 * np.sum(-lvb - 1.0 + np.exp(lvb) + mub**2) / b)
    if not np.isfinite(reg):
        raise FloatingPointError("non-finite regularizer loss term")
    return LossBreakdown(total=rec + reg, rec=rec, reg=reg)


def backward(config: ModelConfig, params: ParamSet, cache: dict) -> None:
    """Accumulate total-loss gradients for the batch held in ``cache``.

    The cross-entropy gradient is fused through the sigmoid
    (dL/dlogits = (x_hat - x) / batch), avoiding division by probabilities
    near 0 or 1. ``enc.w``'s gradient is taken against the encoder input
    the forward pass read (``x_enc``), so it has ``enc.w``'s shape, full
    width or a column block. Every gradient array is fresh.
    """
    b = cache["x"].shape[0]
    dlogits = cache["x_hat4"] - cache["x4"]
    dlogits /= b
    # Only the decoder's channels: the copy-crop input's gradient is not needed.
    dgrid4 = conv1x1_backward(
        dlogits, cache["conv_in"], params["out.k"], params["out.b"], config.n_o
    )
    dh3_pre = dgrid4.reshape(b, -1)
    dh3_pre *= cache["h3"] > 0.0  # the ReLU mask; h3 > 0 exactly where h3_pre > 0
    ddec_in = dense_backward(dh3_pre, cache["dec_in"], params["dec.w"], params["dec.b"])
    dz = ddec_in[:, : config.n_h] if config.use_gps else ddec_in

    dmu, dlog_var = reparameterize_backward(dz, cache["log_var"], cache["eps"])
    dmu = dmu + cache["mu"] / b
    dlog_var = dlog_var + 0.5 * (np.exp(cache["log_var"]) - 1.0) / b

    dh1 = dense_backward(dmu, cache["h1"], params["mu.w"], params["mu.b"])
    dh1 += dense_backward(dlog_var, cache["h1"], params["logvar.w"], params["logvar.b"])
    dh1_pre = relu_backward(dh1, cache["h1_pre"])
    # dense_backward for the encoder, less its input gradient, which nothing
    # reads; (x.T @ dh1_pre).T has the bits of dh1_pre.T @ x, per column too.
    params["enc.w"].grad += (cache["x_enc"].T @ dh1_pre).T
    params["enc.b"].grad += dh1_pre.sum(axis=0)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _validation_stats(
    config: ModelConfig,
    values: Mapping[str, np.ndarray],
    x: np.ndarray,
    gps: np.ndarray | None,
) -> tuple[float, float]:
    """(mean total loss, mean squared error) with zero latent noise, in
    float64: ``forward`` widens the uint8 rows of ``x``."""
    # Not RECONSTRUCT_ROWS: the loss sums of these chunks reach best_val_loss
    # in every checkpoint, whose bits the pinned digests fix.
    chunk = 256
    n = x.shape[0]
    loss_sum = 0.0
    sq_sum = 0.0
    for lo in range(0, n, chunk):
        rows = x[lo : lo + chunk]
        gb = gps[lo : lo + chunk] if gps is not None else None
        x_hat, mu, log_var = forward(config, values, rows, gb)
        loss_sum += loss(rows, x_hat, mu, log_var).total * rows.shape[0]
        sq = np.square(np.subtract(x_hat, rows, out=x_hat), out=x_hat)
        sq_sum += float(np.sum(sq))
    return loss_sum / n, sq_sum / (n * x.shape[1])


def train(
    config: ModelConfig,
    train_set: Dataset,
    val_set: Dataset,
    tc: TrainConfig,
) -> tuple["Checkpoint", list[EpochStats]]:
    """Mini-batch Adam with per-epoch validation and early stopping.

    Latent noise is drawn per sample and redrawn every epoch. Validation
    runs with zero noise. Training stops once the validation loss has not
    improved for ``tc.patience`` consecutive epochs; the returned checkpoint
    holds the best-validation parameters.

    Each step's forward pass, loss, backward and Adam update run in
    float32: the store, its gradients and moments, the batch rows, the
    normalized GPS and the latent noise. Validation and the checkpoint stay
    float64: they read the float64 arrays that ``init_params`` drew for a
    full-width model, into which the float32 store is widened, exactly,
    after every epoch. The GPS normalization is fitted to the training set.

    ``enc.w`` trains as its block of live columns, those that some training
    row sets: no other column gets a gradient. The encoder of each step
    reads just those columns of its rows, gathered once per call as uint8.
    The store holds the drawn parameters rounded to float32, and widening
    writes the block back into the live columns of the float64 ``enc.w``.
    A column that no training row sets keeps its exact float64 initial
    weights, so an anomalous input there still meets them.

    Each step gathers its batch rows into fresh float32 arrays, and its
    activations and gradients are fresh arrays too. At a best epoch the
    float32 store is copied into one vector allocated once. At the end that
    copy is widened, and the checkpoint gets copies of the float64 arrays:
    the values that the best epoch validated, bit for bit.
    """
    if train_set.n == 0 or val_set.n == 0:
        raise ValueError("train and validation sets must be non-empty")
    if train_set.x.shape[1] != config.hidden3 or val_set.x.shape[1] != config.hidden3:
        raise ValueError("dataset vector length does not match model configuration")

    rng = Rng(tc.seed)
    values = init_params(config, rng).values  # what validation and the checkpoint read
    live = np.flatnonzero(train_set.x.any(axis=0))
    params = ParamSet.from_values({**values, "enc.w": values["enc.w"][:, live]}, np.float32)

    def widen(flat: np.ndarray) -> None:
        """Write a float32 vector in the store's layout into ``values``."""
        for name, a in params.views(flat).items():
            values[name][(slice(None), live) if name == "enc.w" else ...] = a

    gn = GpsNormalization.fit(train_set.gps)

    x_train = train_set.x
    x_live = x_train[:, live]
    x_val = val_set.x
    g_train = gn.normalize_array(train_set.gps).astype(np.float32) if config.use_gps else None
    g_val = gn.normalize_array(val_set.gps) if config.use_gps else None

    n = train_set.n
    logger.info(
        "training %s: %d train / %d val samples, batch %d, latent noise per-sample (redrawn each epoch)",
        config.variant,
        n,
        val_set.n,
        tc.batch_size,
    )

    history: list[EpochStats] = []
    best_val = np.inf
    best = params.value.copy()
    epochs_since_best = 0
    step = 0

    for epoch in range(1, tc.max_epochs + 1):
        started = time.perf_counter()
        perm = rng.permutation(n)
        eps_all = rng.gaussian((n, config.n_h)).astype(np.float32)
        loss_sum = 0.0
        for bi, lo in enumerate(range(0, n, tc.batch_size)):
            idx = perm[lo : lo + tc.batch_size]
            xb = x_train[idx].astype(np.float32)
            gb = g_train[idx] if g_train is not None else None
            eb = eps_all[idx]
            try:
                x_hat, mu, log_var, cache = _forward_cached(
                    config, params.values, xb, gb, eb, x_enc=x_live[idx].astype(np.float32)
                )
                lb = loss(xb, x_hat, mu, log_var)
                backward(config, params, cache)
                step += 1
                adam_step(params, tc.lr, t=step)
            except FloatingPointError as e:
                raise FloatingPointError(f"epoch {epoch}, batch {bi}: {e}") from e
            loss_sum += lb.total * xb.shape[0]

        train_loss = loss_sum / n
        widen(params.value)
        val_loss, val_mse = _validation_stats(config, values, x_val, g_val)
        history.append(EpochStats(
            train_loss, val_loss, val_mse, wall_s=time.perf_counter() - started
        ))
        logger.info(
            "epoch %d/%d: train %.5f val %.5f val_mse %.6f",
            epoch,
            tc.max_epochs,
            train_loss,
            val_loss,
            val_mse,
        )

        if val_loss < best_val:
            best_val = val_loss
            np.copyto(best, params.value)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= tc.patience:
                logger.info("early stop after epoch %d (no improvement in %d)", epoch, tc.patience)
                break

    widen(best)
    checkpoint = Checkpoint(
        config=config,
        gps_normalization=gn,
        # Copies, so that the drawn arrays are freed on return: a load right
        # after training reuses their memory rather than faulting in new pages.
        values={name: a.copy() for name, a in values.items()},
        training_meta={
            "epochs_run": len(history),
            "best_val_loss": float(best_val),
            "seed": tc.seed,
        },
    )
    return checkpoint, history


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def gradient_check(
    config: ModelConfig, seed: int = 0, batch: int = 2, h: float = 1e-5
) -> dict[str, float]:
    """Max relative error between analytic and finite-difference gradients,
    per parameter, for the total loss on a random batch."""
    from .nn import numeric_gradient, relative_error

    rng = Rng(seed)
    params = init_params(config, rng)
    x = (rng.uniform((batch, config.hidden3)) < 0.3).astype(np.float64)
    gps = rng.gaussian((batch, 2)) if config.use_gps else None
    eps = rng.gaussian((batch, config.n_h))

    _, _, _, cache = _forward_cached(config, params.values, x, gps, eps)
    backward(config, params, cache)
    analytic = {p.name: p.grad.copy() for p in params}
    params.zero_grads()

    def objective() -> float:
        x_hat, mu, log_var = forward(config, params.values, x, gps, eps)
        return loss(x, x_hat, mu, log_var).total

    errors = {}
    for p in params:
        numeric = numeric_gradient(objective, p.value, h)
        errors[p.name] = relative_error(analytic[p.name], numeric)
    return errors


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


class CheckpointError(Exception):
    """Base class for checkpoint persistence failures."""


class CheckpointVersionError(CheckpointError):
    """The file declares an unsupported format version."""


class CheckpointShapeError(CheckpointError):
    """Stored parameters do not match the declared configuration."""


class CheckpointCorruptError(CheckpointError):
    """The file is unreadable or internally inconsistent."""


class Checkpoint:
    """Trained model state: configuration, GPS normalization, parameters.

    ``values`` (parameter name -> array) is what inference reads; arrays
    that are already C-contiguous float64 are kept, not copied.
    """

    def __init__(
        self,
        config: ModelConfig,
        gps_normalization: GpsNormalization,
        values: dict[str, np.ndarray],
        training_meta: dict | None = None,
    ):
        values = {n: np.asarray(arr, dtype=np.float64, order="C") for n, arr in values.items()}
        expected = expected_param_shapes(config)
        if set(values) != set(expected):
            raise CheckpointShapeError(
                f"parameter names {sorted(values)} != expected {sorted(expected)}"
            )
        for name, arr in values.items():
            if arr.shape != expected[name]:
                raise CheckpointShapeError(
                    f"parameter {name!r} has shape {arr.shape}, expected {expected[name]}"
                )
        self.config = config
        self.gps_normalization = gps_normalization
        self.values = values
        self.training_meta = dict(training_meta or {})

    def reconstruct(
        self,
        x: np.ndarray,
        gps_deg: np.ndarray | None = None,
        *,
        row_invariant: bool = False,
    ) -> np.ndarray:
        """Posterior-mean reconstruction probabilities, shape (n, D).

        ``x`` holds n flattened binary scenes as rows and ``gps_deg`` their
        (n, 2) latitude/longitude in degrees, which only the GPS variants
        read. Rows run through ``forward`` ``RECONSTRUCT_ROWS`` at a time on
        fresh arrays, each pass writing its rows of the returned array. The
        passes run in float64 whatever ``x``'s dtype, on the checkpoint's
        float64 values: after ``train``, the exact widening of the float32
        values it trained.

        By default each chunk runs as one GEMM per dense layer, and a row's
        bits can depend on the rows that share its chunk. ``row_invariant``
        gives every row the bits of a call on that row alone, at ~1.6× the
        cost per row (see ``nn.dense_forward``). Those bits rest on how NumPy
        dispatches a stacked matmul; ``training_meta["numpy_version"]``
        names the version a checkpoint was trained with.
        """
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"expected a batch of flattened scenes, got shape {x.shape}")
        if x.shape[1] != self.config.hidden3:
            raise ValueError(
                f"input vector must have {self.config.hidden3} components, got shape {x.shape}"
            )
        g = None
        if self.config.use_gps:
            if gps_deg is None:
                raise ValueError(f"variant {self.config.variant!r} requires gps inputs")
            g = self.gps_normalization.normalize_array(gps_deg)
        chunk = RECONSTRUCT_ROWS
        out = np.empty(x.shape)
        for lo in range(0, x.shape[0], chunk):
            gb = g[lo : lo + chunk] if g is not None else None
            forward(
                self.config, self.values, np.asarray(x[lo : lo + chunk], np.float64), gb,
                out=out[lo : lo + chunk], row_invariant=row_invariant,
            )
        return out


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write ``checkpoint`` to ``path`` through ``atomic_write``: on failure
    ``path`` is left as it was.

    The file is one JSON header line (``format_version``, ``config``,
    ``gps_normalization``, ``params`` as ``[name, shape]`` pairs in sorted
    name order, and ``training_meta``), so ``head -1`` shows what a
    checkpoint was trained from. Each parameter's little-endian float64
    bytes follow, in the order of ``params``, written from the array itself.
    """
    values = checkpoint.values
    names = sorted(values)
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": checkpoint.config.to_dict(),
        "gps_normalization": checkpoint.gps_normalization.to_dict(),
        "params": [[name, list(values[name].shape)] for name in names],
        "training_meta": checkpoint.training_meta,
    }
    with atomic_write(path) as f:
        f.write(json.dumps(header) + "\n")
        f.flush()  # the text layer's buffer goes out before the bytes below it
        for name in names:
            f.buffer.write(memoryview(np.ascontiguousarray(values[name], "<f8")))


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``.

    Nothing is allocated until the header's shapes account for exactly the
    bytes that follow it; each parameter is then read straight into its own
    writeable float64 array. Every malformed field raises a
    ``CheckpointError`` whose message starts with ``path``: an unsupported
    ``format_version`` a version error, names or shapes that do not match
    the configuration a shape error, anything else a corrupt error.
    """
    with open(path, "rb") as f:
        try:
            doc = json.loads(f.readline())
        except ValueError as e:
            raise CheckpointCorruptError(f"{path}: not a valid checkpoint header: {e}") from e
        if not isinstance(doc, dict) or "format_version" not in doc:
            raise CheckpointCorruptError(f"{path}: missing format_version")
        version = doc["format_version"]
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointVersionError(
                f"{path}: format version {version!r}, supported {CHECKPOINT_FORMAT_VERSION}"
            )
        try:
            config = ModelConfig.from_dict(doc["config"])
            gn = GpsNormalization.from_dict(doc["gps_normalization"])
            params, meta = doc["params"], doc.get("training_meta", {})
            if not isinstance(params, list):
                raise TypeError(f"params must be a JSON array, got {type(params).__name__}")
            if not isinstance(meta, dict):
                raise TypeError(f"training_meta must be a JSON object, got {type(meta).__name__}")
            shapes = {}
            for entry in params:
                if not (isinstance(entry, list) and len(entry) == 2
                        and isinstance(entry[0], str) and isinstance(entry[1], list)):
                    raise ValueError(f"params entry {entry!r} is not a [name, shape] pair")
                name, dims = entry
                if name in shapes:
                    raise ValueError(f"params lists {name!r} twice")
                shapes[name] = tuple(whole(d, f"parameter {name!r} shape entry") for d in dims)
            size = 8 * sum(math.prod(shape) for shape in shapes.values())
            left = os.fstat(f.fileno()).st_size - f.tell()
            if size != left:
                raise ValueError(f"the payload holds {left} bytes, the params' shapes {size}")
            values = {}
            for name, shape in shapes.items():
                values[name] = arr = np.empty(shape, "<f8")
                if f.readinto(arr) != arr.nbytes:
                    raise ValueError(f"parameter {name!r} is cut short")
                # min and max propagate NaN and reach any infinity, without
                # the temporary of np.isfinite.
                if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
                    raise ValueError(f"parameter {name!r} has non-finite values")
        except RECORD_ERRORS as e:
            raise CheckpointCorruptError(f"{path}: malformed checkpoint fields: {e}") from e
    try:
        return Checkpoint(config=config, gps_normalization=gn, values=values, training_meta=meta)
    except CheckpointShapeError as e:
        raise CheckpointShapeError(f"{path}: {e}") from e
