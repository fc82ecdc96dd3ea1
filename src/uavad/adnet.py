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
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .grid import (
    RECORD_ERRORS, GpsLabel, GridSpec, GridTensor, N_CATEGORIES, atomic_write, flatten, whole,
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

CHECKPOINT_FORMAT_VERSION = 1

# Loss-side clamp keeping log() finite; forward outputs are not clamped.
_LOSS_CLIP = 1e-7

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
    def fit(cls, lat_lon: np.ndarray, scale: float = 1e4) -> "GpsNormalization":
        arr = np.asarray(lat_lon, dtype=np.float64).reshape(-1, 2)
        return cls(lat_ref=float(arr[:, 0].mean()), lon_ref=float(arr[:, 1].mean()), scale=scale)

    def to_dict(self) -> dict:
        return {"lat_ref": self.lat_ref, "lon_ref": self.lon_ref, "scale": self.scale}

    @classmethod
    def from_dict(cls, d: dict) -> "GpsNormalization":
        gn = cls(lat_ref=float(d["lat_ref"]), lon_ref=float(d["lon_ref"]), scale=float(d["scale"]))
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
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 64
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0
    gps_normalization: GpsNormalization | None = None  # fitted from training data when None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


@dataclass(frozen=True)
class EpochStats:
    train_loss: float
    val_loss: float
    val_mse: float


@dataclass(frozen=True)
class Dataset:
    """Flattened scenes: binary occupancy rows plus raw GPS degrees."""

    x: np.ndarray  # (n, vector_length) uint8 in {0, 1}
    gps: np.ndarray  # (n, 2) float64 latitude/longitude

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.uint8)
        gps = np.asarray(self.gps, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("dataset x must be two-dimensional")
        if not (x <= 1).all():  # x is uint8 here, so this is the binary check
            raise ValueError("dataset x must be binary")
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
    params = ParamSet()
    for name in ("enc.w", "mu.w", "logvar.w", "dec.w", "out.k"):
        n_out, n_in = shapes[name]
        params.add(name, glorot_uniform(rng, n_out, n_in))
    for name, shape in shapes.items():
        if name not in params.values:
            params.add(name, np.zeros(shape))
    return params


def _as_batch(arr: np.ndarray | None, width: int, what: str) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != width:
        raise ValueError(f"{what} must have {width} components, got shape {a.shape}")
    return a


def _forward_cached(
    config: ModelConfig,
    values: Mapping[str, np.ndarray],
    x: np.ndarray,
    gps: np.ndarray | None,
    eps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Batched forward pass keeping the activations needed by backward()."""
    b = x.shape[0]
    rows, cols, n_o = config.grid.cells_y, config.grid.cells_x, config.n_o

    h1_pre = dense_forward(x, values["enc.w"], values["enc.b"])
    h1 = relu_forward(h1_pre)
    mu = dense_forward(h1, values["mu.w"], values["mu.b"])
    log_var = dense_forward(h1, values["logvar.w"], values["logvar.b"])
    z = reparameterize_forward(mu, log_var, eps)
    dec_in = concat_forward(z, gps) if config.use_gps else z
    h3_pre = dense_forward(dec_in, values["dec.w"], values["dec.b"])
    h3 = relu_forward(h3_pre)

    grid4 = h3.reshape(b, rows, cols, n_o)
    x4 = x.reshape(b, rows, cols, n_o)
    conv_in = concat_forward(grid4, x4) if config.use_copy_crop else grid4
    logits = conv1x1_forward(conv_in, values["out.k"], values["out.b"])
    x_hat4 = sigmoid_forward(logits)
    x_hat = x_hat4.reshape(b, -1)

    cache = {
        "x": x,
        "h1_pre": h1_pre,
        "h1": h1,
        "mu": mu,
        "log_var": log_var,
        "eps": eps,
        "dec_in": dec_in,
        "h3_pre": h3_pre,
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reconstruction probabilities plus latent statistics.

    ``values`` maps each parameter name to its array: ``ParamSet.values``
    while training, ``Checkpoint.values`` at inference. ``x`` is a flat
    binary vector (or a batch of them). ``gps`` is the normalized
    two-component location input, required exactly when the variant uses
    GPS. ``eps`` is the latent noise; None means zeros, the
    deterministic posterior-mean mode used at inference.
    """
    single = np.asarray(x).ndim == 1
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
        eb = np.zeros((xb.shape[0], config.n_h))
    else:
        eb = _as_batch(eps, config.n_h, "latent noise")
        if eb.shape[0] != xb.shape[0]:
            raise ValueError("latent noise batch size does not match input batch size")

    x_hat, mu, log_var, _ = _forward_cached(config, values, xb, gb, eb)
    if single:
        return x_hat[0], mu[0], log_var[0]
    return x_hat, mu, log_var


def loss(
    x: np.ndarray, x_hat: np.ndarray, mu: np.ndarray, log_var: np.ndarray
) -> LossBreakdown:
    """Element-summed cross-entropy plus closed-form KL, each averaged over the batch."""
    xb = np.atleast_2d(np.asarray(x, dtype=np.float64))
    xh = np.atleast_2d(np.asarray(x_hat, dtype=np.float64))
    mub = np.atleast_2d(np.asarray(mu, dtype=np.float64))
    lvb = np.atleast_2d(np.asarray(log_var, dtype=np.float64))
    b = xb.shape[0]

    xh = np.clip(xh, _LOSS_CLIP, 1.0 - _LOSS_CLIP)
    rec = float(-np.sum(xb * np.log(xh) + (1.0 - xb) * np.log1p(-xh)) / b)
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
    near 0 or 1.
    """
    b = cache["x"].shape[0]
    n_o = config.n_o

    dlogits = (cache["x_hat4"] - cache["x4"]) / b
    dconv_in = conv1x1_backward(dlogits, cache["conv_in"], params["out.k"], params["out.b"])
    dgrid4 = dconv_in[..., :n_o] if config.use_copy_crop else dconv_in
    dh3 = dgrid4.reshape(b, -1)
    dh3_pre = relu_backward(dh3, cache["h3_pre"])
    ddec_in = dense_backward(dh3_pre, cache["dec_in"], params["dec.w"], params["dec.b"])
    dz = ddec_in[:, : config.n_h] if config.use_gps else ddec_in

    dmu, dlog_var = reparameterize_backward(dz, cache["log_var"], cache["eps"])
    dmu = dmu + cache["mu"] / b
    dlog_var = dlog_var + 0.5 * (np.exp(cache["log_var"]) - 1.0) / b

    dh1 = dense_backward(dmu, cache["h1"], params["mu.w"], params["mu.b"])
    dh1 += dense_backward(dlog_var, cache["h1"], params["logvar.w"], params["logvar.b"])
    dh1_pre = relu_backward(dh1, cache["h1_pre"])
    # dense_backward for the encoder, less its input gradient, which nothing reads.
    params["enc.w"].grad += dh1_pre.T @ cache["x"]
    params["enc.b"].grad += dh1_pre.sum(axis=0)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _validation_stats(
    config: ModelConfig,
    values: Mapping[str, np.ndarray],
    x: np.ndarray,
    gps: np.ndarray | None,
    chunk: int = 256,
) -> tuple[float, float]:
    """(mean total loss, mean squared error) with zero latent noise."""
    n = x.shape[0]
    loss_sum = 0.0
    sq_sum = 0.0
    for lo in range(0, n, chunk):
        xb = x[lo : lo + chunk].astype(np.float64)
        gb = gps[lo : lo + chunk] if gps is not None else None
        x_hat, mu, log_var = forward(config, values, xb, gb, None)
        lb = loss(xb, x_hat, mu, log_var)
        loss_sum += lb.total * xb.shape[0]
        sq_sum += float(np.sum((x_hat - xb) ** 2))
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
    """
    if train_set.n == 0 or val_set.n == 0:
        raise ValueError("train and validation sets must be non-empty")
    if train_set.x.shape[1] != config.hidden3 or val_set.x.shape[1] != config.hidden3:
        raise ValueError("dataset vector length does not match model configuration")

    rng = Rng(tc.seed)
    params = init_params(config, rng)
    gn = tc.gps_normalization or GpsNormalization.fit(train_set.gps)

    x_train = train_set.x
    x_val = val_set.x
    g_train = gn.normalize_array(train_set.gps) if config.use_gps else None
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
    best_values = params.copy_values()
    epochs_since_best = 0
    step = 0

    for epoch in range(1, tc.max_epochs + 1):
        perm = rng.permutation(n)
        eps_all = rng.gaussian((n, config.n_h))
        loss_sum = 0.0
        for bi, lo in enumerate(range(0, n, tc.batch_size)):
            idx = perm[lo : lo + tc.batch_size]
            xb = x_train[idx].astype(np.float64)
            gb = g_train[idx] if g_train is not None else None
            eb = eps_all[idx]
            try:
                x_hat, mu, log_var, cache = _forward_cached(config, params.values, xb, gb, eb)
                lb = loss(xb, x_hat, mu, log_var)
                backward(config, params, cache)
                step += 1
                adam_step(params, tc.lr, tc.beta1, tc.beta2, tc.epsilon, t=step)
            except FloatingPointError as e:
                raise FloatingPointError(f"epoch {epoch}, batch {bi}: {e}") from e
            loss_sum += lb.total * xb.shape[0]

        train_loss = loss_sum / n
        val_loss, val_mse = _validation_stats(config, params.values, x_val, g_val)
        history.append(EpochStats(train_loss=train_loss, val_loss=val_loss, val_mse=val_mse))
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
            best_values = params.copy_values()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= tc.patience:
                logger.info("early stop after epoch %d (no improvement in %d)", epoch, tc.patience)
                break

    checkpoint = Checkpoint(
        config=config,
        gps_normalization=gn,
        values=best_values,
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

    def reconstruct(self, x: np.ndarray, gps_deg: np.ndarray | None = None) -> np.ndarray:
        """Posterior-mean reconstruction probabilities, shape (n, D).

        ``x`` holds n flattened binary scenes as rows and ``gps_deg`` their
        (n, 2) latitude/longitude in degrees, which only the GPS variants
        read. Rows run through ``forward`` in chunks of 512.
        """
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"expected a batch of flattened scenes, got shape {x.shape}")
        g = None
        if self.config.use_gps:
            if gps_deg is None:
                raise ValueError(f"variant {self.config.variant!r} requires gps inputs")
            g = self.gps_normalization.normalize_array(gps_deg)
        chunk = 512
        out = np.empty((x.shape[0], self.config.hidden3))
        for lo in range(0, x.shape[0], chunk):
            gb = g[lo : lo + chunk] if g is not None else None
            xb = x[lo : lo + chunk].astype(np.float64)
            out[lo : lo + chunk], _, _ = forward(self.config, self.values, xb, gb, None)
        return out


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write ``checkpoint`` to ``path`` as JSON, through ``atomic_write``: on
    failure ``path`` is left as it was."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": checkpoint.config.to_dict(),
        "gps_normalization": checkpoint.gps_normalization.to_dict(),
        "params": {
            name: {
                "shape": list(checkpoint.values[name].shape),
                "data": checkpoint.values[name].reshape(-1).tolist(),
            }
            for name in sorted(checkpoint.values)
        },
        "training_meta": checkpoint.training_meta,
    }
    # json.dumps runs the C encoder; json.dump would stream through the
    # pure-Python one. The bytes are the same.
    with atomic_write(path) as f:
        f.write(json.dumps(doc))


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``.

    Every malformed field raises a ``CheckpointError`` whose message starts
    with ``path``: an unsupported ``format_version`` a version error, names
    or shapes that do not match the configuration a shape error, anything
    else a corrupt error.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointCorruptError(f"{path}: not a valid checkpoint document: {e}") from e
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
        params_doc = doc["params"]
        meta = doc.get("training_meta", {})
        for field, value in (("params", params_doc), ("training_meta", meta)):
            if not isinstance(value, dict):
                raise TypeError(f"{field} must be a JSON object, got {type(value).__name__}")
    except RECORD_ERRORS as e:
        raise CheckpointCorruptError(f"{path}: malformed checkpoint fields: {e}") from e

    values = {}
    for name, entry in params_doc.items():
        try:
            shape = tuple(whole(s, "shape entry") for s in entry["shape"])
            data = np.asarray(entry["data"], dtype=np.float64)
            if data.size != math.prod(shape):
                raise ValueError(f"{data.size} values for shape {shape}")
            values[name] = data.reshape(shape)
        except RECORD_ERRORS as e:
            raise CheckpointCorruptError(f"{path}: malformed parameter {name!r}: {e}") from e
        if not np.isfinite(data).all():
            raise CheckpointCorruptError(f"{path}: parameter {name!r} has non-finite values")
    try:
        return Checkpoint(config=config, gps_normalization=gn, values=values, training_meta=meta)
    except CheckpointShapeError as e:
        raise CheckpointShapeError(f"{path}: {e}") from e
