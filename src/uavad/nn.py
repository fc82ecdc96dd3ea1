"""Deterministic numerical kernel: layers with hand-written backward passes,
Adam, and a seedable platform-independent random generator whose whole state
is one 64-bit integer.

Layers, Adam and parameter stores work in the dtype of the arrays they are
given, float64 or float32, and allocate what they return in it: training
runs float32, everything else float64. Layer functions accept an arbitrary
number of leading batch dimensions. Forward passes take parameter arrays
and return fresh arrays; the sigmoid can also write into an ``out=`` array,
with the bits of a fresh one, which inference fills with its result rows.
Backward passes take ``Param`` entries, accumulate parameter gradients into
``Param.grad`` and return the gradient with respect to the layer input as a
fresh array. Every backward pass is checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

__all__ = [
    "Rng",
    "Param",
    "ParamSet",
    "dense_forward",
    "dense_backward",
    "relu_forward",
    "relu_backward",
    "sigmoid_forward",
    "conv1x1_forward",
    "conv1x1_backward",
    "concat_forward",
    "reparameterize_forward",
    "reparameterize_backward",
    "adam_step",
    "glorot_uniform",
    "numeric_gradient",
    "relative_error",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment

# Per dtype, the clamps that keep sigmoid inside the open interval (0, 1):
# the largest value below 1, and a normal number above 0. float32 takes its
# smallest normal number, since 1e-300 rounds to 0 there.
_SIGMOID_BOUNDS = {
    np.dtype(np.float64): (np.float64(1e-300), np.nextafter(1.0, 0.0)),
    np.dtype(np.float32): (
        np.finfo(np.float32).tiny, np.nextafter(np.float32(1.0), np.float32(0.0))
    ),
}

# Elements per Adam block: the block's slices of value, grad, m, v and the
# two work buffers (6 x 128 KiB in float64) stay in cache across the
# update's passes.
_ADAM_BLOCK = 16384

# Pixels per 1x1 conv GEMM. One unblocked GEMM over a training batch raised
# training's peak RSS by ~9%; blocks of this size did not.
_CONV_BLOCK = 2048

class Rng:
    """SplitMix64 stream with Box-Muller gaussians; its state is one integer.

    The update rule is fixed and platform independent: the state advances by
    the 64-bit golden-ratio constant per draw and each output is the standard
    SplitMix64 finalizer of the new state. Uniforms take the top 53 bits of
    the output, mapped to [0, 1); a scalar uniform is a one-value array draw.
    Gaussians are array draws: Box-Muller on the two halves of the uniforms.
    The scene sampler and ``world.build_benchmark`` ``_peek`` at a block of
    the stream and ``_skip`` the part they used.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    @staticmethod
    def _mix(z: np.ndarray) -> np.ndarray:
        """The SplitMix64 finalizer of each element, in place, with one temporary."""
        t = np.empty_like(z)
        # uint64 arithmetic is modular by design; silence overflow warnings.
        with np.errstate(over="ignore"):
            for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
                z ^= np.right_shift(z, np.uint64(shift), out=t)
                z *= np.uint64(mult)
            z ^= np.right_shift(z, np.uint64(31), out=t)
        return z

    def _raw(self, n: int) -> np.ndarray:
        start = self._state
        states = np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            states *= np.uint64(_GAMMA)
            states += np.uint64(start)
        self._state = (start + n * _GAMMA) & _MASK64
        return self._mix(states)

    def _next(self, k: int) -> list[float]:
        """The next k uniforms in draw order, as Python floats."""
        return self.uniform(k).tolist()

    def uniform(self, shape: int | tuple[int, ...] | None = None) -> float | np.ndarray:
        """Uniform in [0, 1); scalar when shape is None."""
        if shape is None:
            return self._next(1)[0]
        n = int(np.prod(shape))
        raw = self._raw(n)
        raw >>= np.uint64(11)
        vals = raw.astype(np.float64)
        vals *= 2.0**-53
        return vals.reshape(shape)

    def gaussian(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """n standard normals by Box-Muller on the pairs (u0[i], u1[i]) of
        the next ceil(n / 2) uniforms u0 and the ceil(n / 2) after them: every
        r cos(theta), then every r sin(theta), cut to n."""
        n = int(np.prod(shape))
        pairs = (n + 1) // 2
        u = self.uniform((2, pairs))
        r = np.sqrt(-2.0 * np.log1p(-u[0]))
        theta = 2.0 * np.pi * u[1]
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return min(int(self.uniform() * n), n - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        if n < 0:
            raise ValueError(f"permutation needs n >= 0, got {n}")
        return np.array(_fisher_yates(range(n), n, self._next(max(n - 1, 0))), dtype=np.intp)

    def sample_without_replacement(self, seq, k: int) -> list:
        """First k entries of a Fisher-Yates shuffle of seq."""
        if not 0 <= k <= len(seq):
            raise ValueError(f"cannot sample {k} from {len(seq)} items")
        return _fisher_yates(seq, k, self._next(max(len(seq) - 1, 0)))

    def _peek(self, n: int) -> np.ndarray:
        """The next n uniforms, leaving the stream where it was for ``_skip``."""
        state, block = self._state, self.uniform(n)
        self._state = state
        return block

    def _skip(self, k: int) -> None:
        self._state = (self._state + k * _GAMMA) & _MASK64


def _box_muller(u0: float, u1: float) -> tuple[float, float]:
    """Box-Muller on two uniforms as Python floats: r cos(theta), then
    r sin(theta). The scene sampler's GPS jitter; NumPy's array cos and sin
    need not give these bits."""
    r = np.sqrt(-2.0 * np.log1p(-u0))  # 1-u in (0, 1] avoids log(0)
    theta = 2.0 * np.pi * u1
    return float(r * np.cos(theta)), float(r * np.sin(theta))


def _fisher_yates(seq, k: int, us) -> list:
    """First k entries of a Fisher-Yates shuffle of a copy of seq, on the
    len(seq) - 1 uniforms ``us`` in draw order.

    Step i (n-1 down to 1) swaps slot i with slot randint(i + 1), written
    out on the next uniform; the clamp is randint's min(), as a branch.
    Slot i is final once its step has run and no later step reads it, so
    the steps n-1 ... k, whose slot falls past the sample, only copy it
    down. Every k reads the same n - 1 values.
    """
    out = list(seq)
    n = len(out)
    cut = len(us) - max(k - 1, 0)  # the copy steps; the last k - 1 swap
    for i, u in zip(range(n - 1, n - 1 - cut, -1), us):
        j = int(u * (i + 1))
        if j > i:
            j = i
        out[j] = out[i]
    for i, u in zip(range(k - 1, 0, -1), us[cut:]):
        j = int(u * (i + 1))
        if j > i:
            j = i
        out[i], out[j] = out[j], out[i]
    del out[k:]
    return out


def _lockstep_shuffle(n: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Fisher-Yates shuffles of range(n[r]) on ``us[r, :n[r] - 1]`` in
    lockstep: for every k, row r's first k slots are those of
    ``_fisher_yates(range(n[r]), k, us[r, :n[r] - 1])``. Every step swaps, as
    slot i is never read after step i; a step past a row's end reads 1.0,
    which clamps to a swap of slot i with itself."""
    rows, width = len(n), int(n.max(initial=1))
    perm = np.repeat(np.arange(width)[:, None], rows, axis=1)  # perm[i, r]: slot i of row r
    steps = np.arange(1, width)[:, None]
    # Step i of row r reads us[r, n[r] - 1 - i]: column n[r] - i behind 1.0.
    padded = np.hstack([np.ones((rows, 1)), us[:, : width - 1]])
    col = np.maximum(n - steps, 0) + np.arange(0, padded.size, width)
    j = np.minimum((padded.reshape(-1)[col] * (steps + 1)).astype(np.intp), steps)
    j = j * rows + np.arange(rows)  # the flat index in perm of slot j of row r
    flat = perm.reshape(-1)
    for i in range(width - 1, 0, -1):
        top = flat[j[i - 1]]
        flat[j[i - 1]] = perm[i]
        perm[i] = top
    return perm.T


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def _lazy_zeros(n: int, dtype: np.dtype) -> np.ndarray:
    """n zeros of ``dtype`` on fresh anonymous pages, which take memory only
    once written. ``np.zeros`` of a few MB may instead clear reused heap
    memory, which puts every page in memory at once."""
    size = max(dtype.itemsize * n, 1)
    return np.frombuffer(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE), dtype, n)


@dataclass
class Param:
    """One parameter: C-contiguous views into its ``ParamSet``'s flat vectors."""

    name: str
    value: np.ndarray
    grad: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray


class ParamSet:
    """Named parameters in one flat store.

    Four contiguous vectors of one dtype (float64 unless ``dtype`` says
    otherwise; training uses float32) hold every value, gradient and Adam
    moment: ``value``, ``grad``, ``adam_m`` and ``adam_v``. Each ``Param``'s
    arrays are reshaped views into them, laid out in canonical (sorted) name
    order, so one sweep over a vector reaches every parameter. A new store
    holds zeros for each name in ``shapes``; ``from_values`` copies arrays
    in, cast to the store's dtype. ``values`` maps each name to that
    parameter's live ``value`` array (the same object, which ``adam_step``
    updates in place): it is what the forward pass reads.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]], dtype=np.float64):
        dtype = np.dtype(dtype)
        self._layout: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        lo = 0
        for name in sorted(shapes):
            hi = lo + math.prod(shapes[name])
            self._layout[name] = (lo, hi, tuple(shapes[name]))
            lo = hi
        # The values are written at once; the gradients and moments only if
        # the store trains, which a store drawn for inference never does.
        self.value = np.zeros(lo, dtype)
        self.grad, self.adam_m, self.adam_v = (_lazy_zeros(lo, dtype) for _ in range(3))
        value, grad, m, v = map(self.views, (self.value, self.grad, self.adam_m, self.adam_v))
        self._params = {name: Param(name, value[name], grad[name], m[name], v[name])
                        for name in self._layout}
        self.values: dict[str, np.ndarray] = value

    @classmethod
    def from_values(cls, values: Mapping[str, np.ndarray], dtype=np.float64) -> "ParamSet":
        """A store of ``dtype`` whose values are copies of ``values``' arrays."""
        params = cls({name: np.shape(value) for name, value in values.items()}, dtype)
        for name, value in values.items():
            params.values[name][...] = value
        return params

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's view into ``flat``, a vector of the store's size
        read in its layout: ``views(self.value)`` is ``values``."""
        return {
            name: flat[lo:hi].reshape(shape) for name, (lo, hi, shape) in self._layout.items()
        }

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __iter__(self) -> Iterator[Param]:
        # Canonical name order: the order of the flat store.
        return iter(self._params.values())

    def zero_grads(self) -> None:
        self.grad.fill(0.0)

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}


# ---------------------------------------------------------------------------
# Layers
#
# Shapes use trailing feature axes; leading axes are batch and flow through
# unchanged. W is stored (n_out, n_in) so y = x @ W.T + b.
# ---------------------------------------------------------------------------


def dense_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    *,
    row_invariant: bool = False,
) -> np.ndarray:
    """y = x @ w.T + b over the rows of ``x``.

    The default is one GEMM over all rows, whose bits for a row can depend
    on how many rows share the call. With ``row_invariant``, a batch of more
    than one row runs as a stack of one-row products, which NumPy hands to
    BLAS one at a time: each row gets the bits of a one-row call, at ~1.6×
    the cost per row.
    """
    n_out, n_in = w.shape
    if x.shape[-1] != n_in:
        raise ValueError(f"dense input width {x.shape[-1]} != {n_in}")
    if row_invariant and x.size > n_in:
        y = np.empty((*x.shape[:-1], n_out), np.result_type(x, w))
        np.matmul(x[..., None, :], w.T, out=y[..., None, :])
    else:
        y = np.matmul(x, w.T)
    return np.add(y, b, out=y)


def dense_backward(dy: np.ndarray, x: np.ndarray, w: Param, b: Param) -> np.ndarray:
    dy2 = dy.reshape(-1, dy.shape[-1])
    x2 = x.reshape(-1, x.shape[-1])
    w.grad += dy2.T @ x2
    b.grad += dy2.sum(axis=0)
    return dy @ w.value


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dy * (x > 0.0)


def sigmoid_forward(
    x: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Numerically stable logistic; output stays inside the open interval (0, 1).

    With e = exp(-|x|), x >= 0 gives 1 / (1 + e) and x < 0 gives e / (1 + e):
    the same exp argument and division, so the same bits, as evaluating
    1 / (1 + exp(-x)) and exp(x) / (1 + exp(x)) on the two halves separately.
    The numerator is max(x >= 0, e), as 1.0 or 0.0: e <= 1, and a NaN x gives
    a NaN e, which max keeps. ``e`` is built in ``work`` (a fresh array when
    None), which may be ``x`` itself when the caller no longer needs it.
    """
    out = np.greater_equal(x, 0.0, out=np.empty(x.shape, x.dtype) if out is None else out)
    e = np.abs(x, out=work)
    np.exp(np.negative(e, out=e), out=e)
    np.maximum(out, e, out=out)
    e += 1.0
    out /= e
    return np.clip(out, *_SIGMOID_BOUNDS[out.dtype], out=out)


def conv1x1_forward(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel linear map across channels: y[..., o] = sum_c k[o, c] x[..., c] + b[o].

    Runs as a 2-D GEMM over (pixels, c_in) in blocks of ``_CONV_BLOCK``
    pixels, with the bits of one batched ``np.matmul`` over the pixel grid.
    """
    c_out, c_in = k.shape
    if x.shape[-1] != c_in:
        raise ValueError(f"conv1x1 input channels {x.shape[-1]} != {c_in}")
    y = np.empty((*x.shape[:-1], c_out), np.result_type(x, k))
    x2, y2 = x.reshape(-1, c_in), y.reshape(-1, c_out)
    for lo in range(0, x2.shape[0], _CONV_BLOCK):
        np.matmul(x2[lo : lo + _CONV_BLOCK], k.T, out=y2[lo : lo + _CONV_BLOCK])
    return np.add(y, b, out=y)


def conv1x1_backward(
    dy: np.ndarray, x: np.ndarray, k: Param, b: Param, n_in: int | None = None
) -> np.ndarray:
    """Accumulates the kernel and bias gradients; returns the input gradient
    of the first ``n_in`` channels (all when None).

    A channel slice has the bits of the same channels of the full gradient.
    The bias gradient sums over pixels with ``einsum``, which has the bits of
    ``sum(axis=0)`` and runs faster on narrow rows.
    """
    c_out, c_in = k.value.shape
    dy2 = dy.reshape(-1, c_out)
    k.grad += dy2.T @ x.reshape(-1, c_in)
    b.grad += np.einsum("ij->j", dy2)
    n = c_in if n_in is None else n_in
    return (dy2 @ k.value[:, :n]).reshape(*dy.shape[:-1], n)


def concat_forward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join along the last (feature) axis."""
    return np.concatenate([a, b], axis=-1)


def reparameterize_forward(mu: np.ndarray, log_var: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """z = mu + exp(log_var / 2) * eps."""
    if mu.shape != log_var.shape or mu.shape != eps.shape:
        raise ValueError("reparameterize shapes disagree")
    return mu + np.exp(0.5 * log_var) * eps


def reparameterize_backward(
    dz: np.ndarray, log_var: np.ndarray, eps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (d mu, d log_var)."""
    dmu = dz
    dlog_var = dz * eps * 0.5 * np.exp(0.5 * log_var)
    return dmu, dlog_var


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------


def adam_step(
    params: ParamSet,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
    t: int = 1,
) -> None:
    """Adam update with bias correction; zeroes gradients afterwards.

    The flat gradient is checked to be finite before anything changes, so a
    non-finite gradient raises ``FloatingPointError`` naming the first bad
    parameter and leaves all parameters and moments as they were. The update
    then sweeps the flat store in place (every array stays the same object),
    in blocks of ``_ADAM_BLOCK`` elements with two work buffers. Per
    element it evaluates, in this order,
    m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g**2,
    value = value - (lr * m/(1-beta1**t)) / (sqrt(v/(1-beta2**t)) + epsilon),
    so the bits equal the whole-array expressions on each parameter.
    """
    if t < 1:
        raise ValueError("Adam step index t must be >= 1")
    if not np.isfinite(params.grad).all():
        bad = next(p.name for p in params if not np.isfinite(p.grad).all())
        raise FloatingPointError(f"non-finite gradient in parameter {bad!r}")
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    w_all, g_all, m_all, v_all = params.value, params.grad, params.adam_m, params.adam_v
    size = min(_ADAM_BLOCK, w_all.size)
    buf_a = np.empty(size, w_all.dtype)
    buf_b = np.empty(size, w_all.dtype)
    for lo in range(0, w_all.size, _ADAM_BLOCK):
        w, g = w_all[lo : lo + _ADAM_BLOCK], g_all[lo : lo + _ADAM_BLOCK]
        m, v = m_all[lo : lo + _ADAM_BLOCK], v_all[lo : lo + _ADAM_BLOCK]
        a, b = buf_a[: w.size], buf_b[: w.size]
        np.multiply(g, 1.0 - beta1, out=a)
        m *= beta1
        m += a
        np.square(g, out=a)
        a *= 1.0 - beta2
        v *= beta2
        v += a
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += epsilon
        a /= b
        w -= a
        g.fill(0.0)


def glorot_uniform(rng: Rng, n_out: int, n_in: int) -> np.ndarray:
    """Uniform in +-sqrt(6 / (fan_in + fan_out)), shape (n_out, n_in)."""
    limit = np.sqrt(6.0 / (n_in + n_out))
    w = rng.uniform((n_out, n_in))
    w *= 2.0
    w -= 1.0
    w *= limit
    return w


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def numeric_gradient(f: Callable[[], float], arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f with respect to arr, in place."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        f_plus = f()
        arr[idx] = orig - h
        f_minus = f()
        arr[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
        it.iternext()
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    """Max per-component |a - n| / max(|a|, |n|, floor)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))
