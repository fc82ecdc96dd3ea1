"""Deterministic numerical kernel: layers with hand-written backward passes,
Adam, and a seedable platform-independent random generator.

All arrays are float64 numpy arrays. Layer functions accept an arbitrary
number of leading batch dimensions. Forward passes take parameter arrays;
backward passes take ``Param`` entries, accumulate parameter gradients into
``Param.grad`` and return the gradient with respect to the layer input.
Every backward pass is checked against central finite differences in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

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

# Nearest float64 neighbours of 0 and 1 reachable by sigmoid without
# collapsing to the closed endpoints.
_SIGMOID_LO = 1e-300
_SIGMOID_HI = float(np.nextafter(1.0, 0.0))

# Elements per Adam block: the block's slices of value, grad, m, v and the
# two scratch buffers (6 x 128 KiB) stay in cache across the update's passes.
_ADAM_BLOCK = 16384


class Rng:
    """SplitMix64 stream with Box-Muller gaussians.

    The update rule is fixed and platform independent: the state advances by
    the 64-bit golden-ratio constant per draw and each output is the standard
    SplitMix64 finalizer of the new state. Uniforms take the top 53 bits of
    the output, mapped to [0, 1). Gaussians transform uniform pairs with
    Box-Muller; array draws consume the same stream as repeated scalar draws.
    Scalar draws step the state on Python ints, array draws on uint64
    arrays; both give the same bits and leave the same state.
    """

    __slots__ = ("_state", "_spare")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare: float | None = None

    @staticmethod
    def _mix(z: np.ndarray) -> np.ndarray:
        # uint64 arithmetic is modular by design; silence overflow warnings.
        with np.errstate(over="ignore"):
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

    def _raw(self, n: int) -> np.ndarray:
        start = self._state
        with np.errstate(over="ignore"):
            steps = (np.arange(1, n + 1, dtype=np.uint64)) * np.uint64(_GAMMA)
            states = np.uint64(start) + steps
        out = self._mix(states)
        self._state = (start + n * _GAMMA) & _MASK64
        return out

    def uniform(self, shape: int | tuple[int, ...] | None = None) -> float | np.ndarray:
        """Uniform in [0, 1); scalar when shape is None."""
        if shape is None:
            # The SplitMix64 step of _raw and _mix on one Python int: no
            # NumPy scalars, no errstate.
            z = self._state = (self._state + _GAMMA) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            return ((z ^ (z >> 31)) >> 11) * 2.0**-53
        n = int(np.prod(shape))
        vals = (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return vals.reshape(shape)

    def gaussian(self, shape: int | tuple[int, ...] | None = None) -> float | np.ndarray:
        """Standard normal; scalar draws cache the second Box-Muller value."""
        if shape is None:
            if self._spare is not None:
                z, self._spare = self._spare, None
                return z
            u = self.uniform(2)
            r = np.sqrt(-2.0 * np.log1p(-u[0]))  # 1-u in (0, 1] avoids log(0)
            z0 = r * np.cos(2.0 * np.pi * u[1])
            self._spare = float(r * np.sin(2.0 * np.pi * u[1]))
            return float(z0)
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
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randint(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.intp)

    def sample_without_replacement(self, seq, k: int) -> list:
        """First k entries of a Fisher-Yates shuffle of seq."""
        if k > len(seq):
            raise ValueError(f"cannot sample {k} from {len(seq)} items")
        idx = self.permutation(len(seq))[:k]
        return [seq[i] for i in idx]


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class Param:
    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)
    adam_m: np.ndarray = field(init=False)
    adam_v: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # C order, so that reshape(-1) in adam_step is a view, never a copy.
        self.value = np.asarray(self.value, dtype=np.float64, order="C")
        self.grad = np.zeros_like(self.value)
        self.adam_m = np.zeros_like(self.value)
        self.adam_v = np.zeros_like(self.value)


class ParamSet:
    """Named parameter collection with per-entry gradient and Adam state.

    ``values`` maps each name to that parameter's live ``value`` array (the
    same object, which ``adam_step`` updates in place): it is what the
    forward pass reads.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}
        self.values: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> Param:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Param(name, value)
        self._params[name] = p
        self.values[name] = p.value
        return p

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __iter__(self) -> Iterator[Param]:
        # Canonical name order, used for checkpoints and Adam sweeps.
        return iter(sorted(self._params.values(), key=lambda p: p.name))

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad.fill(0.0)

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}


# ---------------------------------------------------------------------------
# Layers
#
# Shapes use trailing feature axes; leading axes are batch and flow through
# unchanged. W is stored (n_out, n_in) so y = x @ W.T + b.
# ---------------------------------------------------------------------------


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    n_out, n_in = w.shape
    if x.shape[-1] != n_in:
        raise ValueError(f"dense input width {x.shape[-1]} != {n_in}")
    return x @ w.T + b


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


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic; output stays inside the open interval (0, 1).

    With e = exp(-|x|), x >= 0 gives 1 / (1 + e) and x < 0 gives e / (1 + e):
    the same exp argument and division, so the same bits, as evaluating
    1 / (1 + exp(-x)) and exp(x) / (1 + exp(x)) on the two halves separately.
    """
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI, out=out)


def conv1x1_forward(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel linear map across channels: y[..., o] = sum_c k[o, c] x[..., c] + b[o]."""
    c_out, c_in = k.shape
    if x.shape[-1] != c_in:
        raise ValueError(f"conv1x1 input channels {x.shape[-1]} != {c_in}")
    return x @ k.T + b


def conv1x1_backward(dy: np.ndarray, x: np.ndarray, k: Param, b: Param) -> np.ndarray:
    return dense_backward(dy, x, k, b)


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

    Every gradient is checked to be finite before anything changes, so a
    non-finite gradient raises ``FloatingPointError`` naming the first bad
    parameter and leaves all parameters and moments as they were. The update
    then runs in place on ``value``, ``adam_m`` and ``adam_v`` (the arrays
    stay the same objects), in blocks of ``_ADAM_BLOCK`` elements with two
    scratch buffers. Per element it evaluates, in this order,
    m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g**2,
    value = value - (lr * m/(1-beta1**t)) / (sqrt(v/(1-beta2**t)) + epsilon),
    so the bits equal the whole-array expressions.
    """
    if t < 1:
        raise ValueError("Adam step index t must be >= 1")
    plist = list(params)
    for p in plist:
        if not np.isfinite(p.grad).all():
            raise FloatingPointError(f"non-finite gradient in parameter {p.name!r}")
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    size = min(_ADAM_BLOCK, max((p.value.size for p in plist), default=0))
    buf_a = np.empty(size)
    buf_b = np.empty(size)
    for p in plist:
        w_all, g_all = p.value.reshape(-1), p.grad.reshape(-1)
        m_all, v_all = p.adam_m.reshape(-1), p.adam_v.reshape(-1)
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
    """Uniform in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (n_in + n_out))
    return (rng.uniform((n_out, n_in)) * 2.0 - 1.0) * limit


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
