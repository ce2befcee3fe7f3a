"""The circular 2-D blur and the scaled quadratic data-fidelity term.

The one forward operator is a circular convolution on flattened images.  It
is diagonal in the Fourier basis, with multipliers k_hat = rfft2 of the
centered kernel, so its spectral norm is exactly max|k_hat| and its adjoint
multiplies by conj(k_hat).  The fidelity is value(x) = (lam/2)||Ax - y||^2
with Lipschitz constant lam * max|k_hat|^2; the ``auto`` constructor picks
lam so that constant is 0.99.  Since y is fixed, the gradient
lam * A^T(Ax - y) = lam * irfft2(|k_hat|^2 rfft2(x) - conj(k_hat) rfft2(y))
costs two FFTs, with the y term computed once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CircularConv2D", "gaussian_blur_kernel", "Fidelity", "observe"]


# Fidelity.auto scales the fidelity to the Lipschitz constant _AUTO_LIPSCHITZ.
_AUTO_LIPSCHITZ = 0.99


def _as_vector(x, size: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size != size:
        raise ValueError(f"{what} must be a flat vector of length {size}, got shape {arr.shape}")
    return arr


def _embed_centered(kernel: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Place a small kernel into a shape-sized circular array, centered
    so that the kernel's middle tap multiplies the current sample."""
    out = np.zeros(shape)
    centers = [(m - 1) // 2 for m in kernel.shape]
    for idx in np.ndindex(kernel.shape):
        target = tuple((i - c) % n for i, c, n in zip(idx, centers, shape))
        out[target] += kernel[idx]
    return out


class CircularConv2D:
    """Circular 2-D convolution on flattened (height x width) images."""

    def __init__(self, kernel, shape: tuple[int, int]):
        kernel = np.asarray(kernel, dtype=float)
        if kernel.ndim != 2 or kernel.size == 0:
            raise ValueError("kernel must be a nonempty 2-D array")
        if not np.isfinite(kernel).all():
            raise ValueError("kernel must be finite")
        h, w = (int(shape[0]), int(shape[1]))
        if kernel.shape[0] > h or kernel.shape[1] > w:
            raise ValueError(f"kernel shape {kernel.shape} exceeds image shape {(h, w)}")
        self.kernel = kernel
        self.image_shape = (h, w)
        self.input_size = self.output_size = h * w
        self._khat = np.fft.rfft2(_embed_centered(kernel, (h, w)))

    def apply(self, x) -> np.ndarray:
        img = _as_vector(x, self.input_size, "input").reshape(self.image_shape)
        out = np.fft.irfft2(np.fft.rfft2(img) * self._khat, self.image_shape)
        return out.reshape(-1)

    def adjoint(self, r) -> np.ndarray:
        img = _as_vector(r, self.output_size, "residual").reshape(self.image_shape)
        out = np.fft.irfft2(np.fft.rfft2(img) * np.conj(self._khat), self.image_shape)
        return out.reshape(-1)

    def operator_norm(self) -> float:
        """Exact spectral norm: the largest Fourier multiplier magnitude."""
        return float(np.abs(self._khat).max())


# The benchmark's tracer (perfbench/tracing.py) wraps ``operator_norm`` where
# it finds it on ``operators.LinearOperator``; this alias keeps that name on
# the one operator class.
LinearOperator = CircularConv2D


def gaussian_blur_kernel(size: int = 3, sigma2: float = 1.0) -> np.ndarray:
    """Separable Gaussian taps on an odd-sized square, normalized to unit
    mass (so the circular blur has operator norm 1)."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be a positive odd integer, got {size!r}")
    if not (np.isfinite(sigma2) and sigma2 > 0.0):
        raise ValueError(f"sigma2 must be > 0, got {sigma2!r}")
    d = np.arange(size) - (size - 1) / 2.0
    taps = np.exp(-0.5 * d**2 / sigma2)
    kernel = np.outer(taps, taps)
    return kernel / kernel.sum()


class Fidelity:
    """Quadratic data fidelity (lam/2)||Ax - y||^2."""

    def __init__(self, op: CircularConv2D, y, lam: float):
        if not (np.isfinite(lam) and lam > 0.0):
            raise ValueError(f"lam must be finite and > 0, got {lam!r}")
        self.op = op
        self.y = _as_vector(y, op.output_size, "observation").copy()
        self.lam = float(lam)
        # A^T A and A^T y in the Fourier basis.
        self._gram = np.abs(op._khat) ** 2
        self._aty_hat = np.conj(op._khat) * np.fft.rfft2(self.y.reshape(op.image_shape))

    @classmethod
    def auto(cls, op: CircularConv2D, y) -> "Fidelity":
        """Scale so the gradient's Lipschitz constant is 0.99 < 1."""
        norm = op.operator_norm()
        if norm == 0.0:
            raise ValueError("operator norm is zero; the fidelity carries no information")
        return cls(op, y, _AUTO_LIPSCHITZ / norm**2)

    def value(self, x) -> float:
        r = self.op.apply(x) - self.y
        # numpy's pairwise sum, not BLAS ddot, whose digits depend on the
        # thread count for long vectors.
        return 0.5 * self.lam * float(np.add.reduce(r * r))

    def grad(self, x) -> np.ndarray:
        shape = self.op.image_shape
        img = _as_vector(x, self.op.input_size, "input").reshape(shape)
        spec = np.fft.rfft2(img)
        spec *= self._gram
        spec -= self._aty_hat
        out = np.fft.irfft2(spec, shape).reshape(-1)
        out *= self.lam
        return out

    def lipschitz(self) -> float:
        return self.lam * self.op.operator_norm() ** 2


def observe(prior, op: CircularConv2D, meas_sigma2: float, seed: int):
    """A truth drawn from the prior and its blurred noisy observation."""
    truth = prior.sample(op.input_size, seed=seed)
    noise = np.random.default_rng(seed + 1).standard_normal(op.input_size)
    return truth, op.apply(truth) + np.sqrt(meas_sigma2) * noise
