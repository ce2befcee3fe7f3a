"""Linear forward operators and the scaled quadratic data-fidelity term.

Operators act on flat 1-D vectors (2-D convolution reshapes internally),
expose an exact adjoint, and estimate their operator norm by power
iteration on A^T A.  The fidelity is value(x) = (lam/2)||Ax - y||^2 with
gradient lam * A^T(Ax - y) and Lipschitz constant lam * ||A||^2; the
``auto`` constructor picks lam so that the Lipschitz constant is 0.99.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PowerIterationError",
    "LinearOperator",
    "IdentityOperator",
    "CircularConv1D",
    "CircularConv2D",
    "DenseOperator",
    "gaussian_blur_kernel",
    "Fidelity",
]


# Power iteration stops once the A^T A eigenvalue estimate moves by at most
# _NORM_TOL relative, and fails after _NORM_MAX_ITERS steps; Fidelity.auto
# scales the fidelity to the Lipschitz constant _AUTO_LIPSCHITZ.
_NORM_TOL = 1e-8
_NORM_MAX_ITERS = 10_000
_AUTO_LIPSCHITZ = 0.99


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge to the requested tolerance."""


def _as_vector(x, size: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size != size:
        raise ValueError(f"{what} must be a flat vector of length {size}, got shape {arr.shape}")
    return arr


class LinearOperator:
    """Base class: subclasses provide apply/adjoint and the two sizes."""

    input_size: int
    output_size: int

    def __init__(self):
        self._cached_norm: float | None = None

    def apply(self, x) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, r) -> np.ndarray:
        raise NotImplementedError

    def operator_norm(self) -> float:
        """Spectral norm via power iteration on A^T A (cached)."""
        if self._cached_norm is not None:
            return self._cached_norm
        n = self.input_size
        # Deterministic start with a small ramp so it is not orthogonal to
        # the top eigenvector of structured operators (e.g. constants).
        v = np.ones(n) + 1e-3 * np.arange(n) / max(1, n - 1)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(_NORM_MAX_ITERS):
            w = self.adjoint(self.apply(v))
            lam_next = float(np.linalg.norm(w))
            if lam_next == 0.0:
                self._cached_norm = 0.0
                return 0.0
            v = w / lam_next
            if abs(lam_next - lam) <= _NORM_TOL * max(1.0, lam_next):
                self._cached_norm = float(np.sqrt(lam_next))
                return self._cached_norm
            lam = lam_next
        raise PowerIterationError(
            f"power iteration did not converge in {_NORM_MAX_ITERS} iterations; "
            f"last eigenvalue estimates {lam!r} -> {lam_next!r}"
        )


class IdentityOperator(LinearOperator):
    def __init__(self, n: int):
        super().__init__()
        if n < 1:
            raise ValueError(f"size must be >= 1, got {n!r}")
        self.input_size = self.output_size = int(n)

    def apply(self, x) -> np.ndarray:
        return _as_vector(x, self.input_size, "input").copy()

    def adjoint(self, r) -> np.ndarray:
        return _as_vector(r, self.output_size, "residual").copy()


def _embed_centered(kernel: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Place a small kernel into a length/shape-n circular array, centered
    so that the kernel's middle tap multiplies the current sample."""
    out = np.zeros(shape)
    centers = [(m - 1) // 2 for m in kernel.shape]
    for idx in np.ndindex(kernel.shape):
        target = tuple((i - c) % n for i, c, n in zip(idx, centers, shape))
        out[target] += kernel[idx]
    return out


class CircularConv1D(LinearOperator):
    """Circular convolution with a short kernel, via FFT."""

    def __init__(self, kernel, n: int):
        super().__init__()
        kernel = np.asarray(kernel, dtype=float)
        if kernel.ndim != 1 or kernel.size == 0:
            raise ValueError("kernel must be a nonempty 1-D array")
        if not np.isfinite(kernel).all():
            raise ValueError("kernel must be finite")
        if kernel.size > n:
            raise ValueError(f"kernel length {kernel.size} exceeds signal length {n}")
        self.kernel = kernel
        self.input_size = self.output_size = int(n)
        self._khat = np.fft.rfft(_embed_centered(kernel, (int(n),)))

    def apply(self, x) -> np.ndarray:
        x = _as_vector(x, self.input_size, "input")
        return np.fft.irfft(np.fft.rfft(x) * self._khat, self.input_size)

    def adjoint(self, r) -> np.ndarray:
        r = _as_vector(r, self.output_size, "residual")
        return np.fft.irfft(np.fft.rfft(r) * np.conj(self._khat), self.output_size)


class CircularConv2D(LinearOperator):
    """Circular 2-D convolution on flattened (height x width) images."""

    def __init__(self, kernel, shape: tuple[int, int]):
        super().__init__()
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


class DenseOperator(LinearOperator):
    def __init__(self, matrix):
        super().__init__()
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ValueError("matrix must be a nonempty 2-D array")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix entries must be finite")
        self.matrix = matrix
        self.output_size, self.input_size = matrix.shape

    @classmethod
    def from_text_file(cls, path) -> "DenseOperator":
        return cls(np.atleast_2d(np.loadtxt(path, dtype=float)))

    def apply(self, x) -> np.ndarray:
        return self.matrix @ _as_vector(x, self.input_size, "input")

    def adjoint(self, r) -> np.ndarray:
        return self.matrix.T @ _as_vector(r, self.output_size, "residual")


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

    def __init__(self, op: LinearOperator, y, lam: float):
        if not (np.isfinite(lam) and lam > 0.0):
            raise ValueError(f"lam must be finite and > 0, got {lam!r}")
        self.op = op
        self.y = _as_vector(y, op.output_size, "observation").copy()
        self.lam = float(lam)

    @classmethod
    def auto(cls, op: LinearOperator, y) -> "Fidelity":
        """Scale so the gradient's Lipschitz constant is 0.99 < 1."""
        norm = op.operator_norm()
        if norm == 0.0:
            raise ValueError("operator norm is zero; the fidelity carries no information")
        return cls(op, y, _AUTO_LIPSCHITZ / norm**2)

    def value(self, x) -> float:
        r = self.op.apply(x) - self.y
        return 0.5 * self.lam * float(r @ r)

    def grad(self, x) -> np.ndarray:
        return self.lam * self.op.adjoint(self.op.apply(x) - self.y)

    def lipschitz(self) -> float:
        return self.lam * self.op.operator_norm() ** 2
