import numpy as np
import pytest

from mmseprox import CircularConv2D, Fidelity, gaussian_blur_kernel


def materialize(op) -> np.ndarray:
    cols = [op.apply(np.eye(op.input_size)[:, j]) for j in range(op.input_size)]
    return np.stack(cols, axis=1)


# Kernels whose Fourier multipliers vanish on the k = 0 or l = 0 axes (the
# differences and the Laplacian) are where an iterative norm estimate can
# start orthogonal to every large singular vector.
KERNELS = {
    "gaussian": gaussian_blur_kernel(3, 0.25),
    "diff": np.outer([-1.0, 1.0], [-1.0, 1.0]),
    "second-diff": np.outer([1.0, -2.0, 1.0], [1.0, -2.0, 1.0]),
    "laplacian": np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]]),
    "box": np.full((2, 2), 0.25),
}

OPERATORS = {
    # a unit 1x1 kernel is the identity; a one-row image is a 1-D signal;
    # a kernel as large as the image gives a dense circulant matrix
    "identity": lambda: CircularConv2D(np.ones((1, 1)), (1, 7)),
    "conv1d": lambda: CircularConv2D(np.array([[0.2, 0.5, 0.3]]), (1, 9)),
    "conv2d": lambda: CircularConv2D(gaussian_blur_kernel(3, 1.0), (4, 5)),
    "dense": lambda: CircularConv2D(np.random.default_rng(3).standard_normal((4, 5)), (4, 5)),
    **{
        f"{name}-{side}": (lambda k=kernel, n=side: CircularConv2D(k, (n, n)))
        for name, kernel in KERNELS.items()
        for side in (16, 7)
    },
}


@pytest.fixture(params=sorted(OPERATORS), ids=sorted(OPERATORS))
def operator(request):
    return OPERATORS[request.param]()


def test_adjoint_inner_product(operator):
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = rng.standard_normal(operator.input_size)
        r = rng.standard_normal(operator.output_size)
        lhs = float(operator.apply(x) @ r)
        rhs = float(x @ operator.adjoint(r))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


def test_operator_norm_matches_svd(operator):
    dense = materialize(operator)
    top_singular = np.linalg.svd(dense, compute_uv=False)[0]
    assert operator.operator_norm() == pytest.approx(top_singular, rel=1e-12)


def test_conv2d_shift_invariance():
    op = CircularConv2D(gaussian_blur_kernel(3, 0.5), (6, 6))
    rng = np.random.default_rng(0)
    img = rng.standard_normal((6, 6))
    blurred = op.apply(img.reshape(-1)).reshape(6, 6)
    rolled = op.apply(np.roll(img, (2, 3), axis=(0, 1)).reshape(-1)).reshape(6, 6)
    np.testing.assert_allclose(rolled, np.roll(blurred, (2, 3), axis=(0, 1)), atol=1e-12)


def test_zero_operator_norm():
    op = CircularConv2D(np.zeros((2, 2)), (3, 3))
    assert op.operator_norm() == 0.0
    with pytest.raises(ValueError, match="zero"):
        Fidelity.auto(op, np.zeros(9))


def test_gaussian_kernel_properties():
    k = gaussian_blur_kernel(3, 0.25)
    assert k.shape == (3, 3)
    assert k.sum() == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(k, k.T, atol=1e-16)
    np.testing.assert_allclose(k, k[::-1, ::-1], atol=1e-16)
    wider = gaussian_blur_kernel(3, 4.0)
    assert wider[1, 1] < k[1, 1]  # more spread, less center mass
    with pytest.raises(ValueError):
        gaussian_blur_kernel(4, 1.0)
    with pytest.raises(ValueError):
        gaussian_blur_kernel(3, 0.0)


def test_operator_input_validation():
    op = CircularConv2D(np.array([[0.5, 0.5]]), (2, 3))
    with pytest.raises(ValueError):
        op.apply(np.zeros(5))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros(7))
    fid = Fidelity(op, np.zeros(6), 0.5)
    with pytest.raises(ValueError):
        fid.grad(np.zeros(5))
    with pytest.raises(ValueError):
        Fidelity(op, np.zeros(7), 0.5)
    with pytest.raises(ValueError):
        CircularConv2D(np.ones((2, 2)) / 4.0, (1, 1))  # kernel larger than image


def test_fidelity_value_and_gradient():
    rng = np.random.default_rng(9)
    op = CircularConv2D(rng.standard_normal((2, 3)), (2, 3))
    y = rng.standard_normal(6)
    fid = Fidelity(op, y, 0.3)
    x = rng.standard_normal(6)
    r = op.apply(x) - y
    assert fid.value(x) == pytest.approx(0.15 * float(r @ r), rel=1e-12)
    g = fid.grad(x)
    np.testing.assert_allclose(g, 0.3 * op.adjoint(r), rtol=1e-12, atol=1e-14)
    h = 1e-6
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        fd = (fid.value(x + e) - fid.value(x - e)) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
    # gradient vanishes at a least-squares solution
    x_star, *_ = np.linalg.lstsq(materialize(op), y, rcond=None)
    np.testing.assert_allclose(fid.grad(x_star), 0.0, atol=1e-10)


def test_fidelity_grad_leaves_its_input_unchanged():
    rng = np.random.default_rng(3)
    op = CircularConv2D(gaussian_blur_kernel(3, 0.25), (8, 6))
    fid = Fidelity.auto(op, rng.standard_normal(48))
    x = rng.standard_normal(48)
    before, y = x.copy(), fid.y.copy()
    g = fid.grad(x)
    assert np.array_equal(x, before) and np.array_equal(fid.y, y)
    assert not np.shares_memory(g, x)
    # The spectrum is changed in place inside grad; the cached A^T y must not be.
    assert np.array_equal(fid.grad(x), g)


def test_fidelity_lipschitz_and_auto():
    rng = np.random.default_rng(21)
    op = CircularConv2D(rng.standard_normal((2, 3)), (2, 3))
    y = rng.standard_normal(6)
    lam = 0.05
    fid = Fidelity(op, y, lam)
    assert fid.lipschitz() == pytest.approx(lam * op.operator_norm() ** 2, rel=1e-10)
    auto = Fidelity.auto(op, y)
    assert auto.lipschitz() == pytest.approx(0.99, rel=1e-9)
    with pytest.raises(ValueError):
        Fidelity(op, y, -1.0)


def test_fidelity_empirical_lipschitz(operator):
    rng = np.random.default_rng(33)
    y = rng.standard_normal(operator.output_size)
    fid = Fidelity(operator, y, 0.7)
    L = fid.lipschitz()
    for _ in range(50):
        a = rng.standard_normal(operator.input_size)
        b = rng.standard_normal(operator.input_size)
        lhs = np.linalg.norm(fid.grad(a) - fid.grad(b))
        assert lhs <= L * np.linalg.norm(a - b) * (1 + 1e-8) + 1e-12
