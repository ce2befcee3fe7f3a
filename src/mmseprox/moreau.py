"""Lower and upper Moreau envelopes of scalar functions by global search.

The lower envelope at parameter gamma is

    M_gamma f(x)  = inf_y  f(y) + (y - x)^2 / (2 gamma)

and the upper envelope is the sup with the quadratic subtracted; both
optimize over the whole real line.  ``f`` is a plain callable that acts
elementwise on an ndarray and may return +inf (or NaN, read as +inf) where
it is undefined.  Every
envelope runs on one core: ``_scan`` evaluates the objective on a uniform
grid around each x (widening, row by row, the windows whose optimum sits
on an edge), and ``_golden`` refines grid brackets down to rounding by
golden section, one row per bracket.  So each x gets the result it gets
alone, however many points are asked for at once.

The scalar ``lower_envelope`` / ``upper_envelope`` refine every grid-local
optimum basin and keep the best refined candidate.  Near-ties (within
``_TIE_TOL`` in value) are reported in ``candidates`` so callers can detect
a multi-valued proximal map; the reported optimizer is always the smallest
tied one.

The ``*_many`` variants vectorize one envelope evaluation per entry of
``xs`` and refine only the best grid basin per entry.  They scan in blocks
of at most ``_SCAN_ENTRIES`` grid entries, sized so that a block's arrays
stay in a core's L2 cache, keep only each entry's grid bracket, and then
refine every bracket in one golden-section pass.  By default they scan a
dense grid, so that the best grid point lies in the global basin even when
the objective has several: the inner lower envelope of ``cos 3y`` in the
sandwich check is multimodal on purpose, and the envelope route of phi
(``Regularizer.phi_envelope_profile``) searches densely too.

With ``unimodal=True`` they scan only ``_UNIMODAL_GRID_POINTS`` points, for
objectives with a proof of a single basin, and check it: every grid row
must fall and then rise to within ``_TIE_TOL`` relative, or the search
raises :class:`EnvelopeNotUnimodalError` rather than pick a basin.  The
callers with a proof:

* the lower envelope of a convex f (the quadratic and absolute inner
  envelopes of the sandwich check): f(y) + (y - x)^2 / 2 is convex;
* the upper envelope of M_1 f for any f (the sandwich's outer envelope):
  M_1 f(y) - y^2 / 2 is an infimum of affine functions of y, so
  M_1 f(y) - (y - x)^2 / 2 is concave;
* the lower envelope of phi, which is 1-weakly convex, so phi(y) +
  (y - z)^2 / 2 is convex (the nested prox of ``prox_consistency`` and
  the explicit-phi envelope of ``moreau_identity``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EnvelopeResult",
    "EnvelopeNotUnimodalError",
    "EnvelopeUnboundedError",
    "MultivaluedProxError",
    "lower_envelope",
    "upper_envelope",
    "prox",
    "envelope_gradient",
    "lower_envelope_many",
    "upper_envelope_many",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Golden section stops once a bracket is this narrow relative to its
# magnitude; refined values within _TIE_TOL of the best count as tied; the
# scalar search calls its optimizer converged when the central-difference
# slope of the objective there is at most _STATIONARITY_TOL.
_GOLDEN_TOL = 1e-13
_TIE_TOL = 1e-9
_STATIONARITY_TOL = 1e-5
# The vectorized envelopes scan at most this many grid entries at once, so
# each (rows, grid_points) float array of a scan is 256 KB however many
# points are asked for: the grid, the f rows and the objective of one block
# then fit together in a 2 MB L2 cache, so the scan does not wait on main
# memory.  The block size sets no result: every row is scanned and refined
# as if alone.
_SCAN_ENTRIES = 2**15
# The vectorized envelopes scan this many grid points per window by
# default, and this many when the objective is proven unimodal.
_DENSE_GRID_POINTS = 501
_UNIMODAL_GRID_POINTS = 33


class EnvelopeUnboundedError(ValueError):
    """The envelope objective keeps improving toward the search boundary."""


class EnvelopeNotUnimodalError(ValueError):
    """An objective taken as unimodal has no finite value or several basins
    on its search grid."""


class MultivaluedProxError(RuntimeError):
    """The proximal map is multi-valued at the requested point."""


@dataclass(frozen=True)
class EnvelopeResult:
    """Envelope value with diagnostics.

    ``candidates`` lists every refined optimizer whose value ties the best
    one within the tie tolerance; ``argopt`` is the smallest of them.
    ``converged`` means the objective is stationary at ``argopt``.
    """

    value: float
    argopt: float
    converged: bool
    candidates: tuple[float, ...] = field(default_factory=tuple)


def _objective(eval_fn, sign: float, gamma: float, ys: np.ndarray, xs) -> np.ndarray:
    """sign*f(ys) + (ys - xs)^2 / (2 gamma), with NaN read as +inf.

    ``f`` is evaluated first and the quadratic is built in place, so at most
    three arrays of the size of ``ys`` are alive at once (the grid, ``f`` and
    the result): the nested envelopes of the sandwich check pass grids of
    tens of thousands of rows here.
    """
    f = np.asarray(eval_fn(ys.reshape(-1)), dtype=float).reshape(ys.shape)
    q = ys - xs
    q *= q
    q /= 2.0 * gamma
    if sign > 0:
        q += f
    else:
        q -= f
    q[np.isnan(q)] = np.inf
    return q


def _check_finite(vals: np.ndarray, xs: np.ndarray) -> None:
    """Raise unless every row of grid values has a finite entry."""
    if not np.isfinite(vals).any(axis=1).all():
        raise ValueError("objective is non-finite on the entire search grid")


def _check_unimodal(vals: np.ndarray, xs: np.ndarray) -> None:
    """Raise :class:`EnvelopeNotUnimodalError` unless every row of grid
    values has a finite entry and falls up to its smallest entry, then
    rises, each step to within ``_TIE_TOL`` of the row's magnitude.

    +inf entries pass where they continue a fall or a rise, so an objective
    that is +inf outside an interval is unimodal.  Only finite tolerances
    are added, so no inf - inf arises.
    """
    finite = np.isfinite(vals)
    magnitude = np.abs(np.where(finite, vals, 0.0)).max(axis=1, keepdims=True)
    tol = _TIE_TOL * np.maximum(1.0, magnitude)
    prev, nxt = vals[:, :-1], vals[:, 1:]
    before_best = np.arange(1, vals.shape[1]) <= np.argmin(vals, axis=1)[:, None]
    steps_ok = np.where(before_best, nxt <= prev + tol, nxt >= prev - tol)
    for fault, bad in (
        ("has no finite value", ~finite.any(axis=1)),
        ("has more than one basin", ~steps_ok.all(axis=1)),
    ):
        if bad.any():
            raise EnvelopeNotUnimodalError(
                f"envelope objective at x={float(xs[np.argmax(bad)])!r} {fault} on "
                "its search grid; it is not unimodal there"
            )


def _scan(eval_fn, sign, gamma, xs, grid_points, check=_check_finite):
    """Objective values on a uniform grid around each ``x`` (one row each).

    A row whose best grid point sits on a window edge (the optimum may lie
    outside the window) is scanned again on a window four times as wide;
    the other rows keep their grid, so a row's grid does not depend on the
    rest of ``xs``.  If widening never settles, the objective is unbounded.
    ``check(vals, xs)`` vets each scanned window and raises on a fault.
    Returns ``(ys, vals)`` of shape ``(len(xs), grid_points)``.
    """
    radius = 20.0 * max(1.0, math.sqrt(gamma))
    steps = np.arange(grid_points)
    rows = np.arange(xs.size)
    for widening in range(4):
        x = xs[rows]
        lo, hi = x - radius, x + radius
        # np.linspace(lo, hi, grid_points) row by row, built in place.
        grid = steps * ((hi - lo) / (grid_points - 1))[:, None]
        grid += lo[:, None]
        grid[:, -1] = hi
        objective = _objective(eval_fn, sign, gamma, grid, x[:, None])
        check(objective, x)
        if widening == 0:
            ys, vals = grid, objective
        else:
            ys[rows], vals[rows] = grid, objective
        best = np.argmin(objective, axis=1)
        at_edge = (best == 0) | (best == grid_points - 1)
        rows = rows[at_edge]
        if rows.size == 0:
            return ys, vals
        radius *= 4.0
    raise EnvelopeUnboundedError(
        f"envelope objective at x={float(xs[rows[0]])!r} keeps improving toward "
        f"the search boundary (last window radius {radius / 4.0!r}); it is unbounded"
    )


def _brackets(ys: np.ndarray, rows: np.ndarray, idx: np.ndarray):
    """The grid neighbours of ``ys[rows, idx]``, clipped to the grid."""
    return ys[rows, np.maximum(idx - 1, 0)], ys[rows, np.minimum(idx + 1, ys.shape[1] - 1)]


def _golden(eval_fn, sign, gamma, a: np.ndarray, b: np.ndarray, xs: np.ndarray):
    """Row-wise golden-section minimum of the objective at ``xs`` on [a, b].

    Each step keeps the surviving interior point and its value, so it costs
    one objective evaluation.  A row stops once its bracket is no wider than
    ``_GOLDEN_TOL`` relative to its magnitude, and then leaves the working
    arrays.  Returns ``(argmin, min)``.
    """
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    both = _objective(eval_fn, sign, gamma, np.concatenate([c, d]), np.concatenate([xs, xs]))
    fc, fd = np.split(both, 2)
    y, v = np.empty_like(a), np.empty_like(a)
    rows = np.arange(a.size)
    for step in range(201):
        # max(|a|, |b|) == max(-a, b) because a <= b; every row stops by step 200
        done = ((b - a) <= _GOLDEN_TOL * np.maximum(1.0, np.maximum(-a, b))) | (step == 200)
        if done.any():
            take_c = fc[done] <= fd[done]
            y[rows[done]] = np.where(take_c, c[done], d[done])
            v[rows[done]] = np.where(take_c, fc[done], fd[done])
            a, b, c, d, fc, fd, xs, rows = (z[~done] for z in (a, b, c, d, fc, fd, xs, rows))
        if rows.size == 0:
            break
        left = fc <= fd  # the minimum is in [a, d]: d becomes the new b
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        new = np.where(left, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
        fnew = _objective(eval_fn, sign, gamma, new, xs)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
    return y, v


def _points(gamma: float, xs, grid_points: int) -> np.ndarray:
    """Validated settings; the envelope points as a flat float array."""
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be finite and > 0, got {gamma!r}")
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    flat = np.asarray(xs, dtype=float).reshape(-1)
    if not np.isfinite(flat).all():
        raise ValueError("envelope point must be finite")
    return flat


def _search(f, gamma: float, x: float, sign: float, grid_points: int) -> EnvelopeResult:
    """Minimize sign*f(y) + (y-x)^2/(2 gamma) over the real line."""
    xs = _points(gamma, x, grid_points)
    ys, vals = _scan(f, sign, gamma, xs, grid_points)

    # Candidate basins: every finite grid-local minimum, the window ends
    # included; all of them are refined together, one golden-section row each.
    v = vals[0]
    basin = np.zeros(grid_points, dtype=bool)
    basin[1:-1] = (v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])
    basin[0] = v[0] <= v[1]
    basin[-1] = v[-1] <= v[-2]
    idx = np.flatnonzero(basin & np.isfinite(v))
    rows = np.zeros_like(idx)
    a, b = _brackets(ys, rows, idx)
    refined_y, refined_v = _golden(f, sign, gamma, a, b, xs[rows])
    finite = np.isfinite(refined_v)
    if not finite.any():
        raise ValueError("no finite envelope candidate found")
    best_val = float(refined_v[finite].min())
    tied = np.sort(refined_y[finite & (refined_v <= best_val + _TIE_TOL)])
    distinct: list[float] = []
    for y in tied.tolist():
        if not distinct or abs(y - distinct[-1]) > 1e-6 * max(1.0, abs(y)):
            distinct.append(y)
    argopt = distinct[0]
    h = 1e-6 * max(1.0, abs(argopt))
    up, down = _objective(f, sign, gamma, np.array([argopt + h, argopt - h]), xs[0])

    return EnvelopeResult(
        value=best_val if sign > 0 else -best_val,
        argopt=argopt,
        converged=bool(abs((up - down) / (2.0 * h)) <= _STATIONARITY_TOL),
        candidates=tuple(distinct),
    )


def lower_envelope(f, gamma: float, x: float, *, grid_points: int = 2001) -> EnvelopeResult:
    """inf_y f(y) + (y - x)^2 / (2 gamma), with the minimizing y."""
    return _search(f, gamma, x, 1.0, grid_points)


def upper_envelope(f, gamma: float, x: float, *, grid_points: int = 2001) -> EnvelopeResult:
    """sup_y f(y) - (y - x)^2 / (2 gamma), with the maximizing y."""
    return _search(f, gamma, x, -1.0, grid_points)


def prox(f, gamma: float, x: float, **kwargs) -> float:
    """The (assumed single-valued) proximal point argmin f(y) + (y-x)^2/(2 gamma)."""
    return lower_envelope(f, gamma, x, **kwargs).argopt


def envelope_gradient(f, gamma: float, x: float, **kwargs) -> float:
    """Gradient (x - prox(x)) / gamma of the lower envelope at x.

    The identity requires a single-valued, continuous proximal map; a
    multi-valued prox (tied minimizers) raises :class:`MultivaluedProxError`.
    """
    res = lower_envelope(f, gamma, x, **kwargs)
    if len(res.candidates) > 1:
        raise MultivaluedProxError(
            f"prox is multi-valued at x={x!r}: tied minimizers {res.candidates!r}; "
            "the envelope gradient identity does not apply"
        )
    return (x - res.argopt) / gamma


# -- vectorized single-basin variants -----------------------------------------


def _envelope_many(eval_fn, gamma, xs, sign, grid_points, unimodal):
    if unimodal:
        if grid_points is not None:
            raise ValueError("the unimodal search scans its own grid; pass no grid_points")
        grid_points, check = _UNIMODAL_GRID_POINTS, _check_unimodal
    else:
        if grid_points is None:
            grid_points = _DENSE_GRID_POINTS
        check = _check_finite
    shape = np.shape(xs)
    flat = _points(gamma, xs, grid_points)
    a, b = np.empty_like(flat), np.empty_like(flat)
    rows = max(1, _SCAN_ENTRIES // grid_points)
    for start in range(0, flat.size, rows):
        block = slice(start, start + rows)
        ys, vals = _scan(eval_fn, sign, gamma, flat[block], grid_points, check)
        a[block], b[block] = _brackets(ys, np.arange(ys.shape[0]), np.argmin(vals, axis=1))
    y, v = _golden(eval_fn, sign, gamma, a, b, flat)
    values = v if sign > 0 else -v
    return values.reshape(shape), y.reshape(shape)


def lower_envelope_many(eval_fn, gamma: float, xs, *, grid_points: int | None = None,
                        unimodal: bool = False):
    """Vectorized lower envelope, best grid basin per point; returns (values, argopts).

    ``unimodal=True`` asserts that the objective has one basin: the search
    scans a short grid, checks it, and raises
    :class:`EnvelopeNotUnimodalError` where the check fails.
    """
    return _envelope_many(eval_fn, gamma, xs, 1.0, grid_points, unimodal)


def upper_envelope_many(eval_fn, gamma: float, xs, *, grid_points: int | None = None,
                        unimodal: bool = False):
    """Vectorized upper envelope, best grid basin per point; returns (values, argopts).

    ``unimodal`` as in :func:`lower_envelope_many`.
    """
    return _envelope_many(eval_fn, gamma, xs, -1.0, grid_points, unimodal)
