"""Quadrature correlations, decay-bound verification and length fitting.

Correlations are read off a q/p block-diagonal covariance matrix:
<q_i q_j> is the (i, j) entry of the q block and <p_i p_j> of the p block.
Mode coordinates are grid coordinates (x, y) with mode id = x * cols + y.
"""

from dataclasses import dataclass

import numpy as np

from .engine import symplectic_spectra, von_neumann_entropy
from .errors import FitFailedError, UnsupportedStateError, ValidationError
from .lattice import wrapped_offsets


@dataclass(frozen=True)
class CorrelationBound:
    """Closed-form exponential decay bound |<q_i q_j>| <= C e^{-(d+1)/xi}."""

    c_const: float
    xi: float
    a_spec: float
    b_spec: float

    @property
    def q_ratio(self):
        """q = (sqrt(b/a) - 1) / (sqrt(b/a) + 1)."""
        root = np.sqrt(self.b_spec / self.a_spec)
        return (root - 1.0) / (root + 1.0)

    def envelope(self, d):
        """Bound value at graph distance d."""
        return self.c_const * np.exp(-(np.asarray(d, dtype=float) + 1.0) / self.xi)


def dms_bound(s):
    """Decay bound constants for the surface-code U at squeezing s."""
    if s <= 0:
        raise ValidationError("s must be positive")
    root = np.sqrt(8 * s ** 4 + 1)
    c_const = (1 + root) ** 2 / (4 * (8 * s ** 2 + s ** -2))
    # (root + 1) / (root - 1) = 1 + 2 (root + 1) / (8 s^4): root - 1 taken
    # as 8 s^4 / (root + 1), which keeps its precision where 8 s^4 << 1
    xi = 2.0 / np.log1p(2 * (root + 1) / (8 * s ** 4))
    return CorrelationBound(float(c_const), float(xi),
                            float(s ** -2), float(s ** 2 * (8 + s ** -4)))


def _require_block_diagonal(cov):
    if not cov.block_diagonal:
        raise UnsupportedStateError("correlations require a q/p block-diagonal state")


def _require_grid(cov, spec):
    """ValidationError unless `spec`'s mode grid has the state's mode count."""
    if cov.n_modes != spec.n_nodes:
        raise ValidationError("state size does not match the mode grid")


def qq_correlation(cov, i, j):
    """<q_i q_j> (kappa-scaled for thermal states)."""
    _require_block_diagonal(cov)
    return float(cov.q_columns([j])[i, 0])


def pp_correlation(cov, i, j):
    """<p_i p_j>; exactly zero beyond the A_SC adjacency."""
    _require_block_diagonal(cov)
    return float(cov.p_entry(i, j))


def mode_coords(spec, i):
    """Grid coordinates of mode id i."""
    return divmod(int(i), spec.cols)


def graph_distance(spec, i, j):
    """Chebyshev distance max(|dx|, |dy|) between mode coordinates.

    On a torus each coordinate difference is reduced modulo the wrap.
    """
    dx, dy = wrapped_offsets(spec.rows, spec.cols, spec.boundary,
                             mode_coords(spec, i), mode_coords(spec, j))
    return int(max(dx, dy))


def euclidean_distance(spec, i, j):
    """Euclidean distance between mode coordinates (wrap-reduced on torus)."""
    dx, dy = wrapped_offsets(spec.rows, spec.cols, spec.boundary,
                             mode_coords(spec, i), mode_coords(spec, j))
    return float(np.hypot(dx, dy))


def verify_bound(cov, spec):
    """Check the `dms_bound` envelope on all pairs with graph distance > 2.

    A pair violates the bound when |<q_i q_j>| exceeds the envelope by more
    than the rounding of the U^-1 entries, `noise_floor` = 16 eps cond(U)
    max|<q q>| with cond(U) <= b/a of the bound's spectral interval: where
    the envelope falls below that floor, the computed correlations are
    rounding noise.  Violations are reported, not raised.

    The pairs are read as columns `sources` of the q block, each column
    standing for `weight` columns of it.  On an even torus held as its two
    cell columns of U^-1, a translation that keeps U takes every pair (i, j)
    to a pair (i', 0) or (i', 1), by the parity of j, with the same distance
    and the same <q q> (`CovMatrix._u_inv` serves U^-1 this way): two
    sources of weight N/2 give every count, maximum and floor at O(N) cost.
    Any other state reads all N columns of its q block.

    Returns
    -------
    dict with keys n_pairs, n_violations, max_violation (the largest excess
    over the envelope of a violating pair, 0 without one), max_ratio and
    noise_floor.
    """
    _require_block_diagonal(cov)
    _require_grid(cov, spec)
    n = cov.n_modes
    if (cov._cell is not None and spec.boundary == "torus"
            and cov._u.torus == (spec.rows, spec.cols)):
        sources, weight = np.arange(2), n // 2
        # the two columns of q_block: 0.5 kappa (U^-1 + U^-1^T) / 2, as it symmetrizes
        u_inv = cov._u_inv(slice(None), sources) + cov._u_inv(sources, np.arange(n)).T
        corr = np.abs(0.5 * cov.kappa * (0.5 * u_inv))
    else:
        sources, weight = np.arange(n), 1
        corr = np.abs(cov.q_block)
    x, y = np.divmod(np.arange(n), spec.cols)
    dist = np.maximum(*wrapped_offsets(spec.rows, spec.cols, spec.boundary,
                                       (x[:, None], y[:, None]), (x[sources], y[sources])))
    mask = dist > 2
    bound = dms_bound(spec.s)
    envelope = cov.kappa * bound.envelope(dist)
    floor = 16 * np.finfo(float).eps * (bound.b_spec / bound.a_spec) * corr.max(initial=0.0)
    excess = np.where(mask, corr - envelope, -np.inf)
    n_viol = int(np.count_nonzero(excess > floor)) * weight
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mask & (envelope > 0), corr / envelope, 0.0)
    return {
        "n_pairs": int(np.count_nonzero(mask)) * weight // 2,
        "n_violations": n_viol // 2,
        "max_violation": float(excess.max()) if n_viol else 0.0,
        "max_ratio": float(ratio.max()),
        "noise_floor": float(floor),
    }


def axis_samples(cov, spec, max_separation=None, axis="diagonal"):
    """|<q q>| along a main axis through the lattice center.

    Returns (separations, correlations) for separations 1..max_separation
    from the center mode (n//2 - 1, m//2 - 1) along the requested axis
    ('row', 'col', 'diagonal' or 'antidiagonal').  A lattice with a side of
    1 has no such center, and a `spec` whose grid does not hold the state's
    modes does not fit it: both raise ValidationError.
    """
    _require_block_diagonal(cov)
    _require_grid(cov, spec)
    steps = {"row": (0, 1), "col": (1, 0), "diagonal": (1, 1), "antidiagonal": (1, -1)}
    if axis not in steps:
        raise ValidationError("axis must be one of %s" % sorted(steps))
    dx, dy = steps[axis]
    n, m = spec.rows, spec.cols
    cx, cy = n // 2 - 1, m // 2 - 1
    if min(cx, cy) < 0:
        raise ValidationError("axis samples need a lattice at least 2 wide")
    if max_separation is None:
        max_separation = max(min(n, m) // 2 - 5, 8)
    column = cov.q_columns([cx * m + cy])[:, 0]
    seps, vals = [], []
    for d in range(1, max_separation + 1):
        x, y = cx + dx * d, cy + dy * d
        if spec.boundary == "torus":
            x, y = x % n, y % m
        elif not (0 <= x < n and 0 <= y < m):
            break
        seps.append(d)
        vals.append(abs(column[x * m + y]))
    return np.array(seps, dtype=float), np.array(vals, dtype=float)


_FIT_EVALUATIONS = 500  # residual evaluations a fit may take, the Jacobian's included
_FD_STEP = np.sqrt(np.finfo(float).eps)


def _levenberg_marquardt(resid, theta, max_nfev):
    """(theta, resid(theta)) at a least-squares minimum of `resid`.

    Levenberg-Marquardt with a forward-difference Jacobian and Marquardt's
    diagonal scaling.  It stops when the gradient vanishes, when a step is
    below 1e-10 relative to theta, or when an accepted step lowers the cost
    by at most 1e-12 of it; FitFailedError after `max_nfev` calls of
    `resid`.
    """
    xtol, ftol = 1e-10, 1e-12
    r = resid(theta)
    nfev, damping = 1, 1e-3
    while nfev + theta.size < max_nfev:  # room for a Jacobian and a trial step
        steps = _FD_STEP * np.maximum(1.0, np.abs(theta))
        jac = np.column_stack([(resid(theta + h * unit) - r) / h
                               for h, unit in zip(steps, np.eye(theta.size))])
        nfev += theta.size
        grad, curv = jac.T @ r, jac.T @ jac
        if not grad.any():
            return theta, r
        scale = np.diag(np.maximum(np.diag(curv), np.finfo(float).tiny))
        cost = r @ r
        while nfev < max_nfev:
            delta = np.linalg.solve(curv + damping * scale, -grad)
            trial = theta + delta
            r_trial = resid(trial)
            nfev += 1
            small = np.linalg.norm(delta) <= xtol * (xtol + np.linalg.norm(theta))
            if r_trial @ r_trial < cost:  # False for a NaN cost too
                done = small or cost - r_trial @ r_trial <= ftol * cost
                theta, r, damping = trial, r_trial, max(0.1 * damping, 1e-15)
                if done:
                    return theta, r
                break
            if small:
                return theta, r
            damping *= 10.0
    raise FitFailedError("fit did not converge in %d evaluations" % max_nfev, residuals=r)


def fit_correlation_length(separations, correlations):
    """Fit |<q q>| = a e^{-d/xi_a} + b e^{-d/xi_b} by separable least squares.

    Variable projection: for each (xi_a, xi_b) iterate, the amplitudes are
    solved by linear least squares and the outer residual is taken in the
    log domain.  The outer fit is `_levenberg_marquardt` over (ln xi_a,
    ln xi_b), so both lengths stay positive.  It starts from the fixed
    (0.5, 3.0), so the fit is deterministic, and raises FitFailedError
    after 500 residual evaluations.

    Both inputs must be 1-d and finite, with at least 8 samples and
    positive correlations; anything else raises ValidationError.

    Returns
    -------
    (a, xi_a, b, xi_b, residual) with xi_a <= xi_b and residual the RMS
    log-domain misfit.
    """
    d = np.asarray(separations, dtype=float)
    y = np.asarray(correlations, dtype=float)
    if d.ndim != 1 or y.ndim != 1:
        raise ValidationError("separations and correlations must be 1-d")
    if d.size < 8:
        raise ValidationError("need at least 8 sample separations")
    if not (np.isfinite(d).all() and np.isfinite(y).all()):
        raise ValidationError("separations and correlations must be finite")
    if d.shape != y.shape or np.any(y <= 0):
        raise ValidationError("correlations must be positive and match separations")

    def amplitudes(xi):
        basis = np.column_stack([np.exp(-d / xi[0]), np.exp(-d / xi[1])])
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        return coef, basis

    def resid(log_xi):
        coef, basis = amplitudes(np.exp(log_xi))
        model = np.clip(basis @ coef, 1e-300, None)
        return np.log(model) - np.log(y)

    # a length driven to 0 or to infinity is a degenerate fit, not an error
    with np.errstate(over="ignore", divide="ignore"):
        log_xi, fun = _levenberg_marquardt(resid, np.log([0.5, 3.0]), _FIT_EVALUATIONS)
        (amp_a, amp_b), _ = amplitudes(np.exp(log_xi))
    xi_a, xi_b = np.exp(log_xi)
    if xi_a > xi_b:
        xi_a, xi_b = xi_b, xi_a
        amp_a, amp_b = amp_b, amp_a
    residual = float(np.sqrt(np.mean(fun ** 2)))
    return float(amp_a), float(xi_a), float(amp_b), float(xi_b), residual


def area_law_fit(cov, spec, sizes=None, offset=None):
    """Linear regression S = alpha * perimeter - gamma over nested squares.

    Square regions of side k have perimeter 4k; the default sides 2..10
    cover perimeters 8..40.  Fewer than two distinct sides fit no line, a
    square that leaves the grid on any side does not fit, and neither does
    a `spec` whose grid does not hold the state's modes: each raises
    ValidationError.

    Returns
    -------
    (alpha, gamma) from the least-squares line.
    """
    if sizes is None:
        sizes = range(2, 11)
    if len(set(sizes)) < 2:
        raise ValidationError("area_law_fit needs at least two distinct square sizes")
    _require_grid(cov, spec)
    n, m = spec.rows, spec.cols
    if offset is None:
        kmax = max(sizes)
        offset = ((n - kmax) // 2, (m - kmax) // 2)
    ox, oy = offset
    perims, squares = [], []
    for k in sizes:
        if min(ox, oy) < 0 or ox + k > n or oy + k > m:
            raise ValidationError("square of side %d does not fit" % k)
        perims.append(4 * k)
        squares.append([(ox + x) * m + (oy + y) for x in range(k) for y in range(k)])
    # one batched call: a U-native state serves every square from one solve
    entropies = [von_neumann_entropy(sp) for sp in symplectic_spectra(cov, squares)]
    slope, intercept = np.polyfit(perims, entropies, 1)
    return float(slope), float(-intercept)
