"""Closed-form normal-mode spectrum of the torus surface-code Hamiltonian.

The vertex branch has frequencies omega_j and the face branch delta_j for
the collective index j = (j_x, j_y), with mode energies 8 s^2 omega_j /
(1 + 5 s^4) and 8 delta_j / s^2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lattice import check_s, w_closed_form, x_closed_form


@dataclass(frozen=True)
class SpectrumResult:
    """Normal-mode grids and the resulting gap."""

    omegas: np.ndarray
    deltas: np.ndarray
    gap: float
    gap_asymptotic: float
    zero_mode: bool


def _frequency_grids(n, m, s):
    jx = 2 * np.pi * np.arange(n)[:, None] / n
    jy = 2 * np.pi * np.arange(m)[None, :] / m
    w1 = w_closed_form(1, s)
    wr2 = w_closed_form(np.sqrt(2), s)
    w2 = w_closed_form(2, s)
    omegas = (1
              + 2 * w1 * (np.cos(jx) + np.cos(jy))
              + 2 * wr2 * (np.cos(jx + jy) + np.cos(jx - jy))
              + 2 * w2 * (np.cos(2 * jx) + np.cos(2 * jy)))
    deltas = 1 + 2 * x_closed_form(1) * (np.cos(jx) + np.cos(jy))
    return omegas, deltas


def normal_modes(n, m, s):
    """Evaluate the cosine closed forms on the full (j_x, j_y) grid (s: `check_s`).

    Grids are row-major in the collective index.  An even x even torus has
    an exact zero mode in the face branch at j = (n/2, m/2).
    """
    check_s(s)
    if n < 3 or m < 3:
        raise ValidationError("normal modes require n, m >= 3")
    omegas, deltas = _frequency_grids(n, m, s)
    deltas = np.where(np.abs(deltas) < 1e-14, 0.0, deltas)
    vertex_energy = 8 * s ** 2 * omegas / (1 + 5 * s ** 4)
    face_energy = 8 * deltas / s ** 2
    gap_val = float(min(vertex_energy.min(), face_energy.min()))
    zero = n % 2 == 0 and m % 2 == 0
    if zero:
        gap_val = 0.0
    return SpectrumResult(omegas, deltas, gap_val,
                          gap_asymptotic(min(n, m), s), zero)


def gap(n, m, s):
    """Minimum prefactored normal-mode energy (0 on an even torus)."""
    return normal_modes(n, m, s).gap


def gap_asymptotic(n, s):
    """Large-lattice gap estimate 4 pi^2 / (s^2 n^2)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return float(4 * np.pi ** 2 / (s ** 2 * n ** 2))


def cluster_gap(s):
    """Cluster-Hamiltonian gap 2 s^-2, independent of lattice size."""
    return float(2.0 * s ** -2)


def commutator_matrices(n, m, s):
    """Explicit M_v and M_f from the w(d), x(d) couplings and cyclic shifts.

    Their eigenvalues reproduce the cosine closed forms.
    """
    # cyclic shifts; Kronecker sums, not a saturating adjacency, because on
    # 3-wide tori w(1) and w(2) couple the same pair and must add
    xn = np.roll(np.eye(n), 1, axis=0)
    xm = np.roll(np.eye(m), 1, axis=0)
    eye_n = np.eye(n)
    eye_m = np.eye(m)
    ring_n = xn + xn.T
    ring_m = xm + xm.T
    w1 = w_closed_form(1, s)
    wr2 = w_closed_form(np.sqrt(2), s)
    w2 = w_closed_form(2, s)
    m_v = (np.eye(n * m)
           + w1 * (np.kron(eye_n, ring_m) + np.kron(ring_n, eye_m))
           + wr2 * (np.kron(xn, xm) + np.kron(xn.T, xm.T)
                    + np.kron(xn, xm.T) + np.kron(xn.T, xm))
           + w2 * (np.kron(eye_n, xm @ xm + (xm @ xm).T)
                   + np.kron(xn @ xn + (xn @ xn).T, eye_m)))
    m_f = np.eye(n * m) + x_closed_form(1) * (np.kron(eye_n, ring_m)
                                              + np.kron(ring_n, eye_m))
    return m_v, m_f
