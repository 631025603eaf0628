"""Brute-force certification of the continuum moment formulas.

The bath is replaced by N explicit oscillators sampling the Drude-Ohmic
spectral density J(u) = M gamma u wD^2/(u^2 + wD^2). The coupled quadratic
Hamiltonian is diagonalized exactly and the reduced moments of the system
oscillator are assembled from the normal-mode thermal variances. Nothing here
shares code with :mod:`clausius_lab.bath`, which is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, require_accurate, require_count, require_positive
from .gaussian import Constants, Moments, OscillatorParams
from .bath import BathSpec

_RESIDUAL_TOL = 1e-10
_COLUMN_BLOCK = 32
_PROBE_SEED = 0
# dsyevr scales a stiffness whose largest entry lies outside [_RMIN, _RMAX]
# into that range, and its eigenvalues back (LAPACK dsyevr.f)
_SMLNUM = np.finfo(float).tiny / np.finfo(float).eps
_RMIN = math.sqrt(_SMLNUM)
_RMAX = min(math.sqrt(1.0 / _SMLNUM), 1.0 / math.sqrt(math.sqrt(np.finfo(float).tiny)))


@dataclass(frozen=True)
class DiscreteBath:
    """Explicit bath modes: ascending frequencies and bilinear couplings."""

    mode_frequencies: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.mode_frequencies, dtype=float)
        c = np.asarray(self.couplings, dtype=float)
        if w.ndim != 1 or w.shape != c.shape or w.size < 1:
            raise ValueError("mode_frequencies and couplings must be equal-length 1-D arrays")
        if not (np.isfinite(w).all() and np.isfinite(c).all()):
            raise ValueError("mode frequencies and couplings must be finite")
        if np.any(w <= 0):
            raise ValueError("all mode frequencies must be strictly positive")
        if np.any(np.diff(w) <= 0):
            raise ValueError("mode frequencies must be strictly ascending")
        object.__setattr__(self, "mode_frequencies", w)
        object.__setattr__(self, "couplings", c)

    @property
    def mode_count(self) -> int:
        return self.mode_frequencies.size


def spectral_density(u, o: OscillatorParams, b: BathSpec):
    """Drude-Ohmic J(u) = M gamma u wD^2/(u^2 + wD^2)."""
    wd2 = np.float64(b.cutoff) ** 2  # the bits of a float's ** 2, but inf where that raises OverflowError
    return o.mass * b.damping * u * wd2 / (u**2 + wd2)


def sample_bath(
    b: BathSpec,
    o: OscillatorParams,
    mode_count: int,
    omega_max: float,
) -> DiscreteBath:
    """Linear frequency grid on (0, omega_max]; unit bath masses.

    c_k^2 = (2/pi) w_k J(w_k) dw reproduces J in the dense-grid limit; the
    matching positive counter-term is applied when the stiffness matrix is
    assembled, so the bare oscillator frequency keeps its meaning at every
    coupling strength.
    """
    require_count("mode_count", mode_count)
    require_positive("omega_max", omega_max)
    dw = omega_max / mode_count
    wk = dw * np.arange(1, mode_count + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        c_sq = (2.0 / np.pi) * wk * spectral_density(wk, o, b) * dw
    if not np.isfinite(c_sq).all():
        raise NumericalFailure(
            "sampled bath couplings overflow float64", cutoff=b.cutoff, damping=b.damping, omega_max=omega_max
        )
    return DiscreteBath(mode_frequencies=wk, couplings=np.sqrt(c_sq))


def default_omega_max(o: OscillatorParams, b: BathSpec) -> float:
    # Drude tail beyond 20x the cutoff contributes negligibly to f2.
    omega_max = 20.0 * max(b.cutoff, o.frequency)
    if omega_max == math.inf:
        raise NumericalFailure("default omega_max overflows float64", cutoff=b.cutoff, frequency=o.frequency)
    return omega_max


def _tridiagonal_residual(diag, off, rows, vals) -> np.ndarray:
    """(T - vals[k]) rows[k] for each row k, with T the symmetric tridiagonal
    of diagonal ``diag`` and off-diagonal ``off``: O(N) per row."""
    residual = diag - vals[:, None]
    residual *= rows
    residual[:, :-1] += off * rows[:, 1:]
    residual[:, 1:] += off * rows[:, :-1]
    return residual


def _normal_modes(head, z, d) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the arrowhead stiffness S = [[head, z^T],
    [z, diag(d)]] and the system weight of each, the square of its
    eigenvector's first entry.

    S is diagonalized by the two LAPACK stages of ``dsyevr``, with its scaling
    and its workspace: ``dsytrd`` reduces S to a tridiagonal T = Q^T S Q, and
    ``dstemr`` gives T's eigenpairs. A lower Householder Q leaves the first row
    alone, so the weights need no back-transformation, and both outputs are
    bit for bit those of ``scipy.linalg.eigh``. Both stages are certified:
    each eigenpair of T by its residual, and the reduction by a seeded probe
    ||S x - Q T Q^T x|| with ||x|| = 1.
    """
    from scipy.linalg.lapack import get_lapack_funcs  # on first use: only the oracle loads scipy

    largest = max(head, np.max(np.abs(z)), d[-1])
    sigma = _RMIN / largest if largest < _RMIN else _RMAX / largest if largest > _RMAX else 1.0
    stiffness = np.diag(np.append(head, d) * sigma)
    stiffness[0, 1:] = stiffness[1:, 0] = z * sigma
    n = stiffness.shape[0]
    syevr_lwork, sytrd, ormqr, stemr = get_lapack_funcs(("syevr_lwork", "sytrd", "ormqr", "stemr"), (stiffness,))
    x = np.random.default_rng(_PROBE_SEED).standard_normal(n)
    x /= np.linalg.norm(x)
    image = stiffness @ x

    # dsyevr hands dsytrd its optimal workspace less five vectors, and dsytrd
    # picks its block size from it; the transpose is the same symmetric matrix
    # in Fortran order, so LAPACK reduces it in place instead of copying it
    lwork = int(syevr_lwork(n, lower=1)[0]) - 5 * n
    reflectors, diag, off, tau, info = sytrd(stiffness.T, lower=1, lwork=lwork, overwrite_a=1)
    if info:
        raise NumericalFailure("tridiagonal reduction of the bath stiffness failed", status=info)
    # Q acts on rows 1..N through the reflectors stored from row 1 of column 0
    # on; like dormtr, dormqr reads them in place with the leading dimension
    # N + 1 (a sliced copy would be a second matrix), and on one vector
    # (lwork 1) it applies them one at a time
    stored = reflectors.ravel(order="F")[1 : 1 + n * (n - 1)].reshape(n, n - 1, order="F")
    ormqr("L", "T", stored, tau, x[1:, None], 1, overwrite_c=1)
    qtqx = _tridiagonal_residual(diag, off, x[None], np.zeros(1))[0]  # T Q^T x
    ormqr("L", "N", stored, tau, qtqx[1:, None], 1, overwrite_c=1)
    image -= qtqx
    del stiffness, reflectors, stored  # freed before dstemr allocates the eigenvectors: one (N+1)^2 matrix at a time
    # range 0 asks for every eigenpair; dstemr overwrites the off-diagonal it
    # is given, whose last entry is its workspace
    _, scaled, eigvecs, info = stemr(diag, np.append(off, 0.0), 0, 0.0, 0.0, 1, n)
    if info:
        raise NumericalFailure("tridiagonal eigensolve of the bath stiffness failed", status=info)
    eigvals = scaled * (1.0 / sigma)
    if eigvals[0] <= 0:
        raise NumericalFailure(
            "non-positive normal-mode eigenvalue; counter-term is broken",
            smallest_eigenvalue=float(eigvals[0]),
        )
    # relative to the matrix norm before squaring, so no square overflows
    scaled_norm = np.max(np.abs(scaled))
    squares = np.empty(n)
    for lo in range(0, n, _COLUMN_BLOCK):
        block = slice(lo, lo + _COLUMN_BLOCK)
        residual = _tridiagonal_residual(diag, off, eigvecs[:, block].T, scaled[block])
        residual /= scaled_norm
        squares[block] = np.einsum("ij,ij->i", residual, residual)
    norm = float(np.max(np.abs(eigvals)))
    # float products: inf, not a warning, on overflow
    residuals = {
        "residual": math.sqrt(np.max(squares)) * norm,
        "reduction": float(np.linalg.norm(image) / scaled_norm) * norm,
    }
    require_accurate("eigenvector residual above tolerance", _RESIDUAL_TOL * norm, residuals, matrix_norm=norm)
    return eigvals, eigvecs[0] ** 2


def reduced_moments_exact(
    db: DiscreteBath,
    o: OscillatorParams,
    temperature: float,
    c: Constants = Constants(),
) -> Moments:
    """Reduced oscillator moments in the global Gibbs state of the N+1 modes.

    Mass-weighted normal modes: each contributes its exact quantum thermal
    variance, transformed back to the system coordinate. The symmetrized
    cross-correlation of every normal mode vanishes in equilibrium, so the
    reduced cross term is an exact zero.
    """
    require_positive("temperature", temperature)
    wk = db.mode_frequencies
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        d = wk**2
        head = (o.mass * np.float64(o.frequency) ** 2 + np.sum(db.couplings**2 / d)) / o.mass
    if not (np.isfinite(head) and np.isfinite(d[-1])):
        raise NumericalFailure(
            "bath stiffness overflows float64", counter_term=float(head), largest_mode_frequency=float(wk[-1])
        )
    eigvals, weight = _normal_modes(head, -db.couplings / np.sqrt(o.mass), d)

    omega_modes = np.sqrt(eigvals)
    coth = 1.0 / np.tanh(c.hbar * omega_modes / (2 * c.kB * temperature))
    f1 = float(np.sum(weight * c.hbar / (2 * omega_modes) * coth)) / o.mass
    f2 = o.mass * float(np.sum(weight * c.hbar * omega_modes / 2 * coth))
    return Moments(f1=f1, f2=f2, cross=0.0)


@dataclass(frozen=True)
class ConvergenceRow:
    mode_count: int
    f1: float
    f2: float
    delta_f1: float | None
    delta_f2: float | None


def _require_ladder(mode_counts) -> None:
    """Refuse a ladder unless each rung is a mode count and the rungs strictly
    ascend: a repeated rung's change is zero, so it would certify itself."""
    for count in mode_counts:
        require_count("mode_count", count)
    if any(b <= a for a, b in zip(mode_counts, mode_counts[1:])):
        raise ValueError(f"mode_counts must be strictly ascending, got {list(mode_counts)}")


def convergence_report(
    o: OscillatorParams,
    b: BathSpec,
    mode_counts: list[int],
    c: Constants = Constants(),
) -> tuple[list[ConvergenceRow], bool]:
    """Reduced moments at the bath's temperature for a ladder of mode counts
    with successive deltas, each ladder bath sampled up to ``default_omega_max``.

    Returns the rows and a flag set when the final successive relative change
    is below 0.5%.
    """
    _require_ladder(mode_counts)
    omax = default_omega_max(o, b)
    rows: list[ConvergenceRow] = []
    prev: Moments | None = None
    for count in mode_counts:
        m = reduced_moments_exact(sample_bath(b, o, count, omax), o, b.temperature, c)
        if prev is None:
            rows.append(ConvergenceRow(count, m.f1, m.f2, None, None))
        else:
            rows.append(
                ConvergenceRow(
                    count,
                    m.f1,
                    m.f2,
                    abs(m.f1 - prev.f1) / prev.f1,
                    abs(m.f2 - prev.f2) / prev.f2,
                )
            )
        prev = m
    converged = bool(rows) and rows[-1].delta_f1 is not None and (
        max(rows[-1].delta_f1, rows[-1].delta_f2) < 0.005
    )
    return rows, converged
