"""Ensemble information measures and the erasure-heat budget.

Mutual information of a measurement on an ensemble, the Holevo quantity chi,
a lower bound on the accessible information by explicit measurement search,
and the Martin/Amy/shared erasure-heat identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import Constants

_HERM_TOL = 1e-12
_EIG_CLAMP = 1e-12
_POVM_SUM_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -_EIG_CLAMP:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
        if abs(np.trace(m).real - 1.0) > _HERM_TOL:
            raise ValueError(f"density matrix trace is {np.trace(m).real}, not 1")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Ensemble:
    probabilities: np.ndarray
    states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        states = tuple(self.states)
        if p.size == 0 or p.size != len(states):
            raise ValueError("need one probability per state, non-empty")
        if np.any(p < 0) or abs(p.sum() - 1.0) > _HERM_TOL:
            raise ValueError(f"probabilities must be non-negative and sum to 1, sum {p.sum()}")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise ValueError(f"states have mixed dimensions {dims}")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


@dataclass(frozen=True)
class Povm:
    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not elems:
            raise ValueError("POVM needs at least one element")
        dim = elems[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for e in elems:
            if e.shape != (dim, dim):
                raise ValueError("POVM elements must share one square shape")
            if np.max(np.abs(e - e.conj().T)) > _HERM_TOL:
                raise ValueError("POVM element is not Hermitian")
            if np.linalg.eigvalsh(e).min() < -_EIG_CLAMP:
                raise ValueError("POVM element is not positive semidefinite")
            total += e
        if np.max(np.abs(total - np.eye(dim))) > _POVM_SUM_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


@dataclass(frozen=True)
class ErasureBudget:
    q_martin: float
    q_amy: float
    q_shared: float


def vn_entropy(rho: DensityMatrix) -> float:
    """-tr[rho ln rho] in nats; eigenvalues in [-1e-12, 0] count as zero."""
    eigs = np.linalg.eigvalsh(rho.matrix)
    eigs = np.clip(eigs, 0.0, None)
    nz = eigs[eigs > 0]
    return float(-np.sum(nz * np.log(nz)))


def average_state(e: Ensemble) -> DensityMatrix:
    """sum_i p_i rho_i."""
    avg = sum(p * s.matrix for p, s in zip(e.probabilities, e.states))
    return DensityMatrix(avg)


def outcome_table(e: Ensemble, m: Povm) -> np.ndarray:
    """Joint probabilities p_im = p_i tr[E_m rho_i]."""
    if e.dim != m.dim:
        raise ValueError(f"ensemble dim {e.dim} != POVM dim {m.dim}")
    traces = np.einsum("mab,iba->im", np.stack(m.elements), np.stack([s.matrix for s in e.states])).real
    return e.probabilities[:, None] * np.maximum(traces, 0.0)


def _information(table: np.ndarray) -> np.ndarray:
    """sum_im p_im ln(p_im / p_i q_m) over the last two axes of joint tables,
    with 0 ln 0 = 0."""
    p = table.sum(axis=-1, keepdims=True)
    q = table.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(table > 0, table * np.log(table / (p * q)), 0.0)
    return np.maximum(terms.sum(axis=(-2, -1)), 0.0)


def mutual_information(e: Ensemble, m: Povm) -> float:
    """I_M = sum_im p_im ln(p_im / p_i q_m), with 0 ln 0 = 0."""
    return float(_information(outcome_table(e, m)))


def holevo_chi(e: Ensemble) -> float:
    """chi = S(avg) - sum_i p_i S(rho_i); non-negative by concavity."""
    avg = vn_entropy(average_state(e))
    return avg - float(
        np.sum(e.probabilities * np.array([vn_entropy(s) for s in e.states]))
    )


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def _bloch_projectors(theta: float, phi: float) -> Povm:
    n = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    plus = (np.eye(2) + np.tensordot(n, _PAULI, axes=1)) / 2
    return Povm((plus, np.eye(2) - plus))


def _leading_positive(theta: float, phi: float) -> tuple[float, float]:
    """The Bloch direction (theta, phi) or its antipode, whichever has its
    first component (x, then y, then z) above 1e-6 in magnitude positive.
    Both give one measurement with its outcomes swapped, so this fixes the
    outcome order. The simplex search fixes a direction only to ~1e-8, so a
    component that is zero at the optimum comes back as noise of either
    sign; the cutoff lies well above it."""
    n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    if next(x for x in n if abs(x) > 1e-6) > 0:
        return theta, phi
    return math.pi - theta, phi + math.pi


def accessible_info_lower(e: Ensemble, effort: int = 24) -> tuple[float, Povm]:
    """Lower bound on the accessible information for qubit ensembles.

    Scans rank-1 projective measurements over a Bloch-sphere grid whose
    resolution grows with ``effort``, then refines the best direction with a
    local simplex search. The projector along the Bloch direction n gives the
    state with Bloch vector r_i the outcome probabilities (1 +- n.r_i)/2, so
    the whole grid is one array expression. Of a direction and its antipode
    (one measurement, outcomes swapped) it returns the one whose first
    component above 1e-6 in magnitude is positive, with the mutual
    information of that measurement, which is bounded above by chi.
    """
    if e.dim != 2:
        raise ValueError("built-in measurement search supports qubits only")
    if effort < 2:
        raise ValueError(f"effort must be >= 2, got {effort}")
    from scipy.optimize import minimize  # on first use: only this search needs it

    bloch = np.einsum("kab,iba->ik", _PAULI, np.stack([s.matrix for s in e.states])).real

    def information(theta, phi):
        n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)
        nr = n @ bloch.T
        return _information(e.probabilities[:, None] * np.maximum(np.stack([1 + nr, 1 - nr], axis=-1) / 2, 0.0))

    thetas, phis = np.meshgrid(
        np.linspace(0.0, math.pi, effort), np.linspace(0.0, 2 * math.pi, 2 * effort, endpoint=False), indexing="ij"
    )
    values = information(thetas, phis)
    best = np.argmax(values)  # the first of equal maxima, theta-major
    best_val, best_angles = values.flat[best], (thetas.flat[best], phis.flat[best])
    res = minimize(
        lambda x: -float(information(x[0], x[1])),
        x0=np.array(best_angles),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400},
    )
    if -res.fun > best_val:
        best_angles = (float(res.x[0]), float(res.x[1]))
    povm = _bloch_projectors(*_leading_positive(*best_angles))
    return mutual_information(e, povm), povm


def erasure_budget(e: Ensemble, temperature: float, c: Constants = Constants()) -> ErasureBudget:
    """Erasure heats for the sender, the receiver, and their difference.

    q_shared = q_amy - q_martin = kB T chi by construction.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    kt = c.kB * temperature
    q_martin = kt * float(
        np.sum(e.probabilities * np.array([vn_entropy(s) for s in e.states]))
    )
    q_amy = kt * vn_entropy(average_state(e))
    return ErasureBudget(q_martin=q_martin, q_amy=q_amy, q_shared=q_amy - q_martin)
