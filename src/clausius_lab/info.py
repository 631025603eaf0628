"""Ensemble information measures and the erasure-heat budget.

Mutual information of a measurement on an ensemble, the Holevo quantity chi,
a lower bound on the accessible information by explicit measurement search,
and the Martin/Amy/shared erasure-heat identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_count, require_positive
from .gaussian import Constants

_HERM_TOL = 1e-12
_EIG_CLAMP = 1e-12
_POVM_SUM_TOL = 1e-10
# Newton steps of the measurement search, which converges in a few; and the
# rounding error of an information value, a few ulps of its O(1) terms
_NEWTON_STEPS, _INFO_ROUND = 50, 8 * float(np.finfo(float).eps)
_MIN_EFFORT = 2  # the measurement search's fewest polar angles: the two poles


def _operator(m, what: str) -> np.ndarray:
    """``m`` as a complex array, refused unless it is a non-empty square
    matrix, finite, Hermitian and positive semidefinite within tolerance."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"{what} must be square and non-empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} entries must be finite")
    if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    smallest = np.linalg.eigvalsh(m)[0]
    if smallest < -_EIG_CLAMP:
        raise ValueError(f"{what} has negative eigenvalue {smallest}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        m = _operator(self.matrix, "density matrix")
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
        if p.ndim != 1 or p.size == 0 or p.size != len(states):
            raise ValueError(f"need one probability per state in a non-empty 1-D array, got shape {p.shape}")
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= _HERM_TOL):  # so NaN and inf fail
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
        elems = tuple(_operator(e, "POVM element") for e in self.elements)
        if not elems:
            raise ValueError("POVM needs at least one element")
        dim = elems[0].shape[0]
        if any(e.shape != (dim, dim) for e in elems):
            raise ValueError("POVM elements must share one square shape")
        if np.max(np.abs(sum(elems) - np.eye(dim))) > _POVM_SUM_TOL:
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
    holevo_chi: float  # nats, from the same entropies: q_shared = kB T chi


def vn_entropy(rho: DensityMatrix) -> float:
    """-tr[rho ln rho] in nats; eigenvalues in [-1e-12, 0] count as zero."""
    eigs = np.linalg.eigvalsh(rho.matrix)
    eigs = np.clip(eigs, 0.0, None)
    nz = eigs[eigs > 0]
    return float(0.0 - np.sum(nz * np.log(nz)))  # +0.0, not -0.0, for a pure state


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


def _entropies(e: Ensemble) -> tuple[float, float]:
    """S(avg) and sum_i p_i S(rho_i)."""
    mixed = float(np.sum(e.probabilities * np.array([vn_entropy(s) for s in e.states])))
    return vn_entropy(average_state(e)), mixed


def holevo_chi(e: Ensemble) -> float:
    """chi = S(avg) - sum_i p_i S(rho_i); non-negative by concavity."""
    avg, mixed = _entropies(e)
    return avg - mixed


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def _bloch_projectors(n: np.ndarray) -> Povm:
    plus = (np.eye(2) + np.tensordot(n, _PAULI, axes=1)) / 2
    return Povm((plus, np.eye(2) - plus))


def _leading_positive(n: np.ndarray) -> np.ndarray:
    """The Bloch direction n or its antipode, whichever has its first
    component (x, then y, then z) above 1e-6 in magnitude positive. Both give
    one measurement with its outcomes swapped, so this fixes the outcome
    order. A component that is zero at the optimum comes back as rounding
    noise of either sign; the cutoff lies well above it."""
    return n if next(x for x in n if abs(x) > 1e-6) > 0 else -n


def _direction_information(n, bloch, p):
    """I of the projective measurement along each unit vector n (last axis)
    on states with Bloch vectors ``bloch`` and probabilities p: the state
    r_i gives the outcomes the probabilities (1 +- n.r_i)/2."""
    nr = n @ bloch.T
    return _information(p[:, None] * np.maximum(np.stack([1 + nr, 1 - nr], axis=-1) / 2, 0.0))


def _newton_ascent(n, value, bloch, p):
    """The direction of largest information I(n) near the unit vector n, with
    I(n) = ``value``, by Newton's method on the sphere.

    With p(+-|i) = (1 +- n.r_i)/2 for the Bloch vectors r_i of the states,
    rbar = sum_i p_i r_i and q+- = (1 +- n.rbar)/2, the gradient and Hessian
    of I over R^3 are
        g = [sum_i p_i r_i ln(p(+|i)/p(-|i)) - rbar ln(q+/q-)] / 2,
        H = [sum_i p_i r_i r_i^T (1/p(+|i) + 1/p(-|i)) - rbar rbar^T (1/q+ + 1/q-)] / 4,
    and on the sphere the Hessian is H in the tangent plane less n.g. Where
    that is not negative definite (a flat surface, a saddle, or a direction
    along a pure state, where the logarithm diverges) n is kept. A step that
    lowers I by more than its rounding ends the search. So does one that
    changes I only within its rounding, unless it is shorter than the last
    accepted step: near the maximum I moves by the square of the step, which
    falls below the rounding of I long before the step, shrinking
    quadratically, reaches the rounding of n.
    """
    rbar = p @ bloch
    last = 0.0  # so the first step must raise I beyond its rounding
    for _ in range(_NEWTON_STEPS):
        plus, minus = (1 + bloch @ n) / 2, (1 - bloch @ n) / 2
        q_plus, q_minus = (1 + rbar @ n) / 2, (1 - rbar @ n) / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = ((p * np.log(plus / minus)) @ bloch - rbar * np.log(q_plus / q_minus)) / 2
            hess = (bloch.T * (p * (1 / plus + 1 / minus))) @ bloch - np.outer(rbar, rbar) * (1 / q_plus + 1 / q_minus)
        hess /= 4
        # the Hessian on the sphere, with -1 along n itself, so that it is
        # negative definite exactly when its tangent part is, and the step
        # solving it against the tangent gradient is tangent
        tangent = np.eye(3) - np.outer(n, n)
        h = tangent @ hess @ tangent - (n @ grad) * tangent - np.outer(n, n)
        if not (np.isfinite(h).all() and np.isfinite(grad).all() and np.linalg.eigvalsh(h)[-1] < 0):
            break
        step = np.linalg.solve(h, -tangent @ grad)
        size = np.linalg.norm(step)
        trial = (n + step) / np.linalg.norm(n + step)
        trial_value = _direction_information(trial, bloch, p)
        if trial_value < value - _INFO_ROUND or (trial_value <= value + _INFO_ROUND and not size < last):
            break
        n, value, last = trial, trial_value, size
    return n


def accessible_info_lower(e: Ensemble, effort: int = 24) -> tuple[float, Povm]:
    """Lower bound on the accessible information for qubit ensembles.

    Scans rank-1 projective measurements over a Bloch-sphere grid whose
    resolution grows with ``effort``, then refines the best direction by
    Newton's method on the sphere, with the closed-form gradient and Hessian
    of the information. The projector along the Bloch direction n gives the
    state with Bloch vector r_i the outcome probabilities (1 +- n.r_i)/2, so
    the whole grid is one array expression. Of a direction and its antipode
    (one measurement, outcomes swapped) it returns the one whose first
    component above 1e-6 in magnitude is positive, with the mutual
    information of that measurement, which is bounded above by chi.
    """
    if e.dim != 2:
        raise ValueError("built-in measurement search supports qubits only")
    require_count("effort", effort, _MIN_EFFORT)
    bloch = np.einsum("kab,iba->ik", _PAULI, np.stack([s.matrix for s in e.states])).real
    theta, phi = np.meshgrid(
        np.linspace(0.0, math.pi, effort), np.linspace(0.0, 2 * math.pi, 2 * effort, endpoint=False), indexing="ij"
    )
    grid = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1).reshape(-1, 3)
    values = _direction_information(grid, bloch, e.probabilities)
    best = np.argmax(values)  # the first of equal maxima, theta-major
    n = _newton_ascent(grid[best], values[best], bloch, e.probabilities)
    povm = _bloch_projectors(_leading_positive(n))
    return mutual_information(e, povm), povm


def erasure_budget(e: Ensemble, temperature: float, c: Constants = Constants()) -> ErasureBudget:
    """Erasure heats for the sender, the receiver, and their difference.

    q_shared = q_amy - q_martin = kB T chi by construction. Its ``holevo_chi``
    comes from the same entropies, so each von Neumann entropy is computed once.
    """
    require_positive("temperature", temperature)
    kt = c.kB * temperature
    avg, mixed = _entropies(e)
    return ErasureBudget(q_martin=kt * mixed, q_amy=kt * avg, q_shared=kt * avg - kt * mixed, holevo_chi=avg - mixed)
