"""Entropy change and heat along quasistatic parameter paths.

The mass sweep reproduces the apparent Clausius violation at low temperature
and strong coupling; prepending the coupling step restores the inequality.

A path point (M, gamma, T) is the unit of work: one kernel call gives each
requested point's state, that is its moments, entropy S, mean energy U of
H_S and work potential. Every step is booked as a difference of two states:
dS, dU, and the heat by the subsystem first law, Q = dU - W, with W the
change of the work potential:

- A change of coupling (the switch-on, or any damping path) is quasistatic
  and isothermal, and its work is the mean-force free energy change,
  W = dF_MF.
- The mass sweep runs at fixed microscopic coupling (gamma ~ 1/M) and fixed
  bare frequency, so only H_S depends on M. Its work int <dH_S/dM> dM is, by
  Hellmann-Feynman on the total Gibbs state, the change of the coupling free
  energy along the path (the bare part of F_MF does not depend on M at fixed
  frequency).

The process ops compute at their bath's temperature; their ``temperature``
argument must equal it, and a different value raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import (
    _TARGET_REL,
    BathSpec,
    _mass_and_damping,
    _matsubara_moments,
    _stencil_derivatives,
)
from .errors import NumericalFailure
from .gaussian import (
    Constants,
    Moments,
    OscillatorParams,
    _symplectic_v,
    entropy,
    mean_energy,
    symplectic_param,
)

CLAUSIUS_TOL = 1e-9
_CONSISTENCY_TOL = 1e-5


@dataclass(frozen=True)
class ProcessPath:
    """A quasistatic sweep of one parameter: "mass" or "damping"."""

    parameter: str
    start_value: float
    end_value: float
    grid_points: int = 9

    def __post_init__(self):
        if self.parameter not in ("mass", "damping"):
            raise ValueError(f"unknown path parameter {self.parameter!r}")
        # written so that NaN fails every check
        if not (math.isfinite(self.start_value) and math.isfinite(self.end_value)):
            raise ValueError(f"path bounds must be finite, got {self.start_value} and {self.end_value}")
        lo = min(self.start_value, self.end_value)
        if self.parameter == "mass" and not lo > 0:
            raise ValueError("mass must stay positive along the path")
        if self.parameter == "damping" and not lo >= 0:
            raise ValueError("damping must stay non-negative along the path")
        if self.grid_points < 9 or self.grid_points % 2 == 0:
            raise ValueError(f"grid_points must be odd and >= 9, got {self.grid_points}")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.start_value, self.end_value, self.grid_points)


@dataclass(frozen=True)
class ThermoReport:
    delta_entropy: float
    heat: float
    clausius_satisfied: bool
    slack: float


@dataclass(frozen=True)
class EntropyChange:
    value: float               # endpoint form, authoritative
    quadrature: float          # integral of S'(v) dv/d alpha, consistency check
    error_estimate: float = 0.0  # the quadrature's own error estimate
    evaluations: int = 0       # integrand nodes; each is 5 kernel points

    @property
    def mismatch(self) -> float:
        return abs(self.value - self.quadrature)


@dataclass(frozen=True)
class HeatResult:
    value: float
    error_estimate: float


@dataclass(frozen=True)
class _State:
    """A path point: its moments, entropy S, mean energy U of H_S, and work
    potential, whose change between two states is the work of the step."""

    moments: Moments
    entropy: float
    energy: float
    work: float


def _states(mass, damping, o: OscillatorParams, b: BathSpec, c: Constants) -> list[_State]:
    """The state at each (M, gamma) point, from one kernel call; its work
    potential is its coupling free energy. At gamma = 0 the kernel gives the
    bare Gibbs state, and its free energy of coupling is zero."""
    b.warn_if_cutoff_low(o)
    f1, f2, work = _matsubara_moments(mass, damping, o.frequency, b.cutoff, b.temperature, c, free_energy=True)
    states = []
    for m_i, p, q, w in zip(mass.tolist(), f1.tolist(), f2.tolist(), work):
        m = Moments(f1=p, f2=q)
        osc = OscillatorParams(mass=m_i, frequency=o.frequency)
        states.append(_State(m, entropy(symplectic_param(m, c)), mean_energy(m, osc), w))
    return states


def entropy_change(
    path: ProcessPath,
    o: OscillatorParams,
    b: BathSpec,
    c: Constants = Constants(),
    check_consistency: bool = True,
) -> EntropyChange:
    """Entropy change along a path; exact differential, so the endpoint form
    is authoritative. The quadrature of S'(v) dv/d alpha must agree."""
    ends = _mass_and_damping(path.parameter, o, b, [path.start_value, path.end_value])
    s0, s1 = _states(*ends, o, b, c)
    endpoint = s1.entropy - s0.entropy
    if not check_consistency:
        return EntropyChange(value=endpoint, quadrature=endpoint)
    return _checked_entropy_change(path, endpoint, o, b, c)


def _checked_entropy_change(
    path: ProcessPath, endpoint: float, o: OscillatorParams, b: BathSpec, c: Constants
) -> EntropyChange:
    """The endpoint entropy change of a path, checked against the quadrature
    of S'(v) dv/d alpha along it.

    The check integrates by tanh-sinh (Takahasi & Mori, Publ. RIMS 9, 721
    (1974)), whose nodes crowd the endpoints, where the damping path's
    integrand behaves like ln gamma. Each level is one array call: one kernel
    evaluation covers every node's moments and their Richardson stencils. A
    quadrature that does not converge, or an integrand that is not finite,
    raises, as does a mismatch above 1e-5 of max(1, |dS|).
    """
    if path.start_value == path.end_value:
        return EntropyChange(value=endpoint, quadrature=endpoint)
    from scipy.integrate import tanhsinh  # on first use: an unchecked op never loads it

    def integrand(alpha):
        f1, f2, df1, df2, _, _ = _stencil_derivatives(path.parameter, o, b, alpha, c)
        v = _symplectic_v(f1 * f2, c)
        dv = (df1 * f2 + f1 * df2) / (2 * v * c.hbar**2)
        with np.errstate(divide="ignore"):
            return np.where(v - 0.5 < 1e-18, 0.0, np.log((v + 0.5) / (v - 0.5)) * dv)

    res = tanhsinh(integrand, path.start_value, path.end_value, atol=1e-9, rtol=1e-8)
    result = EntropyChange(
        value=endpoint,
        quadrature=float(res.integral),
        error_estimate=float(res.error),
        evaluations=int(res.nfev),
    )
    if not res.success:
        raise NumericalFailure(
            "entropy change: consistency quadrature did not converge",
            integral=result.quadrature,
            error_estimate=result.error_estimate,
            evaluations=result.evaluations,
            status=int(res.status),
        )
    if result.mismatch > _CONSISTENCY_TOL * max(1.0, abs(endpoint)):
        raise NumericalFailure(
            "entropy change: endpoint and quadrature forms disagree",
            endpoint=endpoint,
            quadrature=result.quadrature,
            error_estimate=result.error_estimate,
            evaluations=result.evaluations,
        )
    return result


def _first_law(s0: _State, s1: _State) -> HeatResult:
    """Q = dU - W between two states. Each kernel meets its relative target
    or raises, so the target bounds the error."""
    return HeatResult(
        value=(s1.energy - s0.energy) - (s1.work - s0.work),
        error_estimate=_TARGET_REL * (abs(s0.energy) + abs(s1.energy) + abs(s0.work) + abs(s1.work)),
    )


def heat(
    path: ProcessPath,
    o: OscillatorParams,
    b: BathSpec,
    c: Constants = Constants(),
) -> HeatResult:
    """Heat along the path, Q = int dQ/d alpha d alpha, in closed form.

    The first law on the endpoints gives Q = dU - W, with W the change of
    the coupling free energy on either path. The grid of the path selects
    nothing here.
    """
    if path.start_value == path.end_value:
        return HeatResult(value=0.0, error_estimate=0.0)
    ends = _mass_and_damping(path.parameter, o, b, [path.start_value, path.end_value])
    return _first_law(*_states(*ends, o, b, c))


def clausius_check(
    q: float, ds: float, temperature: float, c: Constants = Constants()
) -> ThermoReport:
    """Q <= kB T dS up to the numerical slack tolerance."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    slack = c.kB * temperature * ds - q
    return ThermoReport(
        delta_entropy=ds,
        heat=q,
        clausius_satisfied=slack >= -CLAUSIUS_TOL,
        slack=slack,
    )


def landauer_bound(s_initial: float, temperature: float, c: Constants = Constants()) -> float:
    """Minimal erasure heat kB T S for a state of entropy S (nats)."""
    if s_initial < 0:
        raise ValueError(f"entropy must be non-negative, got {s_initial}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return c.kB * temperature * s_initial


def _step(s0: _State, s1: _State, temperature: float, c: Constants, coupled: bool = True) -> ThermoReport:
    """dS and Q of the step between two states. Uncoupled, a mass step
    exchanges no heat: U does not depend on M at fixed frequency, so its dU
    is rounding and Q is booked as zero."""
    q = _first_law(s0, s1).value if coupled else 0.0
    return clausius_check(q, s1.entropy - s0.entropy, temperature, c)


def _steps(
    o: OscillatorParams,
    b: BathSpec,
    c: Constants,
    mass_factor: float,
    check_coupling: bool = False,
    check_mass: bool = False,
) -> tuple[ThermoReport, ThermoReport, ThermoReport]:
    """The coupling step, the mass step and their total, from one kernel call
    over three points: the bare oscillator (M, 0), the coupled point
    (M, gamma), which ends one step and starts the other, and the mass path's
    end (kM, gamma/k). Each checked step's entropy change is checked against
    the quadrature along its path."""
    if not 0 < mass_factor < math.inf:  # written so that NaN fails
        raise ValueError(f"mass_factor must be positive and finite, got {mass_factor}")
    path = ProcessPath("mass", o.mass, o.mass * mass_factor)
    mass, damping = _mass_and_damping("mass", o, b, [path.start_value, path.end_value])
    bare, coupled, end = _states(np.append(o.mass, mass), np.append(0.0, damping), o, b, c)
    coupling = _step(bare, coupled, b.temperature, c)
    mass_step = _step(coupled, end, b.temperature, c, coupled=b.damping > 0)
    if check_coupling:
        _checked_entropy_change(ProcessPath("damping", 0.0, b.damping), coupling.delta_entropy, o, b, c)
    if check_mass:
        _checked_entropy_change(path, mass_step.delta_entropy, o, b, c)
    q, ds = coupling.heat + mass_step.heat, coupling.delta_entropy + mass_step.delta_entropy
    return coupling, mass_step, clausius_check(q, ds, b.temperature, c)


def _bath_at(b: BathSpec, temperature: float) -> BathSpec:
    """The bath of a process op, whose ``temperature`` must be the bath's own."""
    if temperature != b.temperature:
        raise ValueError(f"temperature {temperature} differs from the bath's {b.temperature}")
    return b


def coupling_process(
    o: OscillatorParams,
    b_target: BathSpec,
    temperature: float,
    c: Constants = Constants(),
    check_consistency: bool = True,
) -> ThermoReport:
    """Quasistatic isothermal switch-on of the coupling, 0 -> gamma_target.

    dS from the endpoint entropies; heat from the subsystem first law with the
    quasistatic work W = dF_MF: Q = dU - dF_MF.
    """
    return _steps(o, _bath_at(b_target, temperature), c, 1.0, check_coupling=check_consistency)[0]


def mass_process(
    o: OscillatorParams,
    b: BathSpec,
    temperature: float,
    c: Constants = Constants(),
    mass_factor: float = 2.0,
    check_consistency: bool = True,
) -> ThermoReport:
    """Mass sweep M -> mass_factor * M at fixed bare frequency and fixed
    microscopic coupling. This is the step that taken alone appears to
    violate the Clausius inequality."""
    return _steps(o, _bath_at(b, temperature), c, mass_factor, check_mass=check_consistency)[1]


def composed_process(
    o: OscillatorParams,
    b: BathSpec,
    temperature: float,
    c: Constants = Constants(),
    mass_factor: float = 2.0,
    check_consistency: bool = True,
) -> ThermoReport:
    """Couple first, then change the mass: the thermodynamically complete
    two-step process whose totals satisfy the Clausius inequality."""
    return _steps(o, _bath_at(b, temperature), c, mass_factor, check_consistency, check_consistency)[2]
