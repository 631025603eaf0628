"""Entropy change and heat along quasistatic parameter paths.

The mass sweep reproduces the apparent Clausius violation at low temperature
and strong coupling; prepending the coupling step restores the inequality.
Both steps book heat by the subsystem first law on their endpoints,
Q = dU - W, with dU the change of the mean energy of H_S:

- The coupling step is a quasistatic isothermal switch-on whose work is the
  mean-force free energy change, W = dF_MF.
- The mass sweep runs at fixed microscopic coupling (gamma ~ 1/M) and fixed
  bare frequency, so only H_S depends on M. Its work int <dH_S/dM> dM is, by
  Hellmann-Feynman on the total Gibbs state, the change of the coupling free
  energy along the path (the bare part of F_MF does not depend on M at fixed
  frequency).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import tanhsinh

from .bath import (
    _TARGET_REL,
    BathSpec,
    MomentRoute,
    _moments_along,
    _stencil_derivatives,
    coupling_free_energy,
    equilibrium_moments,
    moment_derivatives,
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
    thermal_moments_decoupled,
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
        lo = min(self.start_value, self.end_value)
        if self.parameter == "mass" and lo <= 0:
            raise ValueError("mass must stay positive along the path")
        if self.parameter == "damping" and lo < 0:
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
    work_like_balance: float
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


def _path_point(
    path: ProcessPath, alpha: float, o: OscillatorParams, b: BathSpec
) -> tuple[OscillatorParams, BathSpec]:
    """Oscillator/bath at path position alpha.

    Mass paths keep the microscopic coupling fixed, so the damping rate of the
    reference bath is rescaled by M_ref/M.
    """
    if path.parameter == "mass":
        osc = OscillatorParams(mass=alpha, frequency=o.frequency)
        bath = BathSpec(
            temperature=b.temperature,
            damping=b.damping * o.mass / alpha,
            cutoff=b.cutoff,
        )
    else:
        osc = o
        bath = BathSpec(temperature=b.temperature, damping=alpha, cutoff=b.cutoff)
    return osc, bath


def _endpoint_moments(
    path: ProcessPath, o: OscillatorParams, b: BathSpec, c: Constants
) -> tuple[Moments, Moments]:
    """Moments at the start and the end of a path, from one kernel call."""
    f1, f2 = _moments_along(path.parameter, o, b, [path.start_value, path.end_value], c)
    return tuple(Moments(f1=float(p), f2=float(q), cross=0.0) for p, q in zip(f1, f2))


def entropy_change(
    path: ProcessPath,
    o: OscillatorParams,
    b: BathSpec,
    c: Constants = Constants(),
    check_consistency: bool = True,
) -> EntropyChange:
    """Entropy change along a path; exact differential, so the endpoint form
    is authoritative. The quadrature of S'(v) dv/d alpha must agree.

    The check integrates by tanh-sinh (Takahasi & Mori, Publ. RIMS 9, 721
    (1974)), whose nodes crowd the endpoints, where the damping path's
    integrand behaves like ln gamma. Each level is one array call: one kernel
    evaluation covers every node's moments and their Richardson stencils. A
    quadrature that does not converge, or an integrand that is not finite,
    raises, as does a mismatch above 1e-5 of max(1, |dS|).
    """
    m0, m1 = _endpoint_moments(path, o, b, c)
    endpoint = entropy(symplectic_param(m1, c)) - entropy(symplectic_param(m0, c))
    if not check_consistency or path.start_value == path.end_value:
        return EntropyChange(value=endpoint, quadrature=endpoint)

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


def _heat_integrand(
    path: ProcessPath, alpha: float, o: OscillatorParams, b: BathSpec, c: Constants
) -> float:
    """dQ/d alpha = (1/2M) df2/d alpha + (M w^2/2) df1/d alpha at one path point."""
    osc, bath = _path_point(path, alpha, o, b)
    d = moment_derivatives(osc, bath, path.parameter, MomentRoute.MATSUBARA, c)
    return d.df2 / (2 * osc.mass) + osc.mass * osc.frequency**2 * d.df1 / 2


def _energy_and_work(
    path: ProcessPath, alpha: float, m: Moments, o: OscillatorParams, b: BathSpec, c: Constants
) -> tuple[float, float]:
    """Mean energy of H_S and the work potential at path position alpha.

    The work potential is the coupling free energy on a mass path and zero on
    a damping path, where H_S does not depend on gamma.
    """
    osc, bath = _path_point(path, alpha, o, b)
    work = coupling_free_energy(osc, bath, c) if path.parameter == "mass" else 0.0
    return mean_energy(m, osc), work


def _first_law(start: tuple[float, float], end: tuple[float, float]) -> HeatResult:
    """Q = dU - W between two (energy, work potential) pairs. Each kernel meets
    its relative target or raises, so the target bounds the error."""
    (u0, f0), (u1, f1) = start, end
    return HeatResult(
        value=(u1 - u0) - (f1 - f0),
        error_estimate=_TARGET_REL * (abs(u0) + abs(u1) + abs(f0) + abs(f1)),
    )


def heat(
    path: ProcessPath,
    o: OscillatorParams,
    b: BathSpec,
    c: Constants = Constants(),
) -> HeatResult:
    """Heat along the path, Q = int dQ/d alpha d alpha, in closed form.

    The first law on the endpoints gives Q = dU - W: on a mass path W is the
    change of the coupling free energy, on a damping path W = 0. The grid of
    the path selects nothing here.
    """
    if path.start_value == path.end_value:
        return HeatResult(value=0.0, error_estimate=0.0)
    start, end = (
        _energy_and_work(path, alpha, m, o, b, c)
        for alpha, m in zip((path.start_value, path.end_value), _endpoint_moments(path, o, b, c))
    )
    return _first_law(start, end)


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
        work_like_balance=0.0,
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


def _report(ds: float, q: float, du: float, temperature: float, c: Constants) -> ThermoReport:
    return replace(clausius_check(q, ds, temperature, c), work_like_balance=du - q)


def _coupling_step(
    o: OscillatorParams, bath: BathSpec, m1: Moments, work: float, c: Constants, check_consistency: bool
) -> ThermoReport:
    """Switch-on 0 -> gamma, given the moments and coupling free energy at gamma."""
    m0 = thermal_moments_decoupled(o, bath.temperature, c)
    ds = entropy(symplectic_param(m1, c)) - entropy(symplectic_param(m0, c))
    if check_consistency and bath.damping > 0:
        path = ProcessPath("damping", 0.0, bath.damping)
        entropy_change(path, o, bath, c, check_consistency=True)
    du = mean_energy(m1, o) - mean_energy(m0, o)
    return _report(ds, du - work, du, bath.temperature, c)


def _mass_ends(
    o: OscillatorParams, bath: BathSpec, mass_factor: float, c: Constants
) -> tuple[ProcessPath, tuple[Moments, Moments], float]:
    """The mass path, its endpoint moments and the coupling free energy at
    its start: everything the mass step and the coupling step share."""
    if mass_factor <= 0:
        raise ValueError(f"mass_factor must be positive, got {mass_factor}")
    path = ProcessPath("mass", o.mass, o.mass * mass_factor)
    return path, _endpoint_moments(path, o, bath, c), coupling_free_energy(o, bath, c)


def _mass_step(
    o: OscillatorParams,
    bath: BathSpec,
    path: ProcessPath,
    ends: tuple[Moments, Moments],
    work0: float,
    c: Constants,
    check_consistency: bool,
) -> ThermoReport:
    m0, m1 = ends
    ds = entropy(symplectic_param(m1, c)) - entropy(symplectic_param(m0, c))
    if check_consistency:
        entropy_change(path, o, bath, c, check_consistency=True)
    start = (mean_energy(m0, o), work0)
    end = _energy_and_work(path, path.end_value, m1, o, bath, c)
    q = _first_law(start, end).value if bath.damping > 0 else 0.0
    return _report(ds, q, end[0] - start[0], bath.temperature, c)


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
    bath = BathSpec(temperature=temperature, damping=b_target.damping, cutoff=b_target.cutoff)
    m1, work = equilibrium_moments(o, bath, c), coupling_free_energy(o, bath, c)
    return _coupling_step(o, bath, m1, work, c, check_consistency)


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
    violate the Clausius inequality. dS, dU and Q come from one evaluation
    of each endpoint."""
    bath = BathSpec(temperature=temperature, damping=b.damping, cutoff=b.cutoff)
    path, ends, work0 = _mass_ends(o, bath, mass_factor, c)
    return _mass_step(o, bath, path, ends, work0, c, check_consistency)


def composed_process(
    o: OscillatorParams,
    b: BathSpec,
    temperature: float,
    c: Constants = Constants(),
    mass_factor: float = 2.0,
    check_consistency: bool = True,
) -> ThermoReport:
    """Couple first, then change the mass: the thermodynamically complete
    two-step process whose totals satisfy the Clausius inequality. The
    coupled point (M, gamma) ends one step and starts the other; it is
    evaluated once, in the same kernel call as the mass step's end point."""
    bath = BathSpec(temperature=temperature, damping=b.damping, cutoff=b.cutoff)
    path, ends, work0 = _mass_ends(o, bath, mass_factor, c)
    step1 = _coupling_step(o, bath, ends[0], work0, c, check_consistency)
    step2 = _mass_step(o, bath, path, ends, work0, c, check_consistency)
    ds = step1.delta_entropy + step2.delta_entropy
    q = step1.heat + step2.heat
    du = (step1.work_like_balance + step1.heat) + (step2.work_like_balance + step2.heat)
    return _report(ds, q, du, temperature, c)
