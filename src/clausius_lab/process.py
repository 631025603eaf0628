"""Entropy change and heat along quasistatic parameter paths.

The mass sweep reproduces the apparent Clausius violation at low temperature
and strong coupling; prepending the coupling step restores the inequality.

A damping point is the unit of work, since at fixed gamma f1 ~ 1/M and
f2 ~ M: one kernel call gives each requested point's state, that is its
symplectic parameter v, entropy S, mean energy U of H_S and work potential,
at any mass. Every step is booked as a difference of two states: dS, dU,
and the heat by the subsystem first law, Q = dU - W, with W the change of
the work potential:

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bath import _ROUND, _TARGET_REL, BathSpec, _at_mass, _matsubara_moments, _Slopes
from .errors import NumericalFailure, refuse, require_accurate, require_count, require_non_negative, require_positive
from .gaussian import Constants, OscillatorParams, _symplectic_v, entropy

CLAUSIUS_TOL = 1e-9
_CONSISTENCY_TOL = 1e-5
# tanh-sinh (Takahasi & Mori, Publ. RIMS 9, 721 (1974)) on [-1, 1], with the
# steps of scipy's tanhsinh: t_max, where 1 - tanh(pi/2 sinh t) falls to 4x
# the smallest normal, over 8 at level 0, halved at each level. The error
# estimate's tolerances, 1e-9 absolute or 1e-8 relative, are scipy's too, and
# level 10 is the last
_TS_H0 = math.asinh(math.log(2 / (4 * np.finfo(float).tiny) - 1) / math.pi) / 8
_TS_LAST, _TS_ATOL, _TS_RTOL = 10, 1e-9, 1e-8
_EPS = float(np.finfo(float).eps)
# the integrand is read as 0 where v - 1/2 is below float64's spacing at 1/2,
# where v rounds onto 1/2, so its log factor is at most this there
_V_FLOOR = float(np.spacing(0.5))
_LOG_CAP = math.log1p(1 / _V_FLOOR)


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
        require_count("grid_points", self.grid_points, 9)
        if self.grid_points % 2 == 0:
            raise ValueError(f"grid_points must be odd, got {self.grid_points}")

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
    quadrature: float          # integral of S'(v) dv/dgamma, consistency check
    error_estimate: float = 0.0  # bounds the mismatch: quadrature, integrand and endpoint errors
    evaluations: int = 0       # integrand nodes, one kernel point each

    @property
    def mismatch(self) -> float:
        return abs(self.value - self.quadrature)


@dataclass(frozen=True)
class HeatResult:
    value: float
    error_estimate: float


@dataclass(frozen=True)
class _State:
    """A damping point: its v, entropy S, mean energy U of H_S, and work
    potential, whose change between two states is the work of the step."""

    v: float
    entropy: float
    energy: float
    work: float


def _damping(path: ProcessPath, o: OscillatorParams, b: BathSpec, x):
    """gamma at values x of the path's parameter. A mass path holds the
    microscopic coupling fixed, so gamma = gamma_ref M_ref / M: holding gamma
    itself fixed would make the mass a pure prefactor and the mass step a
    null process even at strong coupling."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # gamma past float64's range is inf, which the kernel refuses
        return o.mass * b.damping / x if path.parameter == "mass" else x


def entropy_change(
    path: ProcessPath,
    o: OscillatorParams,
    b: BathSpec,
    c: Constants = Constants(),
    check_consistency: bool = True,
) -> EntropyChange:
    """Entropy change along a path; exact differential, so the endpoint form
    is authoritative. The quadrature of S'(v) dv/dgamma over the damping
    interval between its ends must agree."""
    b.warn_if_cutoff_low(o)
    ends = _damping(path, o, b, [path.start_value, path.end_value])
    (s0, s1), change = _states(ends, o, b, c, (0, 1) if check_consistency else None)
    endpoint = s1.entropy - s0.entropy
    return change or EntropyChange(value=endpoint, quadrature=endpoint)


@functools.cache
def _ts_level(k: int):
    """Complements 1 - x_j and weights of the tanh-sinh abscissae new at
    level k, t_j = j h0/2^k for odd j below 8 2^k; at level 2, every level's
    from 0 to 2, in level order. Weights that underflow are 0. Each level's
    table is built once per process, as read-only arrays."""
    if k == 2:
        j = np.concatenate([4 * np.arange(9), 2 * np.arange(1, 16, 2), np.arange(1, 32, 2)])
    else:
        j = np.arange(1, 8 * 2**k, 2)
    t = j * (_TS_H0 / 2**k)
    u1, u2 = math.pi / 2 * np.cosh(t), math.pi / 2 * np.sinh(t)
    with np.errstate(over="ignore"):
        w = u1 / np.cosh(u2) ** 2
        xc = 1 / (np.exp(u2) * np.cosh(u2))
    if k == 2:
        w[0] /= 2  # x = 0 is listed on both sides
    xc.flags.writeable = w.flags.writeable = False
    return xc, w


def _tanh_sinh(a: float, b: float):
    """int_a^b f by tanh-sinh, to the tolerances of scipy's tanhsinh on the
    error estimate of Bailey, Jeyabalan & Li (Exp. Math. 14, 317 (2005)), as
    a level stepper, so that its first kernel call also takes the op's states.

    That estimate extrapolates the last three levels' sums, and before the
    rule converges it can fall far below the error. So a level's own error
    is bounded by its change from the level before, which is returned, and a
    level ends the quadrature only once that change is within a bound too.
    The stepper yields a level's nodes, a 1-d array, and is sent back f's
    values there, those values' errors and that bound. Its first yield holds
    levels 0 to 2, each later one the next level; nodes that round onto an
    end are skipped, and a level left without nodes is not yielded. Returns
    the integral, its error bound, the integrand errors summed with the same
    weights, the number of nodes, and a status: 0 converged, -2 not by level
    10, -3 a non-finite value.
    """
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    half = (b - a) / 2
    sums = []  # the level sums so far
    edge = [(math.inf, 0.0), (math.inf, 0.0)]  # per side, (1 - |x|, f w) of the node nearest the end
    evaluations = 0
    bound = 0.0  # a level without nodes keeps the bound last sent
    for k in range(2, _TS_LAST + 1):
        xc, w = _ts_level(k)
        n = len(xc)
        x = np.concatenate([b - half * xc, a + half * xc])
        w = np.concatenate([w, w]) * half
        valid = (w > 0) & (x > a) & (x < b)
        value, error = np.zeros_like(x), np.zeros_like(x)
        if valid.any():  # on a path a few ulps long every node may round onto an end
            value[valid], error[valid], bound = yield x[valid]
        evaluations += int(valid.sum())
        if not np.isfinite(value).all():
            return sign * (sums[-1] if sums else 0.0), math.nan, math.nan, evaluations, -3
        h = _TS_H0 / 2**k
        fw = value * w
        if k == 2:
            # levels 0 and 1 hold the first 9 and 17 abscissae of each side
            sides = fw.reshape(2, n)
            sums = [sides[:, :9].sum() * 4 * h, sides[:, :17].sum() * 2 * h, fw.sum() * h]
            propagated = (error * w).sum() * h
        else:
            sums.append(sums[-1] / 2 + fw.sum() * h)
            propagated = propagated / 2 + (error * w).sum() * h
        total = sums[-1]
        for side, (ok, fw_side) in enumerate(zip(valid.reshape(2, n), fw.reshape(2, n))):
            i = np.where(ok, xc, math.inf).argmin()
            if ok[i] and xc[i] < edge[side][0]:
                edge[side] = (xc[i], fw_side[i])
        d1, d2 = abs(total - sums[-2]), abs(total - sums[-3])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # an overflow gives inf, and d1 bounds it
            d0 = d1 ** (np.log(d1) / np.log(d2)) if d1 > 0 else 0.0
        d3, d4 = _EPS * abs(fw).max(), max(abs(edge[0][1]), abs(edge[1][1]))
        estimate = min(max(d0, d1 * d1, d3, d4, _EPS * abs(total)), d1)
        if (estimate < _TS_ATOL or estimate < _TS_RTOL * abs(total)) and d1 <= bound:
            return sign * total, float(d1), propagated, evaluations, 0
    return sign * total, float(d1), propagated, evaluations, -2


def _integrand(s: _Slopes, c: Constants):
    """S'(v) dv/dgamma at the nodes of a check from their moments and gamma
    slopes s, its error, and the largest relative rounding of v there."""
    v = _symplectic_v(s.f1 * s.f2, c)
    rel_v = (s.f1_error / s.f1 + s.f2_error / s.f2) / 2 + _ROUND
    scale = 2 * v * c.hbar**2
    dv = (s.df1 * s.f2 + s.f1 * s.df2) / scale
    dv_error = (
        s.df1_error * s.f2 + s.f1 * s.df2_error + abs(s.df1) * s.f2_error + s.f1_error * abs(s.df2)
        + _ROUND * (abs(s.df1 * s.f2) + abs(s.f1 * s.df2))
    ) / scale + rel_v * abs(dv)
    guard = v - 0.5 < _V_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        # S'(v) = ln(1 + 1/(v - 1/2)) keeps its digits at large v, and is
        # larger at v's low end, so the error charge is not negative
        log = np.log1p(1 / (v - 0.5))
        low = np.maximum(v * (1 - rel_v), 0.5 + _V_FLOOR)
        log_error = np.log1p(1 / (low - 0.5)) - log + _ROUND * abs(log)
        value = np.where(guard, 0.0, log * dv)
        error = np.where(guard, _LOG_CAP * (abs(dv) + dv_error), abs(log) * dv_error + log_error * abs(dv))
    return value, error, float(rel_v.max())


def _gate(s0: _State, s1: _State) -> float:
    """The largest mismatch the check of the entropy change from s0 to s1 accepts."""
    return _CONSISTENCY_TOL * max(1.0, abs(s1.entropy - s0.entropy))


def _states(damping, o: OscillatorParams, b: BathSpec, c: Constants, check=None):
    """The states at the dampings of a 1-d array and, with a check (i, j),
    the entropy change from state i to state j, checked against the
    quadrature of S'(v) dv/dgamma over the damping interval between them.
    A null interval (gamma = 0 at both ends, or two ends that round equal)
    is not checked, as a null path is not, nor is one with an infinite end,
    a state the kernel refuses; its change is None. A state's work potential
    is its coupling free energy; at gamma = 0 the kernel gives the bare Gibbs
    state, whose free energy of coupling is zero.

    The check integrates by tanh-sinh, whose nodes crowd the endpoints, where
    the integrand behaves like ln gamma near gamma = 0, at one kernel call
    per round: the first takes the states and the check's nodes of levels 0
    to 2, each later one the next level; without a check the first is the
    only one. One kernel point per node gives its moments and their exact,
    gated gamma slopes.

    The kernel's refusal comes first, from the first round that refuses, a
    state's before a node's; then the check's status and mismatch. Every
    process op takes its states, and its check, from this one function.
    """
    ends = damping.tolist()
    i, j = check or (0, 0)
    if not 0 < abs(ends[j] - ends[i]) < math.inf:  # no check, or a null or infinite interval
        out, work = _matsubara_moments(damping, o.frequency, b.cutoff, b.temperature, c, free_energy=True)
        return _kernel_states(out, work, o, c), None
    stepper, sent = _tanh_sinh(ends[i], ends[j]), None
    states, lead, rounding = None, damping.size, 0.0  # rounding: the largest relative rounding of v at the nodes
    while True:
        try:
            x = stepper.send(sent)
        except StopIteration as stop:
            outcome = stop.value
            break
        g = np.concatenate([damping[:lead], x])
        out, work = _matsubara_moments(
            g, o.frequency, b.cutoff, b.temperature, c, free_energy=states is None, nodes=np.arange(g.size) >= lead
        )
        if states is None:
            states = _kernel_states(out, work, o, c)
        value, error, rel = _integrand(_Slopes(*(v[lead:] for v in out)), c)
        rounding = max(rounding, rel)
        sent, lead = (value, error, _gate(states[i], states[j])), 0
    if states is None:  # every node rounded onto an end
        states = _states(damping, o, b, c)[0]
    return states, _checked_entropy_change(states[i], states[j], outcome, rounding)


def _kernel_states(out: _Slopes, work, o: OscillatorParams, c: Constants) -> list[_State]:
    """The states at the first len(work) elements of a kernel call, from its output out and work potentials work."""
    f1, f2 = out.f1[: len(work)], out.f2[: len(work)]
    v = _symplectic_v(f1 * f2, c)
    energy = f2 / 2 + o.frequency**2 * f1 / 2  # mean_energy of each point, at M = 1 as at any mass
    return [_State(v_i, entropy(v_i), u, w) for v_i, u, w in zip(v.tolist(), energy.tolist(), work)]


def _checked_entropy_change(s0: _State, s1: _State, outcome, rounding: float) -> EntropyChange:
    """The endpoint entropy change from s0 to s1, checked against the
    ``_tanh_sinh`` outcome of S'(v) dv/dgamma over the damping interval
    between them, whose nodes round v by at most ``rounding``, relative. A
    quadrature that did not converge, or an integrand that was not finite,
    raises, as does a mismatch above 1e-5 of max(1, |dS|).

    The error estimate bounds the mismatch: it adds the quadrature's own
    estimate, the integrand's propagated error summed with the quadrature
    weights, and the endpoints' rounding, which carries the largest relative
    rounding of v over the nodes through S at each end.
    """
    endpoint = s1.entropy - s0.entropy
    quadrature, quad_error, propagated, evaluations, status = outcome
    ends = 0.0
    for s in (s0, s1):
        dv = s.v * rounding
        ends += entropy(s.v + dv) - entropy(max(s.v - dv, 0.5)) + _ROUND * abs(s.entropy)
    result = EntropyChange(
        value=endpoint,
        quadrature=float(quadrature),
        error_estimate=float(quad_error + propagated + ends),
        evaluations=evaluations,
    )
    if status:
        raise NumericalFailure(
            "entropy change: consistency quadrature did not converge",
            integral=result.quadrature,
            error_estimate=result.error_estimate,
            evaluations=result.evaluations,
            status=status,
        )
    require_accurate(
        "entropy change: endpoint and quadrature forms disagree", _gate(s0, s1), {"mismatch": result.mismatch},
        endpoint=endpoint, quadrature=result.quadrature, error_estimate=result.error_estimate,
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
    b.warn_if_cutoff_low(o)
    if path.start_value == path.end_value:
        return HeatResult(value=0.0, error_estimate=0.0)
    ends = _damping(path, o, b, [path.start_value, path.end_value])
    return _first_law(*_states(ends, o, b, c)[0])


def _sweep(path: ProcessPath, o: OscillatorParams, b: BathSpec, c: Constants):
    """The moments f1 and f2 at the rows of a path's grid, each at its mass,
    the rows' states, and the heat up to each row by the trapezoid rule on
    dQ/d alpha, from one kernel call that takes the rows as states and, on a
    path that moves through a damped row, again as slope nodes. Each heat's
    error estimate is its distance from the closed-form heat of the path up
    to that row, plus the closed form's own error bound. Moments or a rate
    past float64's range raise."""
    alphas = path.values
    damping = _damping(path, o, b, alphas)
    mass = alphas if path.parameter == "mass" else o.mass
    n, moves = alphas.size, bool(path.start_value != path.end_value and damping.any())
    g = np.tile(damping, 1 + moves)  # the rows as states, and as slope nodes if gamma moves
    nodes = np.arange(g.size) >= n
    out, work = _matsubara_moments(g, o.frequency, b.cutoff, b.temperature, c, free_energy=True, nodes=nodes)
    moments = _at_mass(out.f1[:n], out.f2[:n], mass, damping=damping, temperature=b.temperature)
    states = _kernel_states(out, work, o, c)
    dq = np.zeros(alphas.shape)
    if moves:
        f1, f2, df1, df2, *_ = (v[n:] for v in out)
        w2 = o.frequency**2
        with np.errstate(over="ignore", invalid="ignore"):
            # U and F_MF depend on (M, gamma) only through gamma, so dQ/d alpha
            # = (dgamma/d alpha)(dU/dgamma - dF_MF/dgamma), with dgamma/d alpha
            # = 1 on a damping path and -gamma/M on a mass path. H_S does not
            # depend on gamma, and the work dF_MF/dgamma = (f2 - w^2 f1) /
            # (2 gamma) at M = 1 is exact from the moments, with its limit at
            # gamma = 0: each log term of F_MF has the gamma slope nu wD / P(nu),
            # and the f1 and f2 sums combine to the same sum
            gamma = np.where(damping > 0, damping, 1.0)
            dq = df2 / 2 + w2 * df1 / 2
            dq -= np.where(damping > 0, (f2 - w2 * f1) / (2 * gamma), (df2 - w2 * df1) / 2)
            dq *= -damping / mass if path.parameter == "mass" else 1.0
        if not np.isfinite(dq).all():
            refuse("heat rate beyond float64's range", ~np.isfinite(dq), row=np.arange(n), alpha=alphas)
    heats = []
    q = 0.0
    for i, s in enumerate(states):
        if i > 0:
            q += 0.5 * (alphas[i] - alphas[i - 1]) * (dq[i - 1] + dq[i])
        exact = _first_law(states[0], s)
        heats.append(HeatResult(value=q, error_estimate=abs(q - exact.value) + exact.error_estimate))
    return *moments, states, heats


def clausius_check(
    q: float, ds: float, temperature: float, c: Constants = Constants()
) -> ThermoReport:
    """Q <= kB T dS up to the numerical slack tolerance."""
    require_positive("temperature", temperature)
    if not (math.isfinite(q) and math.isfinite(ds)):
        raise ValueError(f"heat and entropy change must be finite, got {q} and {ds}")
    slack = c.kB * temperature * ds - q
    return ThermoReport(
        delta_entropy=ds,
        heat=q,
        clausius_satisfied=slack >= -CLAUSIUS_TOL,
        slack=slack,
    )


def landauer_bound(s_initial: float, temperature: float, c: Constants = Constants()) -> float:
    """Minimal erasure heat kB T S for a state of entropy S (nats)."""
    require_non_negative("entropy", s_initial)
    require_positive("temperature", temperature)
    return c.kB * temperature * s_initial


def _step(s0: _State, s1: _State, temperature: float, c: Constants) -> ThermoReport:
    """dS and Q of the step between two states."""
    return clausius_check(_first_law(s0, s1).value, s1.entropy - s0.entropy, temperature, c)


def _steps(
    o: OscillatorParams, b: BathSpec, c: Constants, mass_factor: float, check=None
) -> tuple[ThermoReport, ThermoReport, ThermoReport]:
    """The coupling step, the mass step and their total, from one kernel call
    over three states: the bare oscillator (gamma = 0), the coupled point
    gamma, which ends one step and starts the other, and the mass path's end
    gamma/k (fixed microscopic coupling, as on a mass path). A check (i, j)
    checks the entropy change between two of them against the quadrature
    over their damping interval; that call also takes its first nodes."""
    require_positive("mass_factor", mass_factor)
    with np.errstate(over="ignore"):  # past float64's range gamma/k is inf, which the kernel refuses
        damping = np.array([0.0, b.damping, np.float64(b.damping) / mass_factor])
    (bare, coupled, end), _ = _states(damping, o, b, c, check)
    coupling = _step(bare, coupled, b.temperature, c)
    mass_step = _step(coupled, end, b.temperature, c)
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
    quasistatic work W = dF_MF: Q = dU - dF_MF. The check runs over 0 ->
    gamma_target.
    """
    b_target.warn_if_cutoff_low(o)
    b = _bath_at(b_target, temperature)
    damping = np.array([0.0, b.damping])
    (bare, coupled), _ = _states(damping, o, b, c, (0, 1) if check_consistency else None)
    return _step(bare, coupled, b.temperature, c)


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
    violate the Clausius inequality. The check runs over its damping interval
    gamma -> gamma/mass_factor."""
    b.warn_if_cutoff_low(o)
    return _steps(o, _bath_at(b, temperature), c, mass_factor, (1, 2) if check_consistency else None)[1]


def composed_process(
    o: OscillatorParams,
    b: BathSpec,
    temperature: float,
    c: Constants = Constants(),
    mass_factor: float = 2.0,
    check_consistency: bool = True,
) -> ThermoReport:
    """Couple first, then change the mass: the thermodynamically complete
    two-step process whose totals, the sums of its two steps, satisfy the
    Clausius inequality.

    At fixed gamma, f1 ~ 1/M and f2 ~ M, so the composition is the
    isothermal switch-on 0 -> gamma/k, and its check is that
    switch-on's: the entropy change it reports, from the bare state to the
    end, against the quadrature over 0 -> gamma/k. The coupled state enters
    the totals only through rounding; the kernel gates its moments and free
    energy, and no quadrature cross-checks it.
    """
    b.warn_if_cutoff_low(o)
    return _steps(o, _bath_at(b, temperature), c, mass_factor, (0, 2) if check_consistency else None)[2]
