"""Equilibrium moments of the damped oscillator, by two independent routes.

The bath is Ohmic with a Drude cutoff; its Laplace-domain damping kernel is
ghat(z) = gamma * wD / (z + wD). Route one sums the Matsubara series exactly:
its summands are rational, so the sum closes in digamma functions of the
roots of the Drude denominator, and the coupling free energy in log-gamma
functions of the same roots. Route two integrates the fluctuation-dissipation
form of the same susceptibility along the real frequency axis. Agreement of
the two is itself a correctness check, and both are certified against the
explicit discrete-bath model in :mod:`clausius_lab.oracle`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._special import loggamma, psi, trigamma, zeta
from .errors import NumericalFailure, refuse, require_accurate, require_non_negative, require_positive
from .gaussian import Constants, Moments, OscillatorParams, thermal_moments_decoupled

_TARGET_REL = 1e-8
# the spectral route's error estimate is the 10-point Gauss-Legendre rule's
# error, orders above that of the 20-point value it returns, so it gates on a
# looser (still sub-1e-6) threshold
_SPECTRAL_TARGET_REL = 1e-7
# a segment is accepted when its two rules agree to this fraction of its value
# (the integrands are positive, so the segments add without cancellation);
# bisection stops after this many rounds, ~1e-12 of a decade, or before the
# pending segments would exceed this many
_SPECTRAL_SEGMENT_REL, _SPECTRAL_ROUNDS, _SPECTRAL_MAX_SEGMENTS = 1e-11, 40, 4096
# the 10- and 20-point Gauss-Legendre rules on [-1, 1], as one node row and a
# weight matrix whose columns give G10 and G20
_GL10, _GL20 = (np.polynomial.legendre.leggauss(k) for k in (10, 20))
_PAIR_NODES = np.concatenate([_GL10[0], _GL20[0]])
_PAIR_WEIGHTS = np.stack([np.r_[_GL10[1], np.zeros(20)], np.r_[np.zeros(10), _GL20[1]]], axis=1)
# rounding-error unit of the closed forms, 32 ulps; tests/test_special.py
# measures psi, trigamma and the ln Gamma steps within 5 ulps of the scales
# this error model charges them to
_ROUND = 32 * float(np.finfo(float).eps)
# the closed form multiplies c1 = w^2 + gamma wD by roots of size ~sqrt(c1),
# which overflows near c1 = 1e205; a larger c1 is refused
_MAX_C1 = 1e200
# the largest root reaches ~wD, and its Newton polish carries ~eps wD^3 of
# the eigensolve's rounding, which overflows past wD ~ 1e108; a larger wD than
# this is refused, which also keeps c0 = w^2 wD and gamma wD^2 below c1 wD < 1e307
_MAX_CUTOFF = 1e107
# at high temperature every row whose roots lie within nu1/16 of wD/3 takes
# the circle, whose Q ~ (nu1/4)^3 at the nodes overflows past nu1 ~ 1e103; a
# larger nu1 = 2 pi kB T / hbar than this is refused, well short of that
_MAX_NU1 = 1e25
# a root pair closer than this fraction of nu1 + its midpoint cancels in its
# divided difference and takes the circle; in a call that also takes the
# gamma slopes, whose generic form divides by (x - y)^2, a pair closer than
# the second fraction does
_CONFLUENT, _CLOSE_PAIR = 1e-3, 5e-2
# close roots are summed on a circle about them by the trapezoid rule at
# this many nodes; with the roots inside a quarter of its radius and the
# nearest singularity outside at four radii, it converges as 4^-K
_CIRCLE_NODES = 32
_CIRCLE = np.exp(2j * math.pi * np.arange(_CIRCLE_NODES) / _CIRCLE_NODES)
# the rule's truncation per unit of the mean |term|: the roots alias into
# it a second divided difference of u^K (psi - psi(c)), below C(K+2, 2)
# (1/4)^(K-1) times psi' over the radius, and the outer singularity less;
# this charges 4 times that, and a slope sum's double poles a factor K + 2 more
_CIRCLE_TAIL = math.comb(_CIRCLE_NODES + 2, 2) * 4.0 ** (2 - _CIRCLE_NODES)
# Gauss-Legendre rule for ln Gamma differences over short steps: its nodes
# mapped from [-1, 1] to [0, 1], and its weights
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES = (1 + _GL_NODES) / 2
# psi(1 + z) - psi(1) = sum_{k>=2} (-1)^k zeta(k) z^(k-1), summed for |z| < 0.1;
# Horner order, highest power first
_PSI_SERIES = zeta(np.arange(20, 1, -1)) * (-1.0) ** np.arange(20, 1, -1)


@dataclass(frozen=True)
class BathSpec:
    """Bath temperature, damping rate gamma, and Drude cutoff frequency."""

    temperature: float
    damping: float
    cutoff: float

    def __post_init__(self):
        require_positive("temperature", self.temperature)
        require_non_negative("damping", self.damping)
        require_positive("cutoff", self.cutoff)

    def warn_if_cutoff_low(self, o: OscillatorParams) -> None:
        if self.cutoff < 10 * o.frequency:
            warnings.warn(
                f"Drude cutoff {self.cutoff} is below 10x the oscillator frequency "
                f"{o.frequency}; continuum formulas assume a wide-band bath",
                stacklevel=3,
            )


def _drude_poles(w2, wd, damping):
    """Negated roots (r, x, y) of P(nu) = nu^3 + wD nu^2 + (w^2 + gamma wD) nu + w^2 wD,
    elementwise over 1-d arrays of w^2 and gamma (wD per element or shared): r real
    and x, y = m +- sqrt(q) complex conjugate or real, with m and q.

    m = (wD - r)/2 comes from P(-r) = 0 without that cancellation and q from
    Vieta's relations, so both stay accurate at weak damping and where the
    pair merges at critical damping. A gamma whose c1 = w^2 + gamma wD
    exceeds ``_MAX_C1`` raises before anything can overflow, and frequencies
    so small that c0 = w^2 wD underflows to 0 raise before anything divides
    by a root of 0.
    """
    with np.errstate(over="ignore"):  # at a tiny wD the bound is inf, and out of range c0 may overflow
        in_range = damping <= (_MAX_C1 - w2) / wd
        c0 = w2 * wd
    if not (in_range.all() and c0.all()):
        failed = ~in_range | (c0 == 0)
        refuse(
            "frequencies below the closed form's range: w^2 wD underflows to 0" if in_range[failed.argmax()]
            else f"damping beyond the closed form's range: w^2 + gamma wD exceeds {_MAX_C1:g}",
            failed, damping=damping, cutoff=wd,
        )
    c1 = w2 + damping * wd
    # np.roots of nu^3 - wD nu^2 + c1 nu - c0, one companion matrix per element
    companion = np.zeros(c1.shape + (3, 3))
    companion[:, 0, 0], companion[:, 0, 1], companion[:, 0, 2] = wd, -c1, c0
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    # the root farther from the middle one: of three real roots the isolated
    # one, and beside a conjugate pair (whose real parts are equal) the real one
    lo, middle, hi = np.sort(roots.real).T
    r = np.where(middle - lo < hi - middle, hi, lo)
    for _ in range(2):  # Newton polish; a zero slope leaves r as it is
        slope = (3 * r - 2 * wd) * r + c1
        r = r - (((r - wd) * r + c1) * r - c0) / np.where(slope != 0, slope, np.inf)
    m = damping * wd * r / (2 * (r * r + w2))
    q = m * m - c0 / r
    pair = q >= 0  # x and y real
    s = np.sqrt(abs(q))
    x = np.where(pair, (m + s) + 0j, m + 1j * s)
    y = np.where(pair, c0 / r / (m + s) + 0j, x.conj())
    return r, x, y, m, q


def _shifted(z, nu1: float):
    """1 + z/nu1, dividing the real and imaginary parts by nu1 separately."""
    return (1 + z.real / nu1) + 1j * (z.imag / nu1)


def _ratio(terms, err, den):
    """sum(terms)/den and its error: twice the rounding unit on each term,
    whose inputs carry about one unit each, plus the propagated error ``err``
    of the terms, over |den|."""
    return sum(terms) / den, (2 * _ROUND * sum(abs(t) for t in terms) + err) / abs(den)


def _circle_sums(centre, coefs, scales, radius, nu1: float, wd, slopes: bool):
    """psi(c) and the contour integrals (1/2 pi i) oint g(t) (psi(t) -
    psi(c)) / Q(t) dt for g = 1 and g = t - c, with psi = psi(1 + t/nu1),
    over the circles |t - c| = ``radius`` about the centres c, elementwise;
    with ``slopes`` also their gamma slopes at fixed c, the same integrals
    with the extra weight -wD t / Q, since dQ/dgamma = wD t. Each integral
    is a (value, error) pair.

    Around all three roots an integral is (g psi)[x, y, r], and psi(c), whose
    divided difference is zero, is subtracted so that the nodes sum what is
    left. Q(c + u) = u^3 + a2 u^2 + a1 u + a0 with ``coefs`` (a2, a1, a0),
    each rounded on its entry of ``scales``. Each integral is the trapezoid
    rule at _CIRCLE_NODES nodes; its error charges each node's psi and Q
    their rounding, and the whole its truncation.
    """
    u = radius[:, None] * _CIRCLE
    t = centre[:, None] + u
    p = psi(np.concatenate([_shifted(t.ravel(), nu1), 1 + centre / nu1]))
    psi_c, p = p[u.size :].real, p[: u.size].reshape(u.shape)
    dpsi, e_psi = p - psi_c[:, None], _ROUND * (abs(p) + 1)
    a2, a1, a0 = (a[:, None] for a in coefs)
    rho = radius[:, None]
    q = ((u + a2) * u + a1) * u + a0
    e_q = _ROUND * (((rho + abs(a2)) * rho + abs(a1)) * rho + abs(a0)) / abs(q)  # Horner's, relative
    weights = [u / q, u * u / q]
    if slopes:
        weights += [-wd[:, None] * t / q * weight for weight in weights]
    sums = []
    for k, weight in enumerate(weights):
        terms = weight * dpsi
        powers = 1 if k < 2 else 2  # of 1/Q
        tail = _CIRCLE_TAIL * (_CIRCLE_NODES + 2) ** (powers - 1)
        err = (abs(weight) * e_psi + abs(terms) * (powers * e_q + 2 * _ROUND + tail)).mean(axis=1)
        # a coefficient's rounding moves every node alike: by its scale times
        # the sum's derivative in it, -powers sum(terms u^j / Q)
        for scale, power in zip(scales, (u * u, u, 1)):
            err += powers * _ROUND * scale * abs((terms * power / q).mean(axis=1))
        sums.append((terms.mean(axis=1).real, err))
    return psi_c, sums


class _Slopes(NamedTuple):
    """The slope nodes' moments, their gamma slopes, and the absolute error of each."""

    f1: np.ndarray
    f2: np.ndarray
    df1: np.ndarray
    df2: np.ndarray
    f1_error: np.ndarray
    f2_error: np.ndarray
    df1_error: np.ndarray
    df2_error: np.ndarray


def _matsubara_moments(
    damping,
    frequency,
    cutoff,
    temperature: float,
    c: Constants,
    rel_tol: float = _TARGET_REL,
    free_energy: bool = False,
    nodes=(),
):
    """f1 and f2 at M = 1 from the digamma closed form, elementwise over the
    states ``damping`` and the slope ``nodes``, two 1-d arrays of gamma, at
    one temperature; w and wD are shared, or given per row, the states' rows
    before the nodes'. At fixed gamma f1 ~ 1/M and f2 ~ M, so at the mass M
    they are f1/M and M f2, and every other output is the same at any mass.

    Each row takes its own branch (a contour integral around close roots,
    the generic divided differences, or gamma = 0) and its own rounding
    gate: the first row whose estimate exceeds ``rel_tol`` raises. Returns
    ``(f1, f2, free, slopes)``: the states' moments; with ``free_energy``
    the states' coupling free energies as a list, from the same roots, else
    None; and the nodes' ``_Slopes``, or None without nodes. The same roots
    and psi values give each node's exact gamma derivatives, with their
    propagated rounding estimates: the generic rows differentiate their
    divided differences as the roots move, l' = -wD l / Q'(l) with Q(l) =
    l^3 - wD l^2 + c1 l - c0, and the contour rows their integrals. Only the
    nodes take the slopes' wider close-pair threshold, so that a process's
    states can share a call with its quadrature nodes. The states and their
    free energies are gated before the nodes, whose moments are gated before
    their slopes: the first node whose slope error exceeds 1e-5 of
    max(|df|, 1e-3 |f| / max(gamma, 1)) raises. A call with no damped state
    and no node gives the Gibbs state at any cutoff; a node at gamma = 0
    takes the closed form's slopes there, whatever else is in its call.
    """
    n, nodes = len(damping), np.asarray(nodes, dtype=float)
    states, at_nodes = slice(n), slice(n, None)  # the rows, the states' before the nodes'
    slopes = nodes.size > 0
    damping = np.concatenate([damping, nodes], dtype=float)
    w, wd = (np.full(damping.shape, v, dtype=float) for v in (frequency, cutoff))
    beta = 1.0 / (c.kB * temperature)
    nu1 = 2 * math.pi * c.kB * temperature / c.hbar
    if not nu1 <= _MAX_NU1:
        message = f"temperature beyond the closed form's range: 2 pi kB T / hbar exceeds {_MAX_NU1:g}"
        raise NumericalFailure(message, temperature=temperature)
    if not (damping.any() or slopes):  # decoupled: the Gibbs state, whatever the cutoff
        gibbs = [thermal_moments_decoupled(OscillatorParams(1.0, wi), temperature, c) for wi in w]
        f1, f2 = np.array([g.f1 for g in gibbs]), np.array([g.f2 for g in gibbs])
        return f1, f2, [0.0] * n if free_energy else None, None
    if not (wd <= _MAX_CUTOFF).all():
        message = f"cutoff beyond the closed form's range: wD exceeds {_MAX_CUTOFF:g}"
        refuse(message, ~(wd <= _MAX_CUTOFF), cutoff=wd, frequency=w)
    w2 = w * w
    r, x, y, m, q = _drude_poles(w2, wd, damping)
    c1 = w2 + damping * wd
    # divided differences of psi(1 + l/nu1) over the roots, with rounding
    # errors; the close-root rows are replaced below. One psi call serves all
    # roots and the free energy's nodes
    size = len(r)
    args = _shifted(np.concatenate([r, y, x]), nu1)
    if free_energy:
        points, h, gl_nodes = _coupling_steps(*(v[states].tolist() for v in (w, wd, damping, r, x, y)), nu1)
        args = np.concatenate([args, 1 + gl_nodes.ravel()])
    p = psi(args)
    pr, py, px = p[:size].real, p[size : 2 * size], p[2 * size : 3 * size]
    if slopes:  # psi' in l at each root
        g1 = trigamma(args[: 3 * size]) / nu1
        g1r, g1y, g1x = g1[:size], g1[size : 2 * size], g1[2 * size :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d_yr = (py - pr) / (y - r)
        e_yr = _ROUND * (abs(py) + abs(pr) + 2) / abs(y - r)
        d_xy = (px - py) / (x - y)
        e_xy = _ROUND * (abs(px) + abs(py) + 2) / abs(x - y)
        d_xyr = (d_yr - d_xy) / (r - x)
        e_xyr = (e_yr + e_xy + _ROUND * (abs(d_yr) + abs(d_xy))) / abs(r - x)
    # rows whose divided differences would cancel take the circle about their
    # close roots instead, of radius D/4 where they lie within D/16 of its
    # centre c: three roots about their mean wD/3, with psi's pole at D =
    # nu1 + wD/3; or a close pair about its midpoint m, with r's residue added
    # and D = min(nu1 + m, |r - m|), where a close pair lies within (nu1 + m)/16
    mid = wd / 3
    spread = np.maximum(np.maximum(abs(r - mid), abs(x - mid)), abs(y - mid))
    triple = 16 * spread <= nu1 + mid
    pair = abs(x - y) <= np.repeat([_CONFLUENT, _CLOSE_PAIR], [n, size - n]) * (nu1 + m)
    if pair.any():
        pair &= 16 * np.sqrt(abs(q)) <= abs(r - m)
    circle = (triple | pair).nonzero()[0]
    node = x
    if circle.size:  # at the node c, fixed as gamma moves
        t = triple[circle]
        cc, wdi, c1i, c0i = np.where(t, mid[circle], m[circle]), wd[circle], c1[circle], w2[circle] * wd[circle]
        # Q about c from its coefficients, each with the scale it rounds on
        coefs = (3 * cc - wdi, c1i - cc * (2 * wdi - 3 * cc), cc * (c1i - cc * (wdi - cc)) - c0i)
        scales = (3 * cc + wdi, c1i + cc * (2 * wdi + 3 * cc), c0i + cc * (c1i + cc * (wdi + cc)))
        reach = np.where(t, nu1 + cc, np.minimum(nu1 + cc, abs(r[circle] - cc)))
        psi_c, sums = _circle_sums(cc, coefs, scales, reach / 4, nu1, wdi, slopes)
        k = (~t).nonzero()[0]
        if k.size:  # r's residue g(r) (psi(r) - psi(m)) / Q'(r), and its slope through r' = -wD r / Q'(r)
            j = circle[k]
            rm = r[j] - m[j]
            den = rm * rm - q[j]
            dpsi, e_psi = pr[j] - psi_c[k], _ROUND * (abs(pr[j]) + 1)
            res3, res2 = _ratio((dpsi,), e_psi, den), _ratio((rm * dpsi,), abs(rm) * e_psi, den)
            residues = [res3, res2]
            if slopes:
                vr, psi1 = -wd[j] * r[j] / den, g1r[j].real
                d_den = 4 * rm * vr + wd[j]  # the slope of Q'(r): Q''(r) r' + wD, with Q''(r) = 4 (r - m)
                residues.append(_ratio((psi1 * vr, -res3[0] * d_den), res3[1] * abs(d_den), den))
                residues.append(
                    _ratio((vr * dpsi, rm * psi1 * vr, -res2[0] * d_den), e_psi * abs(vr) + res2[1] * abs(d_den), den)
                )
            for (value, err), (res, res_err) in zip(sums, residues):
                value[k] += res
                err[k] += res_err
        node = x.copy()
        node[circle] = cc
        (d_xyr[circle], e_xyr[circle]), (d_yr[circle], e_yr[circle]) = sums[:2]

    def bracket(lead, n_node, slope):
        # sum_i N(l_i) psi_i / prod_{j!=i}(l_j - l_i) = (N psi)[x, y, r], and
        # for linear N Leibniz gives N(node) psi[x, y, r] + N' d_yr, with
        # d_yr = psi[y, r] at node x and ((l - c) psi)[x, y, r] at node c;
        # Re(N(node) psi[x, y, r]) is spelled out in real arithmetic, because
        # numpy's complex array product fuses its multiply-adds and would not
        # round as the one-point form does
        total = lead - 2 / nu1 * ((n_node.real * d_xyr.real - n_node.imag * d_xyr.imag) + slope * d_yr.real)
        err = abs(n_node) * (e_xyr + _ROUND * abs(d_xyr)) + abs(slope) * (e_yr + _ROUND * abs(d_yr))
        return total, 2 / nu1 * err / abs(total) + _ROUND

    with np.errstate(over="ignore", divide="ignore"):  # out of float64's range a moment is 0 or inf, refused below
        sum1, err1 = bracket(1.0 / w2, wd - node, -1.0)
        sum2, err2 = bracket(1.0, w2 * wd - c1 * node, -c1)
        f1, f2 = sum1 / beta, 1 / beta * sum2
    for i in (damping == 0).nonzero()[0]:
        gibbs = thermal_moments_decoupled(OscillatorParams(mass=1.0, frequency=w[i]), temperature, c)
        f1[i], f2[i], err1[i], err2[i] = gibbs.f1, gibbs.f2, 0.0, 0.0  # Gibbs: exempt from the bracket's gate
    free = None
    for rows in (states, at_nodes) if slopes else (states,):  # the states first, and their free energies
        require_accurate(
            "Matsubara closed form lost its accuracy to cancellation", rel_tol,
            {"achieved_rel_f1": err1[rows], "achieved_rel_f2": err2[rows]}, temperature=temperature,
            damping=damping[rows],
        )
        _require_in_range(f1[rows], f2[rows], damping=damping[rows], temperature=temperature)
        if free_energy and rows is states:
            psi_nodes = p[3 * size :].reshape(gl_nodes.shape)
            free = _free_energies(points, h, gl_nodes, psi_nodes, n, temperature, c, rel_tol)
    if not slopes:
        return f1, f2, free, None

    def bracket_slope(n_node, n_scale, dn_node, dn_scale, slope, dslope):
        # d/dgamma of N(node) psi[x, y, r] + N' ((l - node) psi)[x, y, r], the
        # node moving with its slope; the scales bound N and dN's rounding
        total = dn_node * d_xyr + n_node * dg3 + dslope * d_yr + slope * dg2
        err = (
            dn_scale * (e_xyr + _ROUND * abs(d_xyr))
            + n_scale * (e_dg3 + _ROUND * abs(dg3))
            + abs(dslope) * (e_yr + _ROUND * abs(d_yr))
            + abs(slope) * (e_dg2 + _ROUND * abs(dg2))
        )
        return -2 / nu1 * total.real, 2 / nu1 * err

    # the slopes: each root's slope l' = -wD l / Q'(l). Slopes past float64's
    # range (at frequencies near 1e-105) give non-finite estimates, which the
    # gate below refuses
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vx = -wd * x / ((x - y) * (x - r))
        vy = wd * y / ((x - y) * (y - r))
        vr = -wd * r / ((x - r) * (y - r))
        # generic rows, at node x: the quotient rule on each divided difference
        dg2, e_dg2 = _ratio((g1y * vy, -g1r * vr, -d_yr * (vy - vr)), e_yr * abs(vy - vr), y - r)
        d_xy_s, e_xy_s = _ratio((g1x * vx, -g1y * vy, -d_xy * (vx - vy)), e_xy * abs(vx - vy), x - y)
        dg3, e_dg3 = _ratio((dg2, -d_xy_s, -d_xyr * (vr - vx)), e_dg2 + e_xy_s + e_xyr * abs(vr - vx), r - x)
        v_node = vx.copy()
        if circle.size:
            (dg3[circle], e_dg3[circle]), (dg2[circle], e_dg2[circle]) = sums[2:]
            v_node[circle] = 0.0
        ds1, e_ds1 = bracket_slope(wd - node, wd + abs(node), -v_node, abs(v_node), -1.0, 0.0)
        ds2, e_ds2 = bracket_slope(
            w2 * wd - c1 * node, w2 * wd + c1 * abs(node), -wd * node - c1 * v_node,
            wd * abs(node) + c1 * abs(v_node), -c1, -wd,
        )
        fields = f1, f2, ds1 / beta, 1 / beta * ds2, err1 * f1, err2 * f2, e_ds1 / beta, 1 / beta * e_ds2
        s = _Slopes(*(v[at_nodes] for v in fields))
        # each node's slope error within 1e-5 of max(|df|, 1e-3 |f| / max(gamma, 1))
        scale = np.maximum(nodes, 1.0)
        rel = {
            "df1_rel_error": s.df1_error / np.maximum(abs(s.df1), 1e-3 * s.f1 / scale),
            "df2_rel_error": s.df2_error / np.maximum(abs(s.df2), 1e-3 * s.f2 / scale),
        }
    require_accurate("moment derivative error estimate exceeds tolerance", 1e-5, rel, damping=nodes)
    return f1[states], f2[states], free, s


def moments_matsubara(
    o: OscillatorParams,
    b: BathSpec,
    c: Constants = Constants(),
    rel_tol: float = _TARGET_REL,
) -> Moments:
    """Moments from the Matsubara sum in its digamma closed form.

    f1 = (1/M beta) sum_n [nu_n^2 + w^2 + |nu_n| ghat(|nu_n|)]^-1
       = (1/M beta) [1/w^2 - (2/nu1) sum_i A_i psi(1 + lambda_i/nu1)]
    f2 = (M/beta) sum_n [w^2 + |nu_n| ghat(|nu_n|)] [same denominator]^-1
       = (M/beta) [1 - (2/nu1) sum_i B_i psi(1 + lambda_i/nu1)]

    with lambda_i the negated roots of P, A_i = (wD - lambda_i)/prod_{j!=i}
    (lambda_j - lambda_i) and B_i the same with numerator w^2 wD - (w^2 +
    gamma wD) lambda_i (Grabert, Schramm & Ingold, Phys. Rep. 168, 115
    (1988)). Each sum is a second divided difference over the roots and is
    evaluated as one, so a confluent pair at critical damping, or three
    near-equal roots, cost no accuracy. ``rel_tol`` gates the rounding
    estimate of that evaluation. This is the one-point call of the array
    kernel, whose moments at M = 1 it scales to the mass M.
    """
    b.warn_if_cutoff_low(o)
    f1, f2, _, _ = _matsubara_moments([b.damping], o.frequency, b.cutoff, b.temperature, c, rel_tol)
    f1, f2 = _at_mass(f1, f2, o.mass, damping=b.damping, temperature=b.temperature)
    return Moments(f1=float(f1[0]), f2=float(f2[0]), cross=0.0)


def _require_in_range(f1, f2, **at):
    """Refuse moments that left float64's range, as 0 or inf, at their first row, which ``at`` names."""
    in_range = np.isfinite(f1) & np.isfinite(f2) & (f1 != 0) & (f2 != 0)
    if not in_range.all():
        refuse("moments beyond float64's range", ~in_range, **at)


def _at_mass(f1, f2, mass, **at):
    """The moments f1/M and M f2 at the masses M (an array, or shared) from
    the kernel's M = 1 moments f1 and f2, in float64's range."""
    with np.errstate(over="ignore"):  # out of float64's range a moment is 0 or inf, refused below
        f1, f2 = f1 / mass, mass * f2
    _require_in_range(f1, f2, mass=mass, **at)
    return f1, f2


def _susceptibility_im(u, o: OscillatorParams, damping, cutoff):
    """Im chi(u) for the Drude kernel continued to the real frequency axis."""
    kernel = damping * cutoff / (cutoff - 1j * u)
    chi = 1.0 / (o.mass * (np.float64(o.frequency) ** 2 - u**2 - 1j * u * kernel))
    return chi.imag


def moments_spectral(
    o: OscillatorParams,
    b: BathSpec,
    c: Constants = Constants(),
    rel_tol: float = _SPECTRAL_TARGET_REL,
) -> Moments:
    """Moments from the fluctuation-dissipation integral.

    f1 = (hbar/pi) int_0^inf coth(hbar u / 2 kB T) Im chi(u) du, and f2 the
    same with an extra M^2 u^2 weight. The integration range is split at the
    resonance, at the cutoff, and at the thermal scale 2 kB T / hbar and its
    decades: below that scale coth(hbar u / 2 kB T) leaves 1 for its 1/u
    pole. Beyond the last break the tail is integrated in t = 1/u. Every
    segment is integrated by the 10- and 20-point Gauss-Legendre rules on the
    same nodes for both integrands, and a segment whose two rules differ by
    more than 1e-11 of its value is bisected, all such segments at once,
    within a fixed budget of rounds and segments; a segment still pending when
    it runs out raises. The differences summed over the segments are the
    error estimates that ``rel_tol`` gates. At
    gamma = 0 the Lorentzian in Im chi collapses to a delta function at the
    bare frequency; that limit is taken analytically rather than integrated
    over a vanishing width.
    """
    b.warn_if_cutoff_low(o)
    if b.damping == 0:
        return thermal_moments_decoupled(o, b.temperature, c)
    damping = b.damping
    x0 = c.hbar / (2 * c.kB * b.temperature)
    w = o.frequency
    width = max(damping, 1e-9 * w)
    # geometric ladders away from the resonance, and up from the thermal
    # scale, keep each segment's scale ratio modest even when the Lorentzian
    # width or kB T / hbar is orders of magnitude below the frequency or the
    # cutoff
    points = {0.0, w, b.cutoff, 10 * b.cutoff}
    offset, thermal = width, 1 / x0
    while offset < 10 * b.cutoff:
        points.add(w + offset)
        if w - offset > 0:
            points.add(w - offset)
        offset *= 10
    while thermal < 10 * b.cutoff:
        points.add(thermal)
        thermal *= 10
    breaks = sorted(x for x in points if 0.0 <= x <= 10 * b.cutoff)
    # the segments, and last the tail in t = 1/u from 0 to 1/breaks[-1]
    lo = np.array(breaks[:-1] + [0.0])
    hi = np.array(breaks[1:] + [1 / breaks[-1]])
    tail = np.arange(len(lo)) == len(lo) - 1
    total, error = np.zeros(2), np.zeros(2)
    # past float64's range (from a cutoff near 1e152 at T = 1) the nodes and
    # the integrand overflow; the non-finite estimates that leave fail the gate
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_SPECTRAL_ROUNDS):
            half = (hi - lo) / 2
            s = (lo + half)[:, None] + half[:, None] * _PAIR_NODES
            u = np.where(tail[:, None], 1 / s, s)
            g1 = _susceptibility_im(u, o, damping, b.cutoff) / np.tanh(x0 * u)
            g1 = np.where(tail[:, None], g1 * u * u, g1)  # du = -dt / t^2
            rules = half[:, None] * (np.stack([g1, u * u * g1]) @ _PAIR_WEIGHTS)  # (f1 or f2, segment, G10 or G20)
            value, diff = rules[..., 1], abs(rules[..., 1] - rules[..., 0])
            pending = ~(diff <= _SPECTRAL_SEGMENT_REL * abs(value)).all(axis=0)
            total += value[:, ~pending].sum(axis=1)
            error += diff[:, ~pending].sum(axis=1)
            if not pending.any():
                break
            lo, hi, tail = lo[pending], hi[pending], tail[pending]
            if 2 * lo.size > _SPECTRAL_MAX_SEGMENTS:
                break
            mid = (lo + hi) / 2
            lo, hi, tail = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([tail, tail])
        # segments still pending when the rounds or the segment budget ran out
        # count with their own estimates, and fail the gate
        total += value[:, pending].sum(axis=1)
        error += diff[:, pending].sum(axis=1)
        scale = c.hbar / math.pi * np.array([1.0, np.float64(o.mass) ** 2])
        (f1, f2), (err1, err2) = total * scale, error * scale
        rel = {"achieved_rel_f1": err1 / abs(f1), "achieved_rel_f2": err2 / abs(f2)}
    target = -math.inf if pending.any() else rel_tol
    require_accurate(
        "spectral quadrature did not reach its target accuracy", target, rel, pending_segments=pending.sum()
    )
    return Moments(f1=float(f1), f2=float(f2), cross=0.0)


_OTHER_ROOTS = ((1, 2), (0, 2), (0, 1))


def _coupling_steps(w, wd, damping, r, x, y, nu1: float):
    """The ln Gamma steps of each damped point's roots, from lists of Python
    scalars, whose complex products and quotients round alike however many
    points there are; and the Gauss-Legendre nodes z of the short steps, at
    which the caller evaluates psi(1 + z).

    Each root is paired with its gamma = 0 limit mu = wD, iw, -iw, and solves
    prod_j (l - mu_j) = -gamma wD l, so its shift from mu follows without the
    cancellation of l - mu. Its step (y, h) = (mu, l - mu)/nu1 contributes
    ln Gamma(1 + y + h) - ln Gamma(1 + y) - psi(1) h. An underdamped pair is
    conjugate, as its limits are, and so are its steps: only the first is
    listed. A step is short when 8 |h| < |1 + y|; a long one carries the
    argument z = 1 + l/nu1 of its ln Gamma, formed as the kernel forms that
    root's psi argument, and a short one None.
    """
    points = []
    for k, g in enumerate(damping):
        if g == 0:
            continue
        lam = (complex(r[k]), complex(x[k]), complex(y[k]))
        mu = (complex(wd[k]), 1j * w[k], -1j * w[k])
        steps = []
        for i in range(2 if lam[2] == lam[1].conjugate() else 3):
            j, l = _OTHER_ROOTS[i]
            shift = -g * wd[k] * lam[i] / ((lam[i] - mu[j]) * (lam[i] - mu[l]))
            y_i, h_i = mu[i] / nu1, shift / nu1
            steps.append((y_i, h_i, None if 8 * abs(h_i) < abs(1 + y_i) else _shifted(lam[i], nu1)))
        points.append((k, g, steps))
    short = [(y_i, h_i) for _, _, steps in points for y_i, h_i, z_i in steps if z_i is None]
    y_short, h_short = np.array(short, dtype=complex).reshape(-1, 2, 1).transpose(1, 0, 2)
    return points, h_short[:, 0], y_short + h_short * _GL_NODES


def _free_energies(
    points, h, nodes, psi_nodes, n: int, temperature: float, c: Constants, rel_tol: float
) -> list[float]:
    """F_MF(gamma) - F_MF(0) of n points from their ``_coupling_steps`` and
    psi(1 + z) at its nodes z; zero at gamma = 0.

    A short step integrates psi(1 + .) - psi(1) along it, keeping the
    relative accuracy of h and, at high temperature, of y, with the series
    for small z; a long step differences ln Gamma, and psi(1) times its
    argument, between 1 + y and z. The first point whose rounding estimate
    exceeds ``rel_tol`` raises.
    """
    value = psi_nodes + np.euler_gamma
    scale = np.abs(value) + 2
    small = np.abs(nodes) < 0.1
    if small.any():
        z = nodes[small]  # only these: z^19 of a large node would overflow
        poly = _PSI_SERIES[0]  # Horner, as np.polyval does after its exact 0 z + a_0 start
        for a in _PSI_SERIES[1:]:
            poly = poly * z + a
        series = z * poly
        value[small], scale[small] = series, np.abs(series)
    sums = h / 2 * (value * _GL_WEIGHTS).sum(axis=1)
    integrals = iter(zip(sums.tolist(), (_ROUND * abs(h) * scale.max(axis=1)).tolist()))
    beta = 1.0 / (c.kB * temperature)
    values, errors = {}, []  # beta F_MF difference and its error, per damped point
    lngamma = {}  # ln Gamma(1 + y) per gamma = 0 limit y, which the points of a call share
    for k, g, steps in points:
        terms = []
        for y, h_i, z in steps:
            if z is None:
                terms.append(next(integrals))
            else:
                if y not in lngamma:
                    lngamma[y] = loggamma(1 + y)
                # every negated root has Re l >= 0, so Re z = 1 + Re l/nu1 >= 1
                hi, lo = loggamma(z), lngamma[y]
                err = _ROUND * (abs(hi) + abs(lo) + abs(z) + abs(1 + y) + abs(h_i))
                terms.append((hi - lo + np.euler_gamma * (z - (1 + y)), err))
        if len(steps) == 2:  # the conjugate pair's second step
            terms.append((terms[1][0].conjugate(), terms[1][1]))
        total = 0j
        err = 0.0
        for step, step_err in terms:
            total -= step
            err += step_err + _ROUND * abs(step)
        values[k] = total.real
        errors.append(err)
    with np.errstate(divide="ignore", invalid="ignore"):
        achieved = np.array(errors) / np.abs(list(values.values())) + _ROUND
    require_accurate(
        "free-energy closed form lost its accuracy to cancellation", rel_tol, {"achieved_rel": achieved},
        temperature=temperature, damping=[g for _, g, _ in points],
    )
    return [values.get(k, 0.0) / beta for k in range(n)]


def coupling_free_energy(o: OscillatorParams, b: BathSpec, c: Constants = Constants()) -> float:
    """Free energy of coupling: F_MF(gamma) - F_MF(0) at fixed M, w, T.

    The Matsubara product formula for the mean-force partition function,
    (1/beta) sum_{n>=1} ln[1 + nu_n ghat(nu_n) / (nu_n^2 + w^2)], closes to
    (1/beta) ln[G(1 + iw/nu1) G(1 - iw/nu1) G(1 + wD/nu1) / prod_i G(1 + lambda_i/nu1)]
    (Hanggi, Ingold & Talkner, New J. Phys. 10, 115008 (2008)). Each root is
    paired with its gamma = 0 limit, so weak damping keeps full relative
    accuracy, and a long step takes ln Gamma at 1 + lambda/nu1, its root's
    psi argument in the moments. The shifts sum to zero, so their psi(1)
    terms, which would cancel to rounding at high temperature, are left
    out. This is the quasistatic work needed to switch the coupling on
    isothermally. It is the one-point call of the array kernel, whose target
    gates the rounding estimates of the point's moments and free energy.
    """
    b.warn_if_cutoff_low(o)
    _, _, free, _ = _matsubara_moments([b.damping], o.frequency, b.cutoff, b.temperature, c, free_energy=True)
    return free[0]
