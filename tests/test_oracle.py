"""Unit tests for the discrete-bath brute-force oracle."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import eigh

from clausius_lab import (
    BathSpec,
    Constants,
    DiscreteBath,
    NumericalFailure,
    OscillatorParams,
    convergence_report,
    default_omega_max,
    reduced_moments_exact,
    sample_bath,
    spectral_density,
    thermal_moments_decoupled,
)
import clausius_lab.oracle as oracle

C = Constants()
OSC = OscillatorParams(mass=1.0, frequency=1.0)


def discrete_matsubara(o, db, temperature, c, n_max=2_000_000):
    """[DERIVED] independent identity check: the Matsubara series with the
    exact kernel of THIS discrete bath must reproduce the eigen-decomposition
    moments. Evaluated by direct partial sums with 1/N Richardson closure."""
    beta = 1.0 / (c.kB * temperature)
    nu1 = 2 * math.pi * c.kB * temperature / c.hbar
    wk2 = db.mode_frequencies**2
    c_sq = db.couplings**2
    w2 = o.frequency**2

    def partial(n_terms):
        s1 = s2 = 0.0
        chunk = 100_000
        for lo in range(1, n_terms + 1, chunk):
            n = np.arange(lo, min(lo + chunk, n_terms + 1))
            nu2 = (nu1 * n) ** 2
            # nu ghat(nu) for the discrete bath, counter-term included
            kernel = np.sum(c_sq[None, :] / wk2 * nu2[:, None] / (nu2[:, None] + wk2), axis=1) / o.mass
            den = nu2 + w2 + kernel
            s1 += float(np.sum(1.0 / den))
            s2 += float(np.sum((w2 + kernel) / den))
        return s1, s2

    s1_h, s2_h = partial(n_max // 2)
    s1_f, s2_f = partial(n_max)
    s1, s2 = 2 * s1_f - s1_h, 2 * s2_f - s2_h
    f1 = (1.0 / w2 + 2 * s1) / (o.mass * beta)
    f2 = o.mass / beta * (1.0 + 2 * s2)
    return f1, f2


class TestDiscreteBath:
    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            DiscreteBath(np.array([1.0, 2.0]), np.array([0.1]))

    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(ValueError):
            DiscreteBath(np.array([0.0, 1.0]), np.array([0.1, 0.1]))

    def test_rejects_unsorted_frequencies(self):
        with pytest.raises(ValueError):
            DiscreteBath(np.array([2.0, 1.0]), np.array([0.1, 0.1]))


class TestSampling:
    def test_spectral_density_shape(self):
        b = BathSpec(temperature=1.0, damping=2.0, cutoff=10.0)
        # Ohmic at small u, rolls off above the cutoff
        assert spectral_density(0.01, OSC, b) == pytest.approx(2.0 * 0.01, rel=1e-3)
        assert spectral_density(100.0, OSC, b) < spectral_density(10.0, OSC, b)

    def test_sample_grid_is_linear_endpoint(self):
        b = BathSpec(temperature=1.0, damping=1.0, cutoff=10.0)
        db = sample_bath(b, OSC, 8, 4.0)
        assert db.mode_count == 8
        assert np.allclose(np.diff(db.mode_frequencies), 0.5)
        assert db.mode_frequencies[-1] == pytest.approx(4.0)

    def test_default_omega_max(self):
        b = BathSpec(temperature=1.0, damping=1.0, cutoff=100.0)
        assert default_omega_max(OSC, b) == 2000.0


class TestReducedMoments:
    def test_zero_coupling_recovers_gibbs(self):
        db = DiscreteBath(np.linspace(0.5, 5.0, 16), np.zeros(16))
        m = reduced_moments_exact(db, OSC, 0.8, C)
        ref = thermal_moments_decoupled(OSC, 0.8, C)
        assert m.f1 == pytest.approx(ref.f1, rel=1e-12)
        assert m.f2 == pytest.approx(ref.f2, rel=1e-12)

    def test_cross_correlation_is_exact_zero(self):
        b = BathSpec(temperature=1.0, damping=1.0, cutoff=10.0)
        db = sample_bath(b, OSC, 64, 40.0)
        assert reduced_moments_exact(db, OSC, 1.0, C).cross == 0.0

    def test_single_mode_against_inline_diagonalization(self):
        # [DERIVED] 2x2 system built and diagonalized inline, sharing nothing
        # with the library path
        w_b, coupling, mass, w0, temperature = 2.0, 0.4, 1.5, 1.0, 0.6
        o = OscillatorParams(mass=mass, frequency=w0)
        db = DiscreteBath(np.array([w_b]), np.array([coupling]))
        m = reduced_moments_exact(db, o, temperature, C)

        k = np.array(
            [
                [(mass * w0**2 + coupling**2 / w_b**2) / mass, -coupling / math.sqrt(mass)],
                [-coupling / math.sqrt(mass), w_b**2],
            ]
        )
        eigvals, eigvecs = eigh(k)
        omegas = np.sqrt(eigvals)
        coth = 1.0 / np.tanh(omegas / (2 * temperature))
        f1 = float(np.sum(eigvecs[0] ** 2 / (2 * omegas) * coth)) / mass
        f2 = mass * float(np.sum(eigvecs[0] ** 2 * omegas / 2 * coth))
        assert m.f1 == pytest.approx(f1, rel=1e-12)
        assert m.f2 == pytest.approx(f2, rel=1e-12)

    def test_matches_discrete_matsubara_identity(self):
        # the eigen route and the series route describe the same finite model,
        # so they must agree far inside the 1% certification band
        b = BathSpec(temperature=1.0, damping=2.0, cutoff=20.0)
        db = sample_bath(b, OSC, 48, 200.0)
        m = reduced_moments_exact(db, OSC, 1.0, C)
        f1_ref, f2_ref = discrete_matsubara(OSC, db, 1.0, C)
        assert m.f1 == pytest.approx(f1_ref, rel=1e-6)
        assert m.f2 == pytest.approx(f2_ref, rel=1e-6)

    def test_a_stiffness_beyond_float64_is_refused_without_a_warning(self):
        # the counter-term c^2 / w^2 = 1e400 is not representable
        db = DiscreteBath(np.array([1.0]), np.array([1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="bath stiffness overflows float64"):
                reduced_moments_exact(db, OSC, 1.0, C)

    def test_rejects_nonpositive_temperature(self):
        db = DiscreteBath(np.array([1.0]), np.array([0.1]))
        with pytest.raises(ValueError):
            reduced_moments_exact(db, OSC, 0.0, C)


def dense_stiffness(db, o):
    """[DERIVED] the (N+1)x(N+1) stiffness built entry by entry."""
    n = db.mode_count
    k = np.zeros((n + 1, n + 1))
    k[0, 0] = (o.mass * o.frequency**2 + np.sum(db.couplings**2 / db.mode_frequencies**2)) / o.mass
    k[0, 1:] = k[1:, 0] = -db.couplings / math.sqrt(o.mass)
    k[np.arange(1, n + 1), np.arange(1, n + 1)] = db.mode_frequencies**2
    return k


def named_stiffnesses():
    """The CLI oracle point at two rungs, the two scaled paths of LAPACK's
    dsyevr (a largest entry above its range) at two rungs, zero coupling, and
    random arrowheads at M = 1.7, w = 0.3."""
    cli = BathSpec(temperature=1.0, damping=1.0, cutoff=100.0)
    cases = {f"cli-N{n}": (cli, n) for n in (256, 512)}
    for name, b in {"damping-1e300": BathSpec(1.0, 1e300, 100.0), "cutoff-1e100": BathSpec(1.0, 1.0, 1e100)}.items():
        cases.update({f"{name}-N{n}": (b, n) for n in (8, 16)})
    cases["zero-coupling-N16"] = (BathSpec(1.0, 0.0, 100.0), 16)
    out = {
        name: dense_stiffness(sample_bath(b, OSC, n, default_omega_max(OSC, b)), OSC) for name, (b, n) in cases.items()
    }
    rng = np.random.default_rng(7)
    o = OscillatorParams(mass=1.7, frequency=0.3)
    for n in (1, 2, 9, 99):
        out[f"random-N{n}"] = dense_stiffness(DiscreteBath(np.sort(rng.uniform(0.1, 5.0, n)), rng.normal(size=n)), o)
    return out


STIFFNESSES = named_stiffnesses()


def corrupt(monkeypatch, routine, damage):
    """Make ``get_lapack_funcs`` hand out ``routine`` with ``damage`` applied
    to its outputs, so the oracle's certificate must catch a wrong stage."""
    true_get = scipy.linalg.lapack.get_lapack_funcs

    def damaged(call):
        def run(*args, **kwargs):
            out = call(*args, **kwargs)
            damage(*out)
            return out

        return run

    def get(names, arrays=()):
        return [damaged(f) if name == routine else f for name, f in zip(names, true_get(names, arrays))]

    monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", get)


def shift_an_eigenvector(m, w, z, info):
    z[:, 5] += 1e-6


def stretch_an_off_diagonal(c, d, e, tau, info):
    e[5] *= 1 + 1e-6


def stretch_a_reflector(c, d, e, tau, info):
    c[10, 3] *= 1 + 1e-6


class TestTwoStageSolve:
    B = BathSpec(temperature=1.0, damping=1.0, cutoff=100.0)

    @pytest.mark.parametrize("name", STIFFNESSES)
    def test_bit_for_bit_eigh_under_a_rounding_certificate(self, monkeypatch, name):
        k = STIFFNESSES[name]
        eigvals, eigvecs = eigh(k)
        gates = []
        monkeypatch.setattr(oracle, "require_accurate", lambda *args, **context: gates.append((args, context)))
        vals, weights = oracle._normal_modes(k[0, 0], k[1:, 0], np.diag(k)[1:])
        assert np.array_equal(vals, eigvals)
        assert np.array_equal(weights, eigvecs[0] ** 2)
        [((_, _, estimates), context)] = gates
        assert max(estimates.values()) <= 1e-14 * context["matrix_norm"]

    def test_the_scaled_cases_are_scaled(self):
        for name in ("damping-1e300-N8", "damping-1e300-N16", "cutoff-1e100-N8", "cutoff-1e100-N16"):
            assert np.max(STIFFNESSES[name]) > oracle._RMAX

    @pytest.mark.parametrize(
        "routine, damage, estimate",
        [
            ("stemr", shift_an_eigenvector, "residual"),
            ("sytrd", stretch_an_off_diagonal, "reduction"),
            ("sytrd", stretch_a_reflector, "reduction"),
        ],
        ids=["eigenvector-column", "tridiagonal-off-diagonal", "stored-reflector"],
    )
    def test_a_corrupted_stage_raises(self, monkeypatch, routine, damage, estimate):
        corrupt(monkeypatch, routine, damage)
        with pytest.raises(NumericalFailure, match="eigenvector residual") as info:
            reduced_moments_exact(sample_bath(self.B, OSC, 64, 2000.0), OSC, 1.0, C)
        diag = info.value.diagnostics
        assert diag[estimate] > 1e-10 * diag["matrix_norm"] > 0

    def test_a_rung_holds_one_matrix(self):
        # dsytrd reduces the stiffness in place, and that buffer is freed
        # before dstemr allocates the eigenvectors: those are the only
        # (N+1)^2 array alive at any time
        n = 1024
        reduced_moments_exact(sample_bath(self.B, OSC, 8, 2000.0), OSC, 1.0, C)  # LAPACK bound before tracing
        db = sample_bath(self.B, OSC, n, 2000.0)
        tracemalloc.start()
        try:
            reduced_moments_exact(db, OSC, 1.0, C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * (n + 1) ** 2

    def test_moments_match_inline_dense_assembly(self):
        db = sample_bath(self.B, OSC, 256, 2000.0)
        m = reduced_moments_exact(db, OSC, 1.0, C)
        eigvals, eigvecs = eigh(dense_stiffness(db, OSC))
        omegas = np.sqrt(eigvals)
        coth = 1.0 / np.tanh(omegas / 2)
        assert m.f1 == pytest.approx(float(np.sum(eigvecs[0] ** 2 / (2 * omegas) * coth)), rel=1e-12)
        assert m.f2 == pytest.approx(float(np.sum(eigvecs[0] ** 2 * omegas / 2 * coth)), rel=1e-12)


class TestConvergenceReport:
    def test_rows_and_deltas(self):
        b = BathSpec(temperature=1.0, damping=1.0, cutoff=10.0)
        rows, _ = convergence_report(OSC, b, [32, 64, 128], C)
        assert [r.mode_count for r in rows] == [32, 64, 128]
        assert rows[0].delta_f1 is None
        assert rows[1].delta_f1 is not None and rows[1].delta_f1 >= 0

    def test_deltas_shrink_with_resolution(self):
        b = BathSpec(temperature=5.0, damping=1.0, cutoff=10.0)
        rows, _ = convergence_report(OSC, b, [64, 128, 256, 512], C)
        assert rows[-1].delta_f1 < rows[1].delta_f1

    def test_rejects_unsorted_counts(self):
        b = BathSpec(temperature=1.0, damping=1.0, cutoff=10.0)
        with pytest.raises(ValueError):
            convergence_report(OSC, b, [128, 64], C)

    def test_rejects_a_repeated_rung(self):
        # its change is zero by construction, so it would certify itself
        b = BathSpec(temperature=1.0, damping=1.0, cutoff=10.0)
        with pytest.raises(ValueError, match="strictly ascending"):
            convergence_report(OSC, b, [8, 8], C)
