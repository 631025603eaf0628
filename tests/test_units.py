"""Custom units: every public op is exactly covariant under hbar and kB."""

import dataclasses

import pytest

from clausius_lab import (
    BathSpec,
    Constants,
    OscillatorParams,
    ProcessPath,
    composed_process,
    coupling_free_energy,
    coupling_process,
    default_omega_max,
    entropy_change,
    heat,
    mass_process,
    moments_matsubara,
    moments_spectral,
    reduced_moments_exact,
    sample_bath,
)

OSC = OscillatorParams(mass=1.3, frequency=0.7)
POINTS = [(0.05, 5.0, 100.0), (1.0, 0.5, 30.0), (20.0, 10.0, 200.0), (0.2, 1.9595831051021968, 50.0)]
EXPONENTS = [(1, 2), (-1, 1), (2, -2), (3, 0), (0, 3), (-2, -1), (-3, 3)]


def _numbers(o, b, c):
    """Every public op's numbers at (o, b) in the units c, as (name, value,
    whether the value is hbar times a number that does not depend on the units)."""
    numbers = []

    def add(name, result, scaled):
        for field in dataclasses.fields(result):
            numbers.append((f"{name}.{field.name}", getattr(result, field.name), field.name in scaled))

    moments = {"f1", "f2", "cross"}
    add("moments_matsubara", moments_matsubara(o, b, c), moments)
    add("moments_spectral", moments_spectral(o, b, c), moments)
    db = sample_bath(b, o, 128, default_omega_max(o, b))
    add("reduced_moments_exact", reduced_moments_exact(db, o, b.temperature, c), moments)
    numbers.append(("coupling_free_energy", coupling_free_energy(o, b, c), True))
    paths = ProcessPath("mass", o.mass, 2 * o.mass), ProcessPath("damping", 0.0, b.damping)
    for checked in (True, False):
        for op in (coupling_process, mass_process, composed_process):
            add(f"{op.__name__}/{checked}", op(o, b, b.temperature, c, check_consistency=checked), {"heat", "slack"})
        for path in paths:
            add(f"entropy_change/{path.parameter}/{checked}", entropy_change(path, o, b, c, checked), set())
    for path in paths:
        add(f"heat/{path.parameter}", heat(path, o, b, c), {"value", "error_estimate"})
    return numbers


@pytest.mark.parametrize("i, j", EXPONENTS)
@pytest.mark.parametrize("temperature, damping, cutoff", POINTS)
def test_every_op_in_custom_units_is_the_natural_unit_op_at_kb_t_over_hbar(temperature, damping, cutoff, i, j):
    # with hbar = 2^i and kB = 2^j every product and quotient of the units
    # is exact: moments, free energies, heats and slacks are hbar times their
    # natural-unit values at T' = kB T / hbar, and entropy changes, their
    # quadratures, estimates and node counts, and the verdicts are those values
    c = Constants(hbar=2.0**i, kB=2.0**j)
    natural = BathSpec(c.kB * temperature / c.hbar, damping, cutoff)
    numbers = _numbers(OSC, BathSpec(temperature, damping, cutoff), c)
    expected = _numbers(OSC, natural, Constants())
    assert [name for name, _, _ in numbers] == [name for name, _, _ in expected]
    differ = [
        name for (name, value, scaled), (_, unit_free, _) in zip(numbers, expected)
        if value != (c.hbar * unit_free if scaled else unit_free)
    ]
    assert not differ
