"""Command-line front end: scenarios, config ingestion, CSV/SVG emission.

All physical inputs are dimensionless ratios in natural units hbar = kB = 1
with the oscillator mass and frequency as the reference scales: temperature
is kB T / hbar w, damping is gamma / w, cutoff is wD / w.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import svgplot
from .bath import BathSpec, MomentRoute, _moments_along, moments_matsubara, moments_spectral
from .errors import NumericalFailure
from .gaussian import Constants, Moments, OscillatorParams, entropy, symplectic_param
from .info import DensityMatrix, Ensemble, accessible_info_lower, erasure_budget, holevo_chi
from .oracle import convergence_report, default_omega_max
from .process import (
    ProcessPath,
    _energy_and_work,
    _first_law,
    _heat_integrand,
    composed_process,
    coupling_process,
    mass_process,
)

SCENARIOS = ("moments", "oracle", "sweep", "violation-scan", "resolve", "holevo")

STANDARD_TEMPERATURES = (0.05, 0.2, 1.0, 5.0, 20.0)
STANDARD_DAMPINGS = (0.0, 0.1, 1.0, 5.0, 10.0)
STANDARD_CUTOFFS = (50.0, 200.0)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    scenario: str
    temperature: float = 1.0
    damping: float = 1.0
    cutoff: float = 100.0
    mass_factor: float = 2.0
    grid: int = 9
    param: str = "damping"
    start: float = 0.0
    end: float = 1.0
    out: str = "."
    bits: bool = False
    svg: bool = False
    ensemble: str = ""
    effort: int = 24
    modes: tuple[int, ...] = (256, 512, 1024, 2048)

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown or missing scenario {self.scenario!r}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.damping < 0:
            raise ConfigError(f"damping must be non-negative, got {self.damping}")
        if self.cutoff <= 0:
            raise ConfigError(f"cutoff must be positive, got {self.cutoff}")
        if self.mass_factor <= 0:
            raise ConfigError(f"mass_factor must be positive, got {self.mass_factor}")
        if self.grid < 9 or self.grid % 2 == 0:
            raise ConfigError(f"grid must be odd and >= 9, got {self.grid}")
        if self.param not in ("mass", "damping"):
            raise ConfigError(f"param must be mass or damping, got {self.param!r}")
        if self.scenario == "holevo" and not self.ensemble:
            raise ConfigError("holevo scenario needs an ensemble file")
        if self.effort < 2:
            raise ConfigError(f"effort must be >= 2, got {self.effort}")
        if any(n < 1 for n in self.modes) or list(self.modes) != sorted(self.modes):
            raise ConfigError(f"modes must be ascending positive integers, got {self.modes}")


_BOOL_KEYS = {"bits", "svg"}
_INT_KEYS = {"grid", "effort"}
_FLOAT_KEYS = {"temperature", "damping", "cutoff", "mass_factor", "start", "end"}
_STR_KEYS = {"scenario", "param", "out", "ensemble"}


def parse_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment."""
    values: dict = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        try:
            if key in _BOOL_KEYS:
                values[key] = val.lower() in ("1", "true", "yes", "on")
            elif key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _STR_KEYS:
                values[key] = val
            elif key == "modes":
                values[key] = tuple(int(x) for x in val.split(","))
            else:
                raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {val!r}") from exc
    return values


def parse_ensemble_file(path: str) -> Ensemble:
    """Plain-text ensemble format.

    Line 1: "<dim> <state_count>". Per state: one probability line, then dim
    lines of dim complex entries written like "0.5+0j".
    """
    try:
        raw = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read ensemble file {path}: {exc}") from exc
    lines = [
        (i + 1, stripped)
        for i, ln in enumerate(raw)
        if (stripped := ln.split("#", 1)[0].strip())
    ]
    if not lines:
        raise ConfigError(f"{path}: empty ensemble file")
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ConfigError(f"{path}: unexpected end of file")
        item = lines[pos]
        pos += 1
        return item

    lineno, header = take()
    parts = header.split()
    if len(parts) != 2:
        raise ConfigError(f"{path}:{lineno}: header must be '<dim> <count>'")
    try:
        dim, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: header must be two integers") from None

    probs = []
    states = []
    for _ in range(count):
        lineno, pline = take()
        try:
            probs.append(float(pline))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: expected a probability, got {pline!r}") from None
        rows = []
        for _ in range(dim):
            lineno, mline = take()
            entries = mline.split()
            if len(entries) != dim:
                raise ConfigError(f"{path}:{lineno}: expected {dim} entries, got {len(entries)}")
            try:
                rows.append([complex(x) for x in entries])
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad complex entry in {mline!r}") from None
        try:
            states.append(DensityMatrix(np.array(rows)))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: invalid density matrix: {exc}") from exc
    if abs(sum(probs) - 1.0) > 1e-12:
        raise ConfigError(f"{path}: probabilities sum {sum(probs):g}, expected 1")
    try:
        return Ensemble(probabilities=np.array(probs), states=tuple(states))
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid ensemble: {exc}") from exc


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _entropy_scale(cfg: RunConfig) -> float:
    return 1.0 / math.log(2) if cfg.bits else 1.0


def _reference(cfg: RunConfig) -> tuple[OscillatorParams, BathSpec, Constants]:
    o = OscillatorParams(mass=1.0, frequency=1.0)
    b = BathSpec(temperature=cfg.temperature, damping=cfg.damping, cutoff=cfg.cutoff)
    return o, b, Constants()


def run_moments(cfg: RunConfig, out_dir: Path) -> Path:
    o, b, c = _reference(cfg)
    scale = _entropy_scale(cfg)
    rows = []
    for route, compute in (
        (MomentRoute.MATSUBARA, moments_matsubara),
        (MomentRoute.SPECTRAL_INTEGRAL, moments_spectral),
    ):
        m = compute(o, b, c)
        v = symplectic_param(m, c).v
        rows.append(
            [
                route.value,
                _fmt(b.temperature),
                _fmt(b.damping),
                _fmt(b.cutoff),
                _fmt(m.f1),
                _fmt(m.f2),
                _fmt(m.cross),
                _fmt(v),
                _fmt(entropy(v) * scale),
            ]
        )
    path = out_dir / "moments.csv"
    _write_csv(
        path,
        ["route", "temperature", "damping", "cutoff", "f1", "f2", "cross", "v", "entropy"],
        rows,
    )
    return path


def run_oracle(cfg: RunConfig, out_dir: Path) -> Path:
    o, b, c = _reference(cfg)
    report, converged = convergence_report(o, b, b.temperature, list(cfg.modes), c)
    rows = []
    for r in report:
        rows.append(
            [
                str(r.mode_count),
                _fmt(r.f1),
                _fmt(r.f2),
                _fmt(r.delta_f1) if r.delta_f1 is not None else "",
                _fmt(r.delta_f2) if r.delta_f2 is not None else "",
                str(converged and r is report[-1]).lower(),
            ]
        )
    path = out_dir / "oracle.csv"
    _write_csv(path, ["mode_count", "f1", "f2", "delta_f1", "delta_f2", "converged"], rows)
    return path


def run_sweep(cfg: RunConfig, out_dir: Path) -> Path:
    o, b, c = _reference(cfg)
    scale = _entropy_scale(cfg)
    path_spec = ProcessPath(cfg.param, cfg.start, cfg.end, cfg.grid)
    alphas = path_spec.values
    scan = []
    for alpha, f1, f2 in zip(alphas, *_moments_along(cfg.param, o, b, alphas, c)):
        m = Moments(f1=float(f1), f2=float(f2), cross=0.0)
        v = symplectic_param(m, c).v
        integrand = _heat_integrand(path_spec, alpha, o, b, c) if cfg.start != cfg.end else 0.0
        energy_work = _energy_and_work(path_spec, alpha, m, o, b, c)
        scan.append((alpha, m, v, entropy(v), integrand, energy_work))

    s_start = scan[0][3]
    rows = []
    q_cum = 0.0
    for i, (alpha, m, v, s, integrand, energy_work) in enumerate(scan):
        if i > 0:
            q_cum += 0.5 * (alphas[i] - alphas[i - 1]) * (scan[i - 1][4] + integrand)
        # the trapezoid's distance from the closed-form heat of the path up
        # to this row, plus the closed form's own error bound
        exact = _first_law(scan[0][5], energy_work)
        err_cum = abs(q_cum - exact.value) + exact.error_estimate
        ds_cum = s - s_start
        slack = c.kB * b.temperature * ds_cum - q_cum
        rows.append(
            [
                _fmt(alpha),
                _fmt(m.f1),
                _fmt(m.f2),
                _fmt(v),
                _fmt(s * scale),
                _fmt(ds_cum * scale),
                _fmt(q_cum),
                _fmt(err_cum),
                _fmt(slack),
            ]
        )
    path = out_dir / "sweep.csv"
    _write_csv(
        path,
        [
            "alpha",
            "f1",
            "f2",
            "v",
            "entropy",
            "delta_entropy_cum",
            "heat_cum",
            "heat_error_est",
            "clausius_slack",
        ],
        rows,
    )
    if cfg.svg:
        svgplot.line_plot(
            out_dir / "sweep.svg",
            [r[0] for r in scan],
            [
                ("entropy", [r[3] * scale for r in scan]),
                ("f1", [r[1].f1 for r in scan]),
                ("f2", [r[1].f2 for r in scan]),
            ],
            title=f"sweep of {cfg.param}",
            xlabel=cfg.param,
        )
    return path


def run_violation_scan(cfg: RunConfig, out_dir: Path) -> Path:
    c = Constants()
    o = OscillatorParams(mass=1.0, frequency=1.0)
    rows = []
    for t, g, wd in itertools.product(STANDARD_TEMPERATURES, STANDARD_DAMPINGS, STANDARD_CUTOFFS):
        b = BathSpec(temperature=t, damping=g, cutoff=wd)
        try:
            report = mass_process(o, b, t, c, cfg.mass_factor, check_consistency=False)
        except NumericalFailure as exc:
            rows.append([_fmt(t), _fmt(g), _fmt(wd), _fmt(cfg.mass_factor), "", "", "", f"ERROR:{exc}"])
            continue
        violation = report.delta_entropy < 0 and report.heat > 0
        flag = "VIOLATION(APPARENT)" if violation else "OK"
        rows.append(
            [
                _fmt(t),
                _fmt(g),
                _fmt(wd),
                _fmt(cfg.mass_factor),
                _fmt(report.delta_entropy),
                _fmt(report.heat),
                _fmt(report.slack),
                flag,
            ]
        )
    path = out_dir / "violation-scan.csv"
    _write_csv(
        path,
        ["temperature", "damping", "cutoff", "mass_factor", "delta_entropy_mass", "heat_mass", "clausius_slack", "flag"],
        rows,
    )
    return path


def run_resolve(cfg: RunConfig, out_dir: Path) -> Path:
    o, b, c = _reference(cfg)
    scale = _entropy_scale(cfg)
    step1 = coupling_process(o, b, b.temperature, c, check_consistency=False)
    step2 = mass_process(o, b, b.temperature, c, cfg.mass_factor, check_consistency=False)
    total = composed_process(o, b, b.temperature, c, cfg.mass_factor, check_consistency=False)
    rows = []
    for name, rep in (("coupling", step1), ("mass", step2), ("total", total)):
        rows.append(
            [
                name,
                _fmt(rep.delta_entropy * scale),
                _fmt(rep.heat),
                _fmt(rep.slack),
                str(rep.clausius_satisfied).lower(),
            ]
        )
    path = out_dir / "resolve.csv"
    _write_csv(path, ["step", "delta_entropy", "heat", "clausius_slack", "clausius_satisfied"], rows)
    return path


def run_holevo(cfg: RunConfig, out_dir: Path) -> Path:
    scale = _entropy_scale(cfg)
    ensemble = parse_ensemble_file(cfg.ensemble)
    chi = holevo_chi(ensemble)
    budget = erasure_budget(ensemble, cfg.temperature)
    rows = [
        ["holevo_chi", _fmt(chi * scale)],
        ["q_martin", _fmt(budget.q_martin)],
        ["q_amy", _fmt(budget.q_amy)],
        ["q_shared", _fmt(budget.q_shared)],
    ]
    if ensemble.dim == 2:
        bound, povm = accessible_info_lower(ensemble, cfg.effort)
        rows.insert(1, ["accessible_info_lower", _fmt(bound * scale)])
        for k, elem in enumerate(povm.elements):
            for i in range(2):
                for j in range(2):
                    rows.append(
                        [f"povm_{k}_{i}{j}", f"{_fmt(elem[i, j].real)}{elem[i, j].imag:+.12e}j"]
                    )
    path = out_dir / "holevo.csv"
    _write_csv(path, ["quantity", "value"], rows)
    return path


_RUNNERS = {
    "moments": run_moments,
    "oracle": run_oracle,
    "sweep": run_sweep,
    "violation-scan": run_violation_scan,
    "resolve": run_resolve,
    "holevo": run_holevo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clausius-lab",
        description="Strong-coupling oscillator thermodynamics and information bounds",
    )
    sub = parser.add_subparsers(dest="scenario")
    for scenario in SCENARIOS:
        p = sub.add_parser(scenario)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--grid", type=int, default=None, help="sweep rows (odd, >= 9)")
        p.add_argument("--bits", action="store_true", default=None, help="entropies in bits")
        p.add_argument("--svg", action="store_true", default=None, help="emit an SVG plot")
        p.add_argument("--temperature", type=float, default=None, help="kB T / hbar w")
        p.add_argument("--damping", type=float, default=None, help="gamma / w")
        p.add_argument("--cutoff", type=float, default=None, help="wD / w")
        p.add_argument("--mass-factor", dest="mass_factor", type=float, default=None)
        if scenario == "sweep":
            p.add_argument("--param", choices=("mass", "damping"), default=None)
            p.add_argument("--start", type=float, default=None)
            p.add_argument("--end", type=float, default=None)
        if scenario == "oracle":
            p.add_argument("--modes", default=None, help="comma-separated mode counts")
        if scenario == "holevo":
            p.add_argument("--ensemble", default=None, help="ensemble description file")
            p.add_argument("--effort", type=int, default=None, help="search-grid resolution")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {"scenario": args.scenario}
    if args.config:
        file_values = parse_config_file(args.config)
        file_values.pop("scenario", None)
        values.update(file_values)
    for key in (
        "out",
        "grid",
        "bits",
        "svg",
        "temperature",
        "damping",
        "cutoff",
        "mass_factor",
        "param",
        "start",
        "end",
        "ensemble",
        "effort",
    ):
        val = getattr(args, key, None)
        if val is not None:
            values[key] = val
    if getattr(args, "modes", None) is not None:
        try:
            values["modes"] = tuple(int(x) for x in args.modes.split(","))
        except ValueError:
            raise ConfigError(f"bad --modes value {args.modes!r}") from None
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.scenario is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _merge_config(args)
    except (ConfigError, TypeError) as exc:
        print(f"clausius-lab: config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        path = _RUNNERS[cfg.scenario](cfg, out_dir)
    except NumericalFailure as exc:
        print(f"clausius-lab: numerical failure: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"clausius-lab: config error: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
