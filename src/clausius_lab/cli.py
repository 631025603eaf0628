"""Command-line front end: scenarios, config ingestion, CSV/SVG emission.

All physical inputs are dimensionless ratios in natural units hbar = kB = 1
with the oscillator mass and frequency as the reference scales: temperature
is kB T / hbar w, damping is gamma / w, cutoff is wD / w.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import svgplot
from .bath import (
    BathSpec,
    _mass_and_damping,
    _slopes_along,
    moments_matsubara,
    moments_spectral,
)
from .errors import NumericalFailure, require_count, require_positive
from .gaussian import Constants, OscillatorParams, entropy, symplectic_param
from .info import _MIN_EFFORT, DensityMatrix, Ensemble, accessible_info_lower, erasure_budget, holevo_chi
from .oracle import _require_ladder, convergence_report
from .process import ProcessPath, _first_law, _states, _steps, mass_process

# the RunConfig fields each scenario's runner reads: its subparser offers
# exactly these as flags, besides --config and --out. A config file may set
# any field, since one file can describe a point for several scenarios.
_READS = {
    "moments": ("temperature", "damping", "cutoff", "bits"),
    "oracle": ("temperature", "damping", "cutoff", "modes"),
    "sweep": ("temperature", "damping", "cutoff", "param", "start", "end", "grid", "bits", "svg"),
    "violation-scan": ("mass_factor", "bits"),
    "resolve": ("temperature", "damping", "cutoff", "mass_factor", "bits"),
    "holevo": ("temperature", "ensemble", "effort", "bits"),
}
_HELP = {
    "temperature": "kB T / hbar w",
    "damping": "gamma / w",
    "cutoff": "wD / w",
    "mass_factor": "final over initial mass of the mass step",
    "param": "swept parameter: mass or damping",
    "grid": "sweep rows (odd, >= 9)",
    "bits": "entropies in bits",
    "svg": "emit an SVG plot",
    "modes": "comma-separated mode counts",
    "ensemble": "ensemble description file",
    "effort": "search-grid resolution",
}

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
        """Check every field, for any scenario, by the library's own checks."""
        if self.scenario not in _READS:
            raise ConfigError(f"unknown or missing scenario {self.scenario!r}")
        if self.scenario == "holevo" and not self.ensemble:
            raise ConfigError("holevo scenario needs an ensemble file")
        try:
            BathSpec(self.temperature, self.damping, self.cutoff)
            require_positive("mass_factor", self.mass_factor)
            ProcessPath(self.param, self.start, self.end, self.grid)
            require_count("effort", self.effort, _MIN_EFFORT)
            _require_ladder(self.modes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _parse_bool(val: str) -> bool:
    return val.lower() in ("1", "true", "yes", "on")


def _parse_modes(val: str) -> tuple[int, ...]:
    return tuple(int(x) for x in val.split(","))


# a config value parses as the type of its field's default; scenario has no
# default and is a string
_PARSE_BY_TYPE = {bool: _parse_bool, int: int, float: float, tuple: _parse_modes}
_PARSERS = {f.name: _PARSE_BY_TYPE.get(type(f.default), str) for f in fields(RunConfig)}


def _numbered_lines(path: str, kind: str) -> list[tuple[int, str]]:
    """(number, text) of each line left non-empty once its '#' comment and blanks go."""
    try:
        raw = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc
    return [(i, line) for i, ln in enumerate(raw, start=1) if (line := ln.split("#", 1)[0].strip())]


def parse_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment."""
    values: dict = {}
    for lineno, line in _numbered_lines(path, "config"):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {val!r}") from exc
    return values


def parse_ensemble_file(path: str) -> Ensemble:
    """Plain-text ensemble format.

    Line 1: "<dim> <state_count>". Per state: one probability line, then dim
    lines of dim complex entries written like "0.5+0j".
    """
    lines = _numbered_lines(path, "ensemble")
    if not lines:
        raise ConfigError(f"{path}: empty ensemble file")
    remaining = iter(lines)

    def take():
        if (item := next(remaining, None)) is None:
            raise ConfigError(f"{path}: unexpected end of file")
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
    try:
        return Ensemble(probabilities=np.array(probs), states=tuple(states))
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid ensemble: {exc}") from exc


def _cell(x) -> str:
    """One CSV cell: booleans as true/false, floats as %.12e, complex numbers
    as %.12e%+.12ej, ints and strings as they are, None as an empty cell."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12e}"
    if isinstance(x, complex):
        return f"{x.real:.12e}{x.imag:+.12e}j"
    if isinstance(x, (int, str)):
        return str(x)
    if x is None:
        return ""
    raise TypeError(f"no CSV format for {type(x).__name__} {x!r}")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """The one CSV writer: each cell formatted by ``_cell``, and quoted per
    RFC 4180 only where it holds a comma, a quote or a newline."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([_cell(x) for x in row] for row in [header, *rows])


def _entropy_scale(cfg: RunConfig) -> float:
    return 1.0 / math.log(2) if cfg.bits else 1.0


def _reference(cfg: RunConfig) -> tuple[OscillatorParams, BathSpec, Constants]:
    o = OscillatorParams(mass=1.0, frequency=1.0)
    b = BathSpec(temperature=cfg.temperature, damping=cfg.damping, cutoff=cfg.cutoff)
    return o, b, Constants()


# each runner returns its CSV's header and rows of raw values, which main
# writes to <scenario>.csv
Table = tuple[list[str], list[list]]


def run_moments(cfg: RunConfig, out_dir: Path) -> Table:
    o, b, c = _reference(cfg)
    scale = _entropy_scale(cfg)
    rows = []
    for route, compute in (("matsubara", moments_matsubara), ("spectral_integral", moments_spectral)):
        m = compute(o, b, c)
        v = symplectic_param(m, c)
        rows.append([route, b.temperature, b.damping, b.cutoff, m.f1, m.f2, m.cross, v, entropy(v) * scale])
    return ["route", "temperature", "damping", "cutoff", "f1", "f2", "cross", "v", "entropy"], rows


def run_oracle(cfg: RunConfig, out_dir: Path) -> Table:
    o, b, c = _reference(cfg)
    report, converged = convergence_report(o, b, list(cfg.modes), c)
    rows = [[r.mode_count, r.f1, r.f2, r.delta_f1, r.delta_f2, converged and r is report[-1]] for r in report]
    return ["mode_count", "f1", "f2", "delta_f1", "delta_f2", "converged"], rows


def run_sweep(cfg: RunConfig, out_dir: Path) -> Table:
    o, b, c = _reference(cfg)
    b.warn_if_cutoff_low(o)
    scale = _entropy_scale(cfg)
    alphas = ProcessPath(cfg.param, cfg.start, cfg.end, cfg.grid).values
    mass, damping = _mass_and_damping(cfg.param, o, b, alphas)
    states = _states(mass, damping, o, b, c)
    dq = np.zeros(alphas.shape)  # the heat integrand dQ/d alpha = dU/d alpha - dW/d alpha at each row
    if cfg.start != cfg.end:
        f1, f2, df1, df2, *_ = _slopes_along(cfg.param, o, b, alphas, c)
        w2 = o.frequency**2
        dq = df2 / (2 * mass) + mass * w2 * df1 / 2
        if cfg.param == "damping":
            # H_S does not depend on gamma, so dU/d gamma is all of the above,
            # less the work dF_MF/d gamma = (f2/M - M w^2 f1) / (2 gamma),
            # exact from the moments, and its limit at gamma = 0
            gamma = np.where(alphas > 0, alphas, 1.0)
            dq -= np.where(alphas > 0, (f2 / mass - mass * w2 * f1) / (2 * gamma), (df2 / mass - mass * w2 * df1) / 2)
    rows = []
    q_cum = 0.0
    for i, (alpha, s) in enumerate(zip(alphas, states)):
        if i > 0:
            q_cum += 0.5 * (alphas[i] - alphas[i - 1]) * (dq[i - 1] + dq[i])
        # the trapezoid's distance from the closed-form heat of the path up
        # to this row, plus the closed form's own error bound
        exact = _first_law(states[0], s)
        err_cum = abs(q_cum - exact.value) + exact.error_estimate
        ds_cum = s.entropy - states[0].entropy
        slack = c.kB * b.temperature * ds_cum - q_cum
        v = symplectic_param(s.moments, c)
        rows.append([alpha, s.moments.f1, s.moments.f2, v, s.entropy * scale, ds_cum * scale, q_cum, err_cum, slack])
    if cfg.svg:
        series = [(name, [row[k] for row in rows]) for name, k in (("entropy", 4), ("f1", 1), ("f2", 2))]
        svgplot.line_plot(out_dir / "sweep.svg", list(alphas), series, title=f"sweep of {cfg.param}", xlabel=cfg.param)
    header = ["alpha", "f1", "f2", "v", "entropy", "delta_entropy_cum", "heat_cum", "heat_error_est", "clausius_slack"]
    return header, rows


def run_violation_scan(cfg: RunConfig, out_dir: Path) -> Table:
    c = Constants()
    o = OscillatorParams(mass=1.0, frequency=1.0)
    scale = _entropy_scale(cfg)
    rows = []
    for t, g, wd in itertools.product(STANDARD_TEMPERATURES, STANDARD_DAMPINGS, STANDARD_CUTOFFS):
        b = BathSpec(temperature=t, damping=g, cutoff=wd)
        try:
            report = mass_process(o, b, t, c, cfg.mass_factor, check_consistency=False)
        except NumericalFailure as exc:
            rows.append([t, g, wd, cfg.mass_factor, None, None, None, f"ERROR:{exc}"])
            continue
        violation = report.delta_entropy < 0 and report.heat > 0
        flag = "VIOLATION(APPARENT)" if violation else "OK"
        rows.append([t, g, wd, cfg.mass_factor, report.delta_entropy * scale, report.heat, report.slack, flag])
    header = ["temperature", "damping", "cutoff", "mass_factor", "delta_entropy_mass", "heat_mass", "clausius_slack", "flag"]
    return header, rows


def run_resolve(cfg: RunConfig, out_dir: Path) -> Table:
    o, b, c = _reference(cfg)
    b.warn_if_cutoff_low(o)
    scale = _entropy_scale(cfg)
    rows = [
        [name, rep.delta_entropy * scale, rep.heat, rep.slack, rep.clausius_satisfied]
        for name, rep in zip(("coupling", "mass", "total"), _steps(o, b, c, cfg.mass_factor))
    ]
    return ["step", "delta_entropy", "heat", "clausius_slack", "clausius_satisfied"], rows


def run_holevo(cfg: RunConfig, out_dir: Path) -> Table:
    scale = _entropy_scale(cfg)
    ensemble = parse_ensemble_file(cfg.ensemble)
    chi = holevo_chi(ensemble)
    budget = erasure_budget(ensemble, cfg.temperature)
    rows = [["holevo_chi", chi * scale], ["q_martin", budget.q_martin], ["q_amy", budget.q_amy], ["q_shared", budget.q_shared]]
    if ensemble.dim == 2:
        bound, povm = accessible_info_lower(ensemble, cfg.effort)
        rows.insert(1, ["accessible_info_lower", bound * scale])
        for k, elem in enumerate(povm.elements):
            rows += [[f"povm_{k}_{i}{j}", elem[i, j]] for i in range(2) for j in range(2)]
    return ["quantity", "value"], rows


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
    for scenario, reads in _READS.items():
        p = sub.add_parser(scenario)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        for key in reads:
            kind = {"action": "store_true"} if _PARSERS[key] is _parse_bool else {"type": _PARSERS[key]}
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, help=_HELP.get(key), **kind)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {"scenario": args.scenario}
    if args.config:
        file_values = parse_config_file(args.config)
        file_values.pop("scenario", None)
        values.update(file_values)
    # every flag but --config sets the RunConfig field of its name
    values.update((k, v) for k, v in vars(args).items() if k not in ("scenario", "config") and v is not None)
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
        header, rows = _RUNNERS[cfg.scenario](cfg, out_dir)
    except NumericalFailure as exc:
        print(f"clausius-lab: numerical failure: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"clausius-lab: config error: {exc}", file=sys.stderr)
        return 2
    path = out_dir / f"{cfg.scenario}.csv"
    _write_csv(path, header, rows)
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
