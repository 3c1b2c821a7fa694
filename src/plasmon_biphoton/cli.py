"""Command-line front end for the scenario pipelines.

Exit codes: 0 success, 1 configuration/usage error, 2 numerical
convergence failure.  ``--config paper_defaults`` uses the built-in
defaults for the chosen subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .film import TableRangeError, film_matrix
from .optics import QuadratureConvergenceError, telescope_matrix
from .scenarios import (
    ConfigError,
    ScenarioConfig,
    paper_default_config,
    parse_config_file,
    run_scenario,
)

_SCENARIO_OF_COMMAND = {
    "spectrum": "spectrum",
    "visibility": "visibility_sweep",
    "polmap": "polmap",
    "channel": "channel",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbsim",
        description="Plasmon-assisted entangled-photon transmission simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("spectrum", "hole-array transmittance spectra vs tilt"),
        ("visibility", "fringe visibility vs telescope semiaperture"),
        ("polmap", "output intensity/polarization maps"),
        ("channel", "monomode post-selection channel report"),
        ("validate-film", "check film-model symmetry invariants"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default="paper_defaults",
                       help="config file path, or 'paper_defaults'")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--refine", type=int, default=0, metavar="N",
                       help="double the quadrature grid N times")
        p.add_argument("--verbose", action="store_true")
    return parser


def _load_config(args, kind: str) -> ScenarioConfig:
    if args.config == "paper_defaults":
        cfg = paper_default_config(kind)
    else:
        cfg = parse_config_file(args.config)
        if cfg.kind != kind:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match subcommand ({kind})")
    if args.refine:
        cfg = dataclasses.replace(cfg, quad_points=cfg.quad_points * 2 ** args.refine)
    return cfg


def _validate_film(args) -> int:
    cfg = paper_default_config("spectrum") if args.config == "paper_defaults" \
        else parse_config_file(args.config)
    if cfg.semiaperture_deg == 0.0:
        raise ConfigError("semiaperture_deg must be positive to check T(0, 0)")
    film = cfg.film()
    ok = True
    for lam in (728.0, 797.0, 813.0):
        m = film_matrix(film, (0.0, 0.0), lam)
        scale = 0.5 * (abs(m[0, 0]) + abs(m[1, 1]))
        off = max(abs(m[0, 1]), abs(m[1, 0]), abs(m[0, 0] - m[1, 1]))
        passed = off <= 1e-12 * scale
        ok = ok and passed
        print(f"F(0, {lam:g} nm) proportional to identity: "
              f"{'PASS' if passed else 'FAIL'} (residual {off / scale:.3e})")
    setup = cfg.setup(film, cfg.lambda_diagonal_nm)
    t0 = telescope_matrix((0.0, 0.0), setup, n_grid=101)
    scale = 0.5 * (abs(t0[0, 0]) + abs(t0[1, 1]))
    off = max(abs(t0[0, 1]), abs(t0[1, 0]), abs(t0[0, 0] - t0[1, 1]))
    passed = off <= 1e-8 * scale
    ok = ok and passed
    print(f"T(0, 0) proportional to identity: "
          f"{'PASS' if passed else 'FAIL'} (residual {off / scale:.3e})")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.refine < 0:
            raise ConfigError("--refine must not be negative")
        if args.command == "validate-film":
            return _validate_film(args)
        kind = _SCENARIO_OF_COMMAND[args.command]
        cfg = _load_config(args, kind)
        if args.verbose:
            print(f"running {kind} -> {args.out} "
                  f"(quadrature {cfg.quad_points}x{cfg.quad_points})")
        result = run_scenario(cfg, Path(args.out))
        for path in result["paths"]:
            if args.verbose:
                print(f"wrote {path}")
        return 0
    except (ConfigError, TableRangeError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except QuadratureConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
