"""Command-line front end for the scenario pipelines.

Exit codes: 0 success, 1 configuration or usage error (an ``--out`` path
that cannot be a directory is one, and so is an output file name under it
that is taken by a directory), 2 numerical failure (a computed table holds
NaN or +-inf and is not written).  ``--config paper_defaults`` uses the
built-in defaults for the chosen subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .film import TableRangeError, film_matrix
from .optics import telescope_matrix
from .scenarios import (
    ConfigError,
    NonFiniteOutputError,
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

_COMMANDS = {
    "spectrum": "hole-array transmittance spectra vs tilt",
    "visibility": "fringe visibility vs telescope semiaperture",
    "polmap": "output intensity/polarization maps",
    "channel": "monomode post-selection channel report",
    "validate-film": "check film-model symmetry invariants",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 on a usage error, the code of a numerical failure
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    # one parser: every command takes the same options, which may come
    # before or after it
    parser = _Parser(
        prog="pbsim",
        description="Plasmon-assisted entangled-photon transmission simulator",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="commands:\n" + "\n".join(
            f"  {name:<15} {text}" for name, text in _COMMANDS.items()))
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands below")
    parser.add_argument("--config", default="paper_defaults",
                        help="config file path, or 'paper_defaults'")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--refine", type=int, default=0, metavar="N",
                        help="double the quadrature grid N times")
    parser.add_argument("--verbose", action="store_true")
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
    checks = [(f"F(0, {lam:g} nm)", film_matrix(film, (0.0, 0.0), lam), 1e-12)
              for lam in cfg.lambdas_nm]
    checks += [(f"T(0, 0, {lam:g} nm)",
                telescope_matrix((0.0, 0.0), cfg.setup(film, lam), n_grid=101), 1e-8)
               for lam in cfg.lambdas_nm]
    for name, m, _ in checks:
        cfg.require_transmission(m, f"in {name}")
    ok = True
    for name, m, tol in checks:
        scale = 0.5 * (abs(m[0, 0]) + abs(m[1, 1]))
        off = max(abs(m[0, 1]), abs(m[1, 0]), abs(m[0, 0] - m[1, 1]))
        passed = off <= tol * scale
        ok = ok and passed
        print(f"{name} proportional to identity: "
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
    except (FileExistsError, NotADirectoryError) as exc:
        print(f"config error: --out {args.out}: cannot create output directory "
              f"({exc.strerror})", file=sys.stderr)
        return 1
    except IsADirectoryError as exc:
        print(f"config error: --out {args.out}: cannot write {exc.filename} "
              f"({exc.strerror})", file=sys.stderr)
        return 1
    except NonFiniteOutputError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
