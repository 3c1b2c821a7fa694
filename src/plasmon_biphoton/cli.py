"""Command-line front end for the scenario pipelines.

Every command takes the same options, before or after it: ``--config FILE``,
``--out DIR`` and ``--verbose``, each value as the next argument or after
``=``.  One small loop reads them; every ``pbsim`` call is a fresh process,
and building an ``argparse`` parser (which imports ``gettext`` and
``locale``) cost a spectrum run about a quarter of its time.  Option names
are matched in full, not by prefix.  The quadrature grid is the config's
``quad_points``, and ``validate-film`` checks that F(0) is proportional to
the identity at each of the config's ``lambdas_nm``.

Exit codes: 0 success (``-h``/``--help`` too), 1 configuration or usage
error (a ``--config`` file that cannot be read, an ``--out`` directory or
output file that cannot be made or written, grids too large to allocate,
an aperture transform whose predicted peak exceeds the physical memory;
the runners compute before anything is written, so a run that runs out of
memory makes no ``--out`` directory; a grid of 2**31 points or more, or a
wavelength or semiaperture range of 2**31 steps or more, is refused before
anything is computed),
2 numerical failure (a computed table holds NaN or +-inf; no file of the
run is written).  A usage error prints the usage and one
``pbsim: error: ...`` line to stderr.  ``--config paper_defaults`` uses the
built-in defaults for the chosen subcommand.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .film import TableRangeError, film_matrix
from .scenarios import (
    ConfigError,
    NonFiniteOutputError,
    ScenarioConfig,
    parse_config_file,
    run_scenario,
)

# each command: the config kind it runs (validate-film reads a config of
# any kind) and its help line
_COMMANDS = {
    "spectrum": ("spectrum", "hole-array transmittance spectra vs tilt"),
    "visibility": ("visibility_sweep", "fringe visibility vs telescope semiaperture"),
    "polmap": ("polmap", "output intensity/polarization maps"),
    "channel": ("channel", "monomode post-selection channel report"),
    "validate-film": (None, "check film-model symmetry invariants"),
}

_USAGE = ("usage: pbsim [-h] [--config CONFIG] [--out OUT] [--verbose]\n"
          "             {" + ",".join(_COMMANDS) + "}\n")

_HELP = _USAGE + """
Plasmon-assisted entangled-photon transmission simulator

options:
  -h, --help       show this help message and exit
  --config CONFIG  config file path, or 'paper_defaults' (the default)
  --out OUT        output directory (default: out)
  --verbose        print the run and each file written

commands:
""" + "".join(f"  {name:<15}  {text}\n" for name, (_, text) in _COMMANDS.items())

# each option and the value it has when not given
_DEFAULTS = {"config": "paper_defaults", "out": "out", "verbose": False}


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}pbsim: error: {message}\n")
    sys.exit(1)


def _is_value(arg: str) -> bool:
    """Whether ``arg`` can be a value: not option-like, or '-', or a negative number."""
    return not arg.startswith("-") or arg == "-" or arg[1:].replace(".", "", 1).isdigit()


def _parse_args(argv) -> SimpleNamespace:
    """The command and the options in ``argv``, read left to right.

    Prints the help and exits 0 on ``-h``/``--help``; prints the usage and
    argparse's message for a usage error and exits 1.
    """
    opts = dict(_DEFAULTS)
    command, extra = None, []
    args = iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=") if arg.startswith("--") else (arg, "", "")
        if arg in ("-h", "--help"):
            sys.stdout.write(_HELP)
            sys.exit(0)
        elif name == "--verbose":
            if eq:
                _usage_error(f"argument --verbose: ignored explicit argument {value!r}")
            opts["verbose"] = True
        elif name in ("--config", "--out"):
            if not eq:
                value = next(args, None)
                if value is None or not _is_value(value):
                    _usage_error(f"argument {name}: expected one argument")
            opts[name[2:]] = value
        elif command is None and _is_value(arg):
            if arg not in _COMMANDS:
                choices = ", ".join(repr(c) for c in _COMMANDS)
                _usage_error(f"argument command: invalid choice: {arg!r} (choose from {choices})")
            command = arg
        else:
            extra.append(arg)
    if command is None:
        _usage_error("the following arguments are required: command")
    if extra:
        _usage_error(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(command=command, **opts)


def _load_config(args, kind: str | None) -> ScenarioConfig:
    """The config of ``--config``; of any kind if ``kind`` is None."""
    if args.config == "paper_defaults":
        cfg = ScenarioConfig() if kind is None else ScenarioConfig(kind=kind)
    else:
        cfg = parse_config_file(args.config)
        if kind not in (None, cfg.kind):
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match subcommand ({kind})")
    return cfg


def _validate_film(cfg: ScenarioConfig) -> int:
    film = cfg.film()
    checks = [(f"F(0, {lam:g} nm)", film_matrix(film, (0.0, 0.0), lam))
              for lam in cfg.lambdas_nm]
    for name, m in checks:
        cfg.require_transmission(m, f"in {name}")
    ok = True
    for name, m in checks:
        scale = 0.5 * (abs(m[0, 0]) + abs(m[1, 1]))
        off = max(abs(m[0, 1]), abs(m[1, 0]), abs(m[0, 0] - m[1, 1]))
        passed = off <= 1e-12 * scale
        ok = ok and passed
        print(f"{name} proportional to identity: "
              f"{'PASS' if passed else 'FAIL'} (residual {off / scale:.3e})")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        kind = _COMMANDS[args.command][0]
        cfg = _load_config(args, kind)
        if kind is None:
            return _validate_film(cfg)
        if args.verbose:
            print(f"running {kind} -> {args.out} "
                  f"(quadrature {cfg.quad_points}x{cfg.quad_points})")
        result = run_scenario(cfg, args.out)
        for path in result["paths"]:
            if args.verbose:
                print(f"wrote {path}")
        return 0
    except (ConfigError, TableRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"config error: out of memory ({str(exc) or 'allocation failed'}); "
              "lower quad_points or the grid sizes", file=sys.stderr)
        return 1
    except NonFiniteOutputError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
