"""Command-line front end for the scenario pipelines.

Every command takes the same options, before or after it: ``--config FILE``,
``--out DIR`` and ``--verbose``, each value as the next argument or after
``=``.  One small loop reads them; every ``pbsim`` call is a fresh process,
and building an ``argparse`` parser (which imports ``gettext`` and
``locale``) cost a spectrum run about a quarter of its time.  Option names
are matched in full, not by prefix.  ``--verbose`` states the quadrature
grid, the config's ``quad_points``, for the commands that build one.

Exit codes: 0 success (``-h``/``--help`` too); 1 configuration or usage
error (a ``--config`` file that cannot be read, an ``--out`` directory or
output file that cannot be made or written, grids too large to allocate or
for the physical memory, a grid of 2**31 points or a range of 2**31 steps
or more, a film that cannot be evaluated where the run needs it); 2
numerical failure (a floating-point overflow, invalid value or division by
zero in the run, or a table that holds NaN or +-inf).  ``run_scenario``
turns every failure of a run into one of the two, and a run refused before
its writes makes no ``--out`` directory.  Each ends in one
``config error: ...`` or ``numerical error: ...`` line on stderr; a usage
error prints the usage and one ``pbsim: error: ...`` line.
``--config paper_defaults`` (the default) uses the built-in defaults of the
command; a config file needs no ``kind`` line, and one it has must match it.
Imported before NumPy, this module sets ``OPENBLAS_NUM_THREADS=1`` where
neither it nor ``OMP_NUM_THREADS`` is set, so BLAS runs on one thread.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

# OpenBLAS reads its thread count when NumPy is imported, from
# OMP_NUM_THREADS if OPENBLAS_NUM_THREADS is unset; an idle worker thread
# spin-waits on a second core
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .scenarios import (  # noqa: E402
    ConfigError,
    NonFiniteOutputError,
    ScenarioConfig,
    parse_config_file,
    run_scenario,
)

# each command: the config kind it runs and its help line
_COMMANDS = {
    "spectrum": ("spectrum", "hole-array transmittance spectra vs tilt"),
    "visibility": ("visibility_sweep", "fringe visibility vs telescope semiaperture"),
    "polmap": ("polmap", "output intensity/polarization maps"),
    "channel": ("channel", "monomode post-selection channel report"),
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


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    kind = _COMMANDS[args.command][0]
    try:
        cfg = ScenarioConfig(kind=kind) if args.config == "paper_defaults" \
            else parse_config_file(args.config, kind)
        if args.verbose:
            grid = f" (quadrature {cfg.quad_points}x{cfg.quad_points})" \
                if kind in ("visibility_sweep", "polmap") else ""
            print(f"running {kind} -> {args.out}{grid}")
        result = run_scenario(cfg, args.out)
        for path in result["paths"]:
            if args.verbose:
                print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteOutputError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
