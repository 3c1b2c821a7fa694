"""The paper-default outputs of ``pbsim``, pinned by ``paper_defaults.txt``.

The fixture holds all of ``visibility.csv``, every 10th row of
``spectrum.csv``, 64 seeded rows of ``polmap.csv`` (the centre among them)
and the numbers of ``channel.txt``, each row led by its index.  A value is
the ``repr`` of the float rounded to 12 significant digits, which keeps the
file under 20 KB; that rounding is 20 times below the tolerance.  A change
that moves an output on purpose rewrites the fixture in the same commit:

    PYTHONPATH=src python tests/test_paper_defaults.py
"""

from pathlib import Path

import numpy as np

from plasmon_biphoton.scenarios import (
    POLMAP_HEADER,
    ScenarioConfig,
    run_channel,
    run_polmap,
    run_spectrum,
    run_visibility_sweep,
)

FIXTURE = Path(__file__).with_name("paper_defaults.txt")

# each column is compared to this fraction of its largest pinned magnitude: a
# relative comparison would trip on the rounding noise, about 1e-17, of a
# polmap axis ratio that is 0 in exact arithmetic
TOLERANCE = 1e-10


def paper_default_tables() -> dict:
    """Each paper-default output file's (header, table), from the runners in memory.

    ``channel.txt`` is one column of the numbers it prints, in its order.
    """
    vis = run_visibility_sweep(ScenarioConfig(kind="visibility_sweep"))
    spec = run_spectrum(ScenarioConfig(kind="spectrum"))
    polmap = run_polmap(ScenarioConfig(kind="polmap"))
    cfg = ScenarioConfig(kind="channel")
    channel = run_channel(cfg)
    numbers = [cfg.gram_coherence]
    for t in (*cfg.channel_matrix().ravel(), *channel["rho"].ravel()):
        numbers += [t.real, t.imag]
    numbers += [channel["concurrence"], channel["v0"], channel["v45"]]
    return {"visibility.csv": (vis["header"], vis["table"]),
            "spectrum.csv": (spec["header"], spec["table"]),
            "polmap.csv": (POLMAP_HEADER, polmap["table"]),
            "channel.txt": (["value"], np.array(numbers)[:, None])}


def write_fixture(path=FIXTURE) -> None:
    """Write the fixture from the runners' tables at the program's current outputs."""
    tables = paper_default_tables()
    n = len(tables["polmap.csv"][1])
    seeded = np.random.default_rng(31).choice(n, size=63, replace=False)
    pinned = {"visibility.csv": range(len(tables["visibility.csv"][1])),
              "spectrum.csv": range(0, len(tables["spectrum.csv"][1]), 10),
              "polmap.csv": sorted({n // 2, *seeded.tolist()}),
              "channel.txt": range(len(tables["channel.txt"][1]))}
    lines = []
    for name, (header, table) in tables.items():
        lines.append(f"[{name}] {len(table)} rows")
        lines.append(",".join(["row", *header]))
        lines += [",".join([str(i), *(repr(float(f"{v:.12g}")) for v in table[i].tolist())])
                  for i in pinned[name]]
    Path(path).write_text("\n".join(lines) + "\n")


def read_fixture(path=FIXTURE) -> dict:
    """Each pinned file's (row count, header, row indices, pinned rows)."""
    pinned = {}
    for section in Path(path).read_text().split("[")[1:]:
        title, header, *rows = section.splitlines()
        name, count = title.split("] ")
        values = np.array([row.split(",") for row in rows], dtype=float)
        pinned[name] = (int(count.split()[0]), header.split(",")[1:],
                        values[:, 0].astype(int), values[:, 1:])
    return pinned


def test_paper_default_outputs_match_the_fixture():
    pinned = read_fixture()
    tables = paper_default_tables()
    assert list(pinned) == list(tables)
    for name, (header, table) in tables.items():
        count, pinned_header, rows, values = pinned[name]
        assert (header, len(table)) == (pinned_header, count), name
        scale = np.max(np.abs(values), axis=0)
        deviation = np.abs(table[rows] - values)
        assert np.all(deviation <= TOLERANCE * scale), \
            (name, np.max(deviation / np.where(scale > 0, scale, 1.0), axis=0))


if __name__ == "__main__":
    write_fixture()
