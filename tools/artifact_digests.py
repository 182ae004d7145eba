"""Digest the files and console output of twenty fixed CLI runs, to show they stay byte-identical.

    python tools/artifact_digests.py run [--tree DIR] [--work DIR] [--method M] --out LIST
    python tools/artifact_digests.py diff LIST_A LIST_B

``run`` executes the CLI of the source tree ``--tree`` (default: this
checkout) in child interpreters, so two trees can be compared from one
checkout:

1. ``synth-room``, then 2. ``pipeline --flux-sources`` on it;
3. ``synth-analytic``, then ``pipeline`` with 4. the default gradient source
   and 5. ``--gradient-source dmd_mode``;
6. ``spectrum --remove-mean``; 7. ``phase-average --period-samples 14``;
8. ``gradient --use sum_real`` and 9. ``--use harmonic`` on that average;
10. ``synth-room --config`` on a small room the tool writes into ``--work``
    (:data:`BRANCH_ROOM`), which takes the simulator branches the default
    room never takes;
11. ``synth-analytic --layout`` on a scattered layout of 256 sensors the tool
    writes into ``--work`` (:func:`wide_layout`), then ``pipeline
    --gradient-source dmd_mode`` on it: more channels than snapshots, so
    every mode list in ``modes.json`` is long, and ids that JSON escapes;
12. ``synth-analytic --layout`` on a declared 5 x 8 grid layout the tool
    writes into ``--work`` (:func:`grid_layout`), then ``pipeline`` on it:
    the ``# grid`` comment line of ``layout.csv`` and the central and
    one-sided grid stencils of ``gradient.csv``;
13. ``synth-analytic --layout`` on an undeclared 6 x 11 lattice the tool
    writes into ``--work`` (:func:`lattice_layout`), then ``pipeline
    --gradient-source dmd_mode --flux-sources`` on it with a sources file
    written there too (:data:`LATTICE_SOURCES`): the scattered stencils meet
    exact distance ties, and the median spacing serves both the SVG and the
    flux scores;
14. ``synth-analytic --config`` on a short record with a bias field and a
    zero-amplitude tone the tool writes into ``--work`` (:data:`BIAS_TONE`),
    then ``spectrum`` on it without ``--remove-mean``: a truth table with a
    bias entry and a zero-energy couple, and a fit that drops zero modes and
    reports ``mean_removed: false``;
15. ``synth-room --config`` on a small room with no leak that the tool writes
    into ``--work`` (:data:`CLOSED_ROOM`): the constant mode of the closed
    form has mu = 1 exactly, so its gain is j * sim_dt;
16. ``synth-room --config`` on a room with a heater and a cooler on adjacent
    cells that the tool writes into ``--work`` (:data:`CROSSTALK_ROOM`): each
    switch moves the other cell across its level within a step or two, so
    the log holds thousands of close switches;
17. ``synth-room --layout`` on the default room with sensors in its corners,
    on its walls and on one cell centre, a layout the tool writes into
    ``--work`` (:func:`edge_layout`): the sensors on the far walls read the
    clamped cells ``nx - 2`` and ``ny - 2`` of the bilinear sampler;
18. ``synth-analytic --config`` on a record whose values span twenty decades
    that the tool writes into ``--work`` (:data:`WINDOW_EDGES`): every row of
    ``snapshots.csv`` holds cells that ``timeseries.repr_rows`` formats in
    numpy and cells it leaves to ``repr``, and some sensors cross the edges
    of its window, 1e-4 and 1e14, from one snapshot to the next;
19. ``synth-analytic --layout`` on 1536 scattered sensors, a dense block and
    sparse outliers, that the tool writes into ``--work``
    (:func:`cluster_layout`), then ``pipeline --gradient-source dmd_mode
    --flux-sources`` on it with a sources file in the block
    (:data:`CLUSTER_SOURCES`): the neighbour search keeps 1409 rows in its
    first window and searches 127 again over wider windows, most of them
    outliers';
20. ``pipeline`` on a record of 1e10 plus a tone of about 1e-3 on seven
    sensors that the tool writes into ``--work`` (:func:`offset_snapshots`,
    :func:`offset_layout`), and ``phase-average --keep-mean`` on it: mean
    removal leaves a residue of about 1e-6 that the bias check still flags,
    so the bias note reaches stderr through both commands.  Under
    ``pipeline`` the note is a false positive (the residue is the round-off
    of subtracting 1e10); the run digests how the note is routed, and a bias
    check that tells round-off from bias changes its ``.stderr`` and
    ``phase_average.json`` on purpose.

``--method M`` adds ``--method M`` to every ``spectrum`` and ``pipeline``
call; without it those calls take the tree's default method.  So one
checkout compares ``run --tree OLD`` with ``run --method companion`` (the
companion artifacts) and with ``run`` (the default method's artifacts).

Every run writes under ``--work``, which is emptied first.  The tool writes
each CLI call's stdout and stderr there too, as ``console/<k>-<command>.stdout``
and ``.stderr`` for the k-th call, so that a changed ``error:``, ``warning:``
or summary line is digested like an artifact.  Every call runs in ``--work``
and names its files relative to it, so no artifact or console line records
where ``--work`` is, and two trees may be run in two work directories.
LIST holds one ``<sha256>  <path>`` line per file, sorted by path, and its
own sha256 is printed.  ``diff`` prints the paths whose digests differ or
that only one list has, and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

#: written into --work, so that a later run only ever empties a directory of its own
MARKER = ".artifact_digests"

#: A heater, and two coolers in one cell that switch together (their rates
#: are summed), with no warmup and a step that is not a binary fraction, on a
#: 14 x 7 grid: about 12 000 steps, well under a second.
BRANCH_ROOM = """\
[room]
width = 14.0
depth = 7.0
nx = 14
ny = 7
kappa = 0.05
leak = 0.002
ambient = 18.0
sim_dt = 0.3
sample_dt = 30.0
duration = 3600.0
warmup = 0.0
seed = 5
init_temperature = 20.0
init_noise = 0.2

[ac.heater]
x = 5.5
y = 3.5
mode = heat
power = 0.4
on = 20.0
off = 22.0

[ac.cooler-a]
x = 6.5
y = 3.5
mode = cool
power = 0.1
on = 20.0
off = 19.6

[ac.cooler-b]
x = 6.7
y = 3.6
mode = cool
power = 0.15
on = 20.0
off = 19.6
"""


#: A heater and a cooler at the two ends of the room on a 14 x 7 grid with
#: ``leak = 0``: each drives its cell past its level and diffusion pulls it
#: back, so both keep switching; 2 600 steps.
CLOSED_ROOM = """\
[room]
width = 14.0
depth = 7.0
nx = 14
ny = 7
kappa = 0.2
leak = 0.0
ambient = 25.0
sim_dt = 0.5
sample_dt = 10.0
duration = 1200.0
warmup = 100.0
seed = 11
init_temperature = 25.0
init_noise = 0.05

[ac.heater]
x = 1.5
y = 3.5
mode = heat
power = 0.4
on = 25.1
off = 25.5

[ac.cooler]
x = 12.5
y = 3.5
mode = cool
power = 0.4
on = 24.9
off = 24.5
"""


#: A heater and a cooler on adjacent cells of a 14 x 7 grid, the heater's band
#: above the cooler's: each step of either unit moves the other's cell by about
#: a tenth of its own 0.5 degrees, so the two chatter; 2 600 steps.
CROSSTALK_ROOM = """\
[room]
width = 14.0
depth = 7.0
nx = 14
ny = 7
kappa = 0.48
leak = 0.001
ambient = 28.0
sim_dt = 0.25
sample_dt = 5.0
duration = 600.0
warmup = 50.0
seed = 11
init_temperature = 25.0
init_noise = 0.05

[ac.heater]
x = 6.5
y = 3.5
mode = heat
power = 2.0
on = 25.2
off = 25.3

[ac.cooler]
x = 7.5
y = 3.5
mode = cool
power = 2.0
on = 24.8
off = 24.7
"""


#: 40 snapshots of the default layout across the edges of the window in which
#: ``timeseries.repr_rows`` formats in numpy, 1e-4 <= |x| < 1e14.  The bias
#: 3.77e-7 x^20 runs from 3e-5 at x = 1.25 m to 5e15 at x = 12.75 m and is
#: 1e14 at x = 10.5 m; a tone of amplitude 2e-5 moves the sensor at x = 1.3 m
#: across 1e-4, and one of a thousandth of the bias moves those at 10.5 m
#: across 1e14.
WINDOW_EDGES = """\
[analytic]
dt = 60.0
snapshots = 40

[tone.1]
period = 853.8
poly = 0 0 2e-5

[tone.2]
period = 900.0
poly = 20 0 3.77e-10

[bias]
poly = 20 0 3.77e-7
"""


def wide_layout() -> str:
    """A layout CSV of 256 scattered sensors in the default 14 m x 7 m room.

    The coordinates are distinct multiples of 1 mm from integer arithmetic,
    so the file is the same on every platform.  Each id holds a backslash
    and a non-ASCII letter (both escaped in JSON) and no ``&``, ``<`` or
    ``>`` (which the SVG escapes).
    """
    rows = ["id,x,y"]
    for k in range(1, 257):
        x_mm = 50 + k * 9973 % 13901
        y_mm = 50 + k * 7919 % 6901
        rows.append(f"Sü\\{k:03d},{x_mm / 1000!r},{y_mm / 1000!r}")
    return "\n".join(rows) + "\n"


def grid_layout() -> str:
    """A layout CSV of 40 sensors on a declared 5 x 8 grid in the default room.

    ``dx`` is a binary fraction and ``dy`` is not; the coordinates come from
    integer arithmetic, so the file is the same on every platform.  Of the 40
    stencils 18 are central and 22 one-sided.
    """
    rows = ["# grid rows=5 cols=8 dx=1.75 dy=1.4", "id,x,y"]
    for r in range(5):
        for c in range(8):
            rows.append(f"G{r}{c},{(875 + 1750 * c) / 1000!r},{(700 + 1400 * r) / 1000!r}")
    return "\n".join(rows) + "\n"


def lattice_layout() -> str:
    """A layout CSV of 66 sensors on a 6 x 11 lattice in the default room, with no ``# grid`` line.

    The spacing is 1.25 m in x and y and every coordinate is a binary
    fraction, so distances to lattice neighbours tie exactly and the
    scattered stencil must break the ties by sensor order.
    """
    rows = ["id,x,y"]
    for r in range(6):
        for c in range(11):
            rows.append(f"L{r}-{c:02d},{(625 + 1250 * c) / 1000!r},{(625 + 1250 * r) / 1000!r}")
    return "\n".join(rows) + "\n"


def edge_layout() -> str:
    """A layout CSV of 9 sensors in the default 14 m x 7 m room (cells of 0.25 m).

    The four corners, one point on each wall, and the centre of cell (10, 6).
    """
    pts = [(0, 0), (14000, 0), (0, 7000), (14000, 7000), (7000, 0), (5500, 7000),
           (0, 2300), (14000, 4700), (2625, 1625)]
    rows = ["id,x,y", *(f"E{k},{x / 1000!r},{y / 1000!r}" for k, (x, y) in enumerate(pts))]
    return "\n".join(rows) + "\n"


#: a cooler and a heater inside the lattice, for ``pipeline --flux-sources``
LATTICE_SOURCES = "id,x,y,mode\nAC-1,3.0,3.5,cool\nHT-1,10.5,2.0,heat\n"


def cluster_layout() -> str:
    """A layout CSV of 1536 sensors: 1024 in a 4 m x 2 m block and 512 outliers over the room.

    The coordinates are distinct multiples of 1 mm from integer arithmetic,
    so the file is the same on every platform.  The block is dense on the
    neighbour search's sort axis, so an outlier's first window is narrow
    there: at six neighbours the first window keeps 1409 of the 1536 rows,
    and 127 are searched again, 99 of them in a third and 1 in a fourth
    window.
    """
    rows = ["id,x,y"]
    for k in range(1, 1025):
        rows.append(f"B{k:04d},{(3000 + k * 9973 % 4001) / 1000!r},"
                    f"{(2000 + k * 7919 % 2001) / 1000!r}")
    for k in range(1, 513):
        rows.append(f"O{k:03d},{(50 + k * 7919 % 13901) / 1000!r},"
                    f"{(50 + k * 9973 % 6901) / 1000!r}")
    return "\n".join(rows) + "\n"


#: a cooler and a heater inside the block of :func:`cluster_layout`, each with
#: sensors within two median spacings
CLUSTER_SOURCES = "id,x,y,mode\nAC-B,3.9,2.9,cool\nHT-B,6.1,3.3,heat\n"


def offset_layout() -> str:
    """A layout CSV of 7 scattered sensors in the default room, for :func:`offset_snapshots`."""
    pts = [(2000, 1500), (5250, 2900), (8500, 1250), (11750, 2500), (3500, 5500),
           (7000, 4250), (10500, 6000)]
    rows = ["id,x,y", *(f"F{k},{x / 1000!r},{y / 1000!r}" for k, (x, y) in enumerate(pts))]
    return "\n".join(rows) + "\n"


def offset_snapshots() -> str:
    """A snapshot CSV of 241 samples 60 s apart: 1e10 plus a 12-sample cosine per sensor.

    Sensor j's cosine has amplitude (1 + j/4) * 1e-3 and starts j samples
    into its cycle.  The cosine's values come from ``math.sqrt`` and the four
    arithmetic operations, which IEEE 754 rounds the same on every platform,
    so the file is too.
    """
    r = math.sqrt(3) / 2
    cos = [1.0, r, 0.5, 0.0, -0.5, -r, -1.0, -r, -0.5, 0.0, 0.5, r]
    rows = ["time," + ",".join(f"F{j}" for j in range(7))]
    for k in range(241):
        cells = [repr(1e10 + 1e-3 * (1 + j / 4) * cos[(k + j) % 12]) for j in range(7)]
        rows.append(f"{60 * k}," + ",".join(cells))
    return "\n".join(rows) + "\n"


#: 20 snapshots of a plane-wave tone, a tone of zero amplitude and a static
#: bias field; the noiseless fit leaves 16 zero modes to drop
BIAS_TONE = """\
[analytic]
dt = 60.0
snapshots = 20

[tone.1]
period = 853.8
plane_wave = 1.0 0.0 0.4 0.9

[tone.2]
period = 900.0
poly = 0 0 0.0

[bias]
poly = 0 0 1.5; 1 0 0.2
"""


def _runs(w: Path) -> list[list[str]]:
    room, ana, avg, wide = w / "room", w / "analytic", w / "phase-average", w / "wide"
    grid, lattice, bias, cluster = w / "grid", w / "lattice", w / "bias-tone", w / "cluster"
    ana_data = ["--snapshots", str(ana / "snapshots.csv")]
    ana_pipeline = ["pipeline", *ana_data, "--layout", str(ana / "layout.csv")]
    gradient = ["gradient", "--mode-file", str(avg / "phase_average.csv"),
                "--layout", str(ana / "layout.csv")]
    return [
        ["synth-room", "--out-dir", str(room)],
        ["pipeline", "--snapshots", str(room / "snapshots.csv"),
         "--layout", str(room / "layout.csv"), "--flux-sources", str(room / "sources.csv"),
         "--out-dir", str(w / "room-pipeline")],
        ["synth-analytic", "--out-dir", str(ana)],
        [*ana_pipeline, "--out-dir", str(w / "analytic-pipeline")],
        [*ana_pipeline, "--gradient-source", "dmd_mode", "--out-dir", str(w / "analytic-dmd")],
        ["spectrum", *ana_data, "--remove-mean", "--out-dir", str(w / "spectrum")],
        ["phase-average", *ana_data, "--period-samples", "14", "--out-dir", str(avg)],
        [*gradient, "--use", "sum_real", "--out-dir", str(w / "gradient-sum-real")],
        [*gradient, "--use", "harmonic", "--out-dir", str(w / "gradient-harmonic")],
        ["synth-room", "--config", str(w / "branch_room.ini"), "--out-dir", str(w / "branch-room")],
        ["synth-analytic", "--layout", str(w / "wide_layout.csv"), "--out-dir", str(wide)],
        ["pipeline", "--snapshots", str(wide / "snapshots.csv"), "--layout",
         str(wide / "layout.csv"), "--gradient-source", "dmd_mode",
         "--out-dir", str(w / "wide-pipeline")],
        ["synth-analytic", "--layout", str(w / "grid_layout.csv"), "--out-dir", str(grid)],
        ["pipeline", "--snapshots", str(grid / "snapshots.csv"), "--layout",
         str(grid / "layout.csv"), "--out-dir", str(w / "grid-pipeline")],
        ["synth-analytic", "--layout", str(w / "lattice_layout.csv"), "--out-dir", str(lattice)],
        ["pipeline", "--snapshots", str(lattice / "snapshots.csv"), "--layout",
         str(lattice / "layout.csv"), "--gradient-source", "dmd_mode",
         "--flux-sources", str(w / "lattice_sources.csv"),
         "--out-dir", str(w / "lattice-pipeline")],
        ["synth-analytic", "--config", str(w / "bias_tone.ini"), "--out-dir", str(bias)],
        ["spectrum", "--snapshots", str(bias / "snapshots.csv"),
         "--out-dir", str(w / "bias-tone-spectrum")],
        ["synth-room", "--config", str(w / "closed_room.ini"), "--out-dir", str(w / "closed-room")],
        ["synth-room", "--config", str(w / "crosstalk_room.ini"),
         "--out-dir", str(w / "crosstalk-room")],
        ["synth-room", "--layout", str(w / "edge_layout.csv"), "--out-dir", str(w / "edge-room")],
        ["synth-analytic", "--config", str(w / "window_edges.ini"),
         "--out-dir", str(w / "window-edges")],
        ["synth-analytic", "--layout", str(w / "cluster_layout.csv"), "--out-dir", str(cluster)],
        ["pipeline", "--snapshots", str(cluster / "snapshots.csv"), "--layout",
         str(cluster / "layout.csv"), "--gradient-source", "dmd_mode",
         "--flux-sources", str(w / "cluster_sources.csv"),
         "--out-dir", str(w / "cluster-pipeline")],
        ["pipeline", "--snapshots", str(w / "offset_snapshots.csv"),
         "--layout", str(w / "offset_layout.csv"), "--out-dir", str(w / "offset-pipeline")],
        ["phase-average", "--snapshots", str(w / "offset_snapshots.csv"), "--keep-mean",
         "--period-samples", "12", "--out-dir", str(w / "offset-phase-average")],
    ]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_run(args) -> int:
    tree = Path(args.tree).resolve()
    work = Path(args.work).resolve()
    if work.exists():
        if any(work.iterdir()) and not (work / MARKER).exists():
            print(f"error: {work} is not empty and was not made by this tool", file=sys.stderr)
            return 2
        shutil.rmtree(work)
    work.mkdir(parents=True)
    (work / MARKER).write_text("")
    (work / "branch_room.ini").write_text(BRANCH_ROOM, encoding="utf-8")
    (work / "wide_layout.csv").write_text(wide_layout(), encoding="utf-8")
    (work / "grid_layout.csv").write_text(grid_layout(), encoding="utf-8")
    (work / "lattice_layout.csv").write_text(lattice_layout(), encoding="utf-8")
    (work / "lattice_sources.csv").write_text(LATTICE_SOURCES, encoding="utf-8")
    (work / "bias_tone.ini").write_text(BIAS_TONE, encoding="utf-8")
    (work / "closed_room.ini").write_text(CLOSED_ROOM, encoding="utf-8")
    (work / "crosstalk_room.ini").write_text(CROSSTALK_ROOM, encoding="utf-8")
    (work / "edge_layout.csv").write_text(edge_layout(), encoding="utf-8")
    (work / "window_edges.ini").write_text(WINDOW_EDGES, encoding="utf-8")
    (work / "cluster_layout.csv").write_text(cluster_layout(), encoding="utf-8")
    (work / "cluster_sources.csv").write_text(CLUSTER_SOURCES, encoding="utf-8")
    (work / "offset_layout.csv").write_text(offset_layout(), encoding="utf-8")
    (work / "offset_snapshots.csv").write_text(offset_snapshots(), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    console = work / "console"
    console.mkdir()
    for k, argv in enumerate(_runs(Path()), 1):  # relative to work, the cwd of each call
        if args.method and argv[0] in ("spectrum", "pipeline"):
            argv = [*argv, "--method", args.method]
        done = subprocess.run([sys.executable, "-m", "thermokmd.cli", *argv], env=env,
                              cwd=work, capture_output=True)
        (console / f"{k:02d}-{argv[0]}.stdout").write_bytes(done.stdout)
        (console / f"{k:02d}-{argv[0]}.stderr").write_bytes(done.stderr)
        if done.returncode != 0:
            err = done.stderr.decode(errors="replace").strip()
            print(f"error: {argv[0]} exited {done.returncode}: {err}", file=sys.stderr)
            return 1
    files = sorted(p for p in work.rglob("*") if p.is_file() and p.name != MARKER)
    lines = [f"{_sha256(p)}  {p.relative_to(work).as_posix()}\n" for p in files]
    out = Path(args.out)
    out.write_text("".join(lines), encoding="utf-8")
    print(f"{len(lines)} files, list sha256 {_sha256(out)}")
    return 0


def _read_list(path) -> dict[str, str]:
    pairs = (line.split("  ", 1) for line in Path(path).read_text(encoding="utf-8").splitlines())
    return {name: digest for digest, name in pairs}


def cmd_diff(args) -> int:
    a, b = _read_list(args.a), _read_list(args.b)
    differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    for name in differ:
        print(f"{name}: {a.get(name, '-')} != {b.get(name, '-')}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} files differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the twenty CLI runs and write the digest list")
    p.add_argument("--tree", default=str(Path(__file__).resolve().parents[1]),
                   help="source tree whose src/ is run (default: this checkout)")
    p.add_argument("--work", default=str(Path(tempfile.gettempdir()) / "thermokmd-artifacts"),
                   help="directory the runs write into; emptied first")
    p.add_argument("--method", default=None,
                   help="--method passed to every spectrum and pipeline call "
                        "(default: none, so the tree's default method)")
    p.add_argument("--out", required=True, help="digest list to write")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("diff", help="compare two digest lists")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_diff)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
