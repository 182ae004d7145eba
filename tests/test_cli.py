import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import thermokmd
from thermokmd import pipeline, spectral, synth
from thermokmd.cli import main
from thermokmd.gradient import load_sources_csv
from thermokmd.synth import (
    MAX_STEPS,
    AnalyticSpec,
    PolynomialField,
    Tone,
    default_layout,
    generate_analytic,
)
from thermokmd.timeseries import SensorLayout, SnapshotMatrix, write_layout, write_snapshots


@pytest.fixture(scope="module")
def two_tone_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("twotone")
    code = main(["synth-analytic", "--out-dir", str(out)])
    assert code == 0
    return out


def single_tone_dir(tmp_path, period=841.0):
    layout = default_layout()
    x = PolynomialField((((1, 0), 0.15 + 0.1j), ((0, 1), -0.2 + 0.05j), ((0, 0), 1.0)))
    spec = AnalyticSpec(layout=layout, dt=60.0, n_snapshots=241,
                        tones=(Tone(period=period, amplitude=x),))
    snaps, _ = generate_analytic(spec)
    write_snapshots(snaps, tmp_path / "snapshots.csv")
    write_layout(layout, tmp_path / "layout.csv")
    return tmp_path


class TestSynthAndSpectrum:
    def test_two_tone_spectrum_dominant_matches(self, two_tone_dir, tmp_path, capsys):
        out = tmp_path / "spec"
        code = main(["spectrum", "--snapshots", str(two_tone_dir / "snapshots.csv"),
                     "--out-dir", str(out)])
        assert code == 0
        import csv

        lines = (out / "modes.csv").read_text().splitlines()
        assert lines[0] == "couple,abs_lam,period_min,mode_norm,energy"
        first = list(csv.reader(lines))[1]
        # dominant couple is the injected 853.8 s tone
        assert first[0] == "{1,2}"
        assert float(first[2]) == pytest.approx(853.8 / 60.0, rel=1e-3)

    def test_truth_table_written(self, two_tone_dir):
        truth = json.loads((two_tone_dir / "truth_modes.json").read_text())
        periods = sorted(m["period_minutes"] for m in truth["modes"])
        assert periods[0] == pytest.approx(14.23, rel=1e-9)
        assert periods[1] == pytest.approx(89.16, rel=1e-9)

    def test_constant_dataset_bias_only(self, tmp_path, capsys):
        snaps = tmp_path / "const.csv"
        rows = "\n".join(f"{60 * k},25.0,26.0" for k in range(5))
        snaps.write_text("time,a,b\n" + rows + "\n")
        for method in spectral.METHODS:
            out = tmp_path / method
            code = main(["spectrum", "--snapshots", str(snaps), "--method", method,
                         "--out-dir", str(out)])
            assert code == 0
            assert capsys.readouterr().err.splitlines() == [
                "warning: ranking is empty: the table holds no oscillatory mode"]
            assert (out / "modes.csv").read_text().splitlines() == [
                "couple,abs_lam,period_min,mode_norm,energy"
            ]
            payload = json.loads((out / "modes.json").read_text())
            assert [m["bias_flag"] for m in payload["modes"]] == [True]

    def test_missing_layout_exit_2(self, two_tone_dir, tmp_path, capsys):
        code = main(["pipeline", "--snapshots", str(two_tone_dir / "snapshots.csv"),
                     "--layout", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_bad_snapshot_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,a\n0,1\n60,zzz\n120,3\n")
        code = main(["spectrum", "--snapshots", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "zzz" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "phase-average", "pipeline"])
    @pytest.mark.parametrize("dt", ["0", "-60", "nan", "inf"])
    def test_bad_dt_override_exit_2(self, command, dt, two_tone_dir, tmp_path, capsys):
        # the argument is at fault, not the snapshot file
        argv = {"spectrum": [], "phase-average": ["--period-samples", "14"],
                "pipeline": ["--layout", str(two_tone_dir / "layout.csv")]}[command]
        code = main([command, "--snapshots", str(two_tone_dir / "snapshots.csv"), *argv,
                     "--dt-override", dt, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --dt-override must be finite and positive, got {float(dt)}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        "time,a\n1e400,1\n2e400,2\n3e400,3\n",
        "time,a\n0,1\n0.5e400,2\n120,3\n",
        "time,a,a\n0,1,1\n60,2,2\n120,3,3\n",
        "time,a\n0,1\n60,1e999\n120,3\n",
    ], ids=["uniform-overflow", "non-uniform-overflow", "duplicate-id", "inf-value"])
    def test_unusable_snapshot_file_exit_2(self, text, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        code = main(["spectrum", "--snapshots", str(bad), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["snapshots", "layout"])
    def test_empty_pipeline_input_exit_2(self, kind, two_tone_dir, tmp_path, capsys):
        files = {"snapshots": two_tone_dir / "snapshots.csv", "layout": two_tone_dir / "layout.csv"}
        bad = files[kind] = tmp_path / f"{kind}.csv"
        bad.write_text({"snapshots": "", "layout": "id,x,y\n"}[kind], encoding="utf-8")
        out = tmp_path / "out"
        assert main(["pipeline", "--snapshots", str(files["snapshots"]),
                     "--layout", str(files["layout"]), "--out-dir", str(out)]) == 2
        message = {"snapshots": "empty file", "layout": "layout file has no sensors"}[kind]
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field", ["width", "poly", "x", "sum_real", "dx"])
    def test_non_numeric_field_exit_2(self, field, two_tone_dir, tmp_path, capsys):
        bad = tmp_path / "bad_input"
        data = ["--layout", str(two_tone_dir / "layout.csv")]
        room_ini = files("thermokmd.configs").joinpath("room_default.ini").read_text("utf-8")
        text, argv = {
            "width": (room_ini.replace("width = 14.0", "width = foo"),
                      ["synth-room", "--config", str(bad)]),
            "dx": ("# grid rows=2 cols=2 dx=1e+ dy=1\nid,x,y\n"
                   "a,0,0\nb,1,0\nc,0,1\nd,1,1\n",
                   ["synth-room", "--layout", str(bad)]),
            "poly": ("[analytic]\ndt = 60.0\nsnapshots = 241\n"
                     "[tone.1]\nperiod = 853.8\npoly = 0 0 x\n",
                     ["synth-analytic", "--config", str(bad)]),
            "x": ("id,x,y,mode\nAC-1,abc,2.9,cool\n",
                  ["pipeline", "--snapshots", str(two_tone_dir / "snapshots.csv"), *data,
                   "--flux-sources", str(bad)]),
            "sum_real": ("channel_id,sum_real,harmonic_re,harmonic_im\nTH-1,zz,0.0,0.0\n",
                         ["gradient", "--mode-file", str(bad), *data]),
        }[field]
        bad.write_text(text, encoding="utf-8")
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reader", ["snapshots", "layout", "sources", "mode-file", "config"])
    def test_not_utf8_exit_2(self, reader, two_tone_dir, tmp_path, capsys):
        bad = tmp_path / "bad_input"
        data = ["--layout", str(two_tone_dir / "layout.csv")]
        text, argv = {
            "snapshots": (b"time,\xe9\n0,1\n60,2\n120,3\n",
                          ["spectrum", "--snapshots", str(bad)]),
            "layout": (b"id,x,y\n\xe9,0,0\n", ["synth-analytic", "--layout", str(bad)]),
            "sources": (b"id,x,y,mode\nAC-\xe9,1.0,2.9,cool\n",
                        ["pipeline", "--snapshots", str(two_tone_dir / "snapshots.csv"), *data,
                         "--flux-sources", str(bad)]),
            "mode-file": (b"channel_id,sum_real,harmonic_re,harmonic_im\nTH-\xe9,1.0,0.0,0.0\n",
                          ["gradient", "--mode-file", str(bad), *data]),
            "config": (b"[room]\nseed = \xe9", ["synth-room", "--config", str(bad)]),
        }[reader]
        bad.write_bytes(text)
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text (") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["nx", "mode", "snapshots", "sim_dt", "leak"])
    def test_out_of_range_config_exit_2(self, field, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        room_ini = files("thermokmd.configs").joinpath("room_default.ini").read_text("utf-8")
        text, command, named = {
            "nx": (room_ini.replace("nx = 56", "nx = 2"), "synth-room", "3x3 cells"),
            "mode": (room_ini.replace("mode = cool\n", "", 1), "synth-room", "AC mode"),
            "snapshots": ("[analytic]\ndt = 60.0\nsnapshots = 2\n", "synth-analytic",
                          "3 snapshots"),
            # an explicit step whose fastest mode has the multiplier -75.66
            "sim_dt": (room_ini.replace("sim_dt = 0.375", "sim_dt = 30.0"), "synth-room",
                       "multiplier -75.66 is not >= 0"),
            # a leak that takes the fastest mode's multiplier to -1.98; over a
            # short run the field stays finite, so nothing else would refuse it
            "leak": (room_ini.replace("leak = 0.00035", "leak = 5.4")
                     .replace("warmup = 7200.0", "warmup = 0.0")
                     .replace("duration = 14400.0", "duration = 120.0"), "synth-room",
                     "leak 5.4"),
        }[field]
        bad.write_text(text, encoding="utf-8")
        assert main([command, "--config", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["dx", "dy"])
    def test_zero_grid_spacing_exit_2(self, field, tmp_path, capsys):
        bad = tmp_path / "layout.csv"
        spacing = {"dx": "dx=0 dy=1", "dy": "dx=1 dy=0"}[field]
        bad.write_text(f"# grid rows=2 cols=2 {spacing}\nid,x,y\n"
                       "a,0,0\nb,1,0\nc,0,1\nd,1,1\n", encoding="utf-8")
        argv = ["synth-room", "--layout", str(bad), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and field in err

    @pytest.mark.parametrize("with_config", [False, True])
    def test_sensor_outside_room_exit_2(self, with_config, tmp_path, capsys):
        layout = tmp_path / "layout.csv"
        layout.write_text("id,x,y\na,20,1\nb,1,1\nc,2,2\n", encoding="utf-8")
        config = tmp_path / "room.ini"
        argv = ["synth-room", "--layout", str(layout), "--out-dir", str(tmp_path / "out")]
        if with_config:
            config.write_text(files("thermokmd.configs").joinpath("room_default.ini")
                              .read_text("utf-8"), encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(layout) in err and (str(config) in err) == with_config
        assert "sensor 'a' at (20.0, 1.0) is outside" in err

    @pytest.mark.parametrize("fault", ["coincident", "duplicate"])
    def test_unusable_layout_exit_2(self, fault, tmp_path, capsys):
        layout = tmp_path / "layout.csv"
        second = {"coincident": "b,1,1", "duplicate": "a,2,1"}[fault]
        layout.write_text(f"id,x,y\na,1,1\n{second}\nc,2,2\n", encoding="utf-8")
        assert main(["synth-room", "--layout", str(layout),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(layout) in err

    @pytest.mark.parametrize("kind", ["sources", "mode_file"])
    def test_short_row_exit_2(self, kind, two_tone_dir, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        data = ["--layout", str(two_tone_dir / "layout.csv")]
        text, argv = {
            "sources": ("x,y,mode,id\n1,1,cool\n",
                        ["pipeline", "--snapshots", str(two_tone_dir / "snapshots.csv"), *data,
                         "--flux-sources", str(bad)]),
            "mode_file": ("sum_real,harmonic_re,harmonic_im,channel_id\n1,2,3\n",
                          ["gradient", "--mode-file", str(bad), *data]),
        }[kind]
        bad.write_text(text, encoding="utf-8")
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and "data row 1" in err

    @pytest.mark.parametrize("rows, message", [
        ("AC-1,nan,3.0,cool\n", "non-finite x at data row 1"),
        ("AC-1,1.0,2.9,cool\nAC-2,4.0,-inf,heat\n", "non-finite y at data row 2"),
        ("AC-1,1.0,2.9,cool\nAC-1,4.0,2.5,cool\n", "duplicate source id 'AC-1'"),
    ], ids=["nan-x", "inf-y", "duplicate-id"])
    def test_unusable_sources_exit_2(self, rows, message, two_tone_dir, tmp_path, capsys):
        # refused before the fit: a source at nan has no sensor in range, and a
        # repeated id would keep only one of the two scores
        bad = tmp_path / "sources.csv"
        bad.write_text("id,x,y,mode\n" + rows, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["pipeline", "--snapshots", str(two_tone_dir / "snapshots.csv"),
                     "--layout", str(two_tone_dir / "layout.csv"), "--flux-sources", str(bad),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    def test_sources_on_a_3d_layout_exit_2(self, tmp_path, capsys, monkeypatch):
        # a sources file places its sources in d = 2: refused before the fit
        monkeypatch.setattr(pipeline.spectral, "decompose",
                            lambda *a: pytest.fail("the fit ran before the sources were refused"))
        ids = [f"S{k}" for k in range(5)]
        rows = "".join(f"{60 * k}," + ",".join(f"{math.sin(k + j)!r}" for j in range(5)) + "\n"
                       for k in range(12))
        data = tmp_path / "snapshots.csv"
        data.write_text("time," + ",".join(ids) + "\n" + rows, encoding="utf-8")
        layout = tmp_path / "layout.csv"
        layout.write_text("id,x,y,z\n" + "".join(f"{i},{k},{k % 2},{k // 2}\n"
                                                 for k, i in enumerate(ids)), encoding="utf-8")
        sources = tmp_path / "sources.csv"
        sources.write_text("id,x,y,mode\nAC,1.0,0.5,cool\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["pipeline", "--snapshots", str(data), "--layout", str(layout),
                     "--flux-sources", str(sources), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {sources} with {layout}: sources are placed in d = 2 (id,x,y,mode), "
            "the layout in d = 3\n")
        assert not out.exists()

    @pytest.mark.parametrize("column, cell, use", [("sum_real", "nan", "sum_real"),
                                                  ("harmonic_im", "-inf", "harmonic")])
    def test_non_finite_mode_file_exit_2(self, column, cell, use, two_tone_dir, tmp_path,
                                         capsys):
        # refused with the file named, before a non-finite gradient or a numpy warning
        avg = tmp_path / "avg"
        assert main(["phase-average", "--snapshots", str(two_tone_dir / "snapshots.csv"),
                     "--period-samples", "14", "--out-dir", str(avg)]) == 0
        capsys.readouterr()
        header, first, *rest = (avg / "phase_average.csv").read_text().splitlines()
        cells = first.split(",")  # no channel id of this record needs quotes
        cells[header.split(",").index(column)] = cell
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["gradient", "--mode-file", str(bad), "--use", use,
                     "--layout", str(two_tone_dir / "layout.csv"), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: non-finite {column} at data row 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["afile", "afile/sub"])
    @pytest.mark.parametrize("command", ["pipeline", "spectrum", "synth-room", "synth-analytic"])
    def test_out_dir_under_a_file_exit_2(self, command, below, two_tone_dir, tmp_path, capsys,
                                         monkeypatch):
        # mkdir raises FileExistsError on a file and NotADirectoryError below one,
        # and a generator is not run before it
        def generator(spec):
            pytest.fail("the generator ran before the output directory was made")

        monkeypatch.setattr(synth, "simulate_room", generator)
        monkeypatch.setattr(synth, "generate_analytic", generator)
        afile = tmp_path / "afile"
        afile.write_text("kept\n", encoding="utf-8")
        data = ["--snapshots", str(two_tone_dir / "snapshots.csv")]
        argv = {"pipeline": ["pipeline", *data, "--layout", str(two_tone_dir / "layout.csv")],
                "spectrum": ["spectrum", *data],
                "synth-room": ["synth-room"], "synth-analytic": ["synth-analytic"]}[command]
        out = afile / "sub" if below else afile
        assert main(argv + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(afile) in err
        assert afile.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("kind", ["snapshots", "layout", "sources"])
    def test_oversized_cell_exit_2(self, kind, two_tone_dir, tmp_path, capsys):
        bad = tmp_path / "big.csv"
        big = "1" * 200_000  # over the csv module's field size limit
        snapshots, layout = two_tone_dir / "snapshots.csv", two_tone_dir / "layout.csv"
        text = {"snapshots": f"time,a\n0,{big}\n60,1\n120,1\n",
                "layout": f"id,x,y\na,1,{big}\n",
                "sources": f"id,x,y,mode\nAC,1,{big},cool\n"}[kind]
        bad.write_text(text, encoding="utf-8")
        argv = {"snapshots": ["pipeline", "--snapshots", str(bad), "--layout", str(layout)],
                "layout": ["pipeline", "--snapshots", str(snapshots), "--layout", str(bad)],
                "sources": ["pipeline", "--snapshots", str(snapshots), "--layout", str(layout),
                            "--flux-sources", str(bad)]}[kind]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and "field larger than field limit" in err

    @pytest.mark.parametrize("command", ["pipeline", "gradient"])
    def test_channel_missing_from_layout_exit_2(self, command, two_tone_dir, tmp_path, capsys):
        layout = tmp_path / "layout.csv"
        layout.write_text("id,x,y\na,1,1\nb,2,1\nc,1,2\n", encoding="utf-8")
        data = tmp_path / "data.csv"
        if command == "pipeline":
            rows = [f"{60 * k},{k % 3},{k % 5},{k % 7},{k % 2}" for k in range(20)]
            data.write_text("time,a,b,c,zz\n" + "\n".join(rows) + "\n", encoding="utf-8")
            argv = ["pipeline", "--snapshots", str(data)]
        else:
            data.write_text("channel_id,sum_real,harmonic_re,harmonic_im\n"
                            "a,1,0,0\nzz,2,0,0\nb,3,0,0\nc,4,0,0\n", encoding="utf-8")
            argv = ["gradient", "--mode-file", str(data)]
        assert main(argv + ["--layout", str(layout), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(data) in err and str(layout) in err and "'zz'" in err


    @pytest.mark.parametrize("command", ["pipeline", "gradient"])
    def test_too_few_neighbors_exit_2(self, command, two_tone_dir, tmp_path, capsys):
        data = ["--layout", str(two_tone_dir / "layout.csv")]
        if command == "pipeline":
            argv = ["pipeline", "--snapshots", str(two_tone_dir / "snapshots.csv"), *data]
        else:
            avg = tmp_path / "avg"
            assert main(["phase-average", "--snapshots", str(two_tone_dir / "snapshots.csv"),
                         "--period-samples", "14", "--out-dir", str(avg)]) == 0
            argv = ["gradient", "--mode-file", str(avg / "phase_average.csv"), *data]
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(argv + ["--neighbors", "2", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: --neighbors 2 is below d + 1 = 3 "
                       "for a scattered layout in d = 2 dimensions\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "pipeline"])
    def test_top_below_one_exit_2(self, command, two_tone_dir, tmp_path, capsys):
        argv = [command, "--snapshots", str(two_tone_dir / "snapshots.csv")]
        if command == "pipeline":
            argv += ["--layout", str(two_tone_dir / "layout.csv")]
        out = tmp_path / "out"
        assert main(argv + ["--top", "0", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: --top must be >= 1, got 0\n"
        assert not out.exists()

    # 241 snapshots: a period of at most (241 - 1) // 2 = 120 samples
    @pytest.mark.parametrize("period", ["1", "121"])
    @pytest.mark.parametrize("command", ["phase-average", "pipeline"])
    def test_period_samples_out_of_range_exit_2(self, command, period, two_tone_dir, tmp_path,
                                                capsys, monkeypatch):
        argv = [command, "--snapshots", str(two_tone_dir / "snapshots.csv")]
        if command == "pipeline":
            argv += ["--layout", str(two_tone_dir / "layout.csv")]
            # the explicit period is refused before the fit
            monkeypatch.setattr(pipeline.spectral, "decompose",
                                lambda *a: pytest.fail("the fit ran before the period was refused"))
        out = tmp_path / "out"
        assert main(argv + ["--period-samples", period, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --period-samples must be in [2, 120], got {period}\n"
        assert not out.exists()

    def test_grid_layout_ignores_neighbors(self, tmp_path):
        layout = tmp_path / "grid.csv"
        rows = [f"G{r}{c},{0.875 + 1.75 * c},{0.7 + 1.4 * r}" for r in range(5) for c in range(8)]
        layout.write_text("# grid rows=5 cols=8 dx=1.75 dy=1.4\nid,x,y\n" + "\n".join(rows) + "\n",
                          encoding="utf-8")
        data = tmp_path / "data"
        assert main(["synth-analytic", "--layout", str(layout), "--out-dir", str(data)]) == 0
        assert main(["pipeline", "--snapshots", str(data / "snapshots.csv"), "--layout",
                     str(data / "layout.csv"), "--neighbors", "2",
                     "--out-dir", str(tmp_path / "out")]) == 0

    def test_sensors_closer_than_distance_underflow_exit_0(self, tmp_path):
        # (1e-170)**2 underflows to 0: the two stencils are invalid, the rest fit
        layout = tmp_path / "layout.csv"
        layout.write_text("id,x,y\nA,0,0\nB,1e-170,0\nC,3,1\nD,5,2\nE,7,4\nF,2,5\n"
                          "G,9,6\nH,12,3\n", encoding="utf-8")
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["synth-analytic", "--layout", str(layout), "--out-dir", str(data)]) == 0
        assert main(["pipeline", "--snapshots", str(data / "snapshots.csv"),
                     "--layout", str(data / "layout.csv"), "--out-dir", str(out)]) == 0
        with (out / "gradient.csv").open(newline="", encoding="utf-8") as fh:
            valid = {row["channel_id"]: row["valid"] for row in csv.DictReader(fh)}
        assert valid == {cid: "false" if cid in "AB" else "true" for cid in "ABCDEFGH"}


#: A small room (8 x 4 cells, 240 steps) with one heater that switches, for
#: config values drawn at random; ``{section: {key: value}}``.
SMALL_ROOM = {
    "room": {"width": 2.0, "depth": 1.0, "nx": 8, "ny": 4, "kappa": 0.001, "leak": 0.0005,
             "ambient": 28.0, "sim_dt": 0.5, "sample_dt": 10.0, "duration": 100.0,
             "warmup": 20.0, "seed": 3, "init_temperature": 25.0, "init_noise": 0.2},
    "ac.unit": {"x": 1.0, "y": 0.5, "mode": "heat", "power": 0.5, "on": 25.0, "off": 25.3},
}
ROOM_FLOAT_KEYS = [(section, key) for section, values in SMALL_ROOM.items()
                   for key, value in values.items() if isinstance(value, float)]


def room_ini(config) -> str:
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v!r}\n" if isinstance(v, float)
                                              else f"{k} = {v}\n" for k, v in values.items())
                   for section, values in config.items())


#: A 241-snapshot analytic spec with one plane-wave tone, for values drawn at
#: random; ``re im kx ky`` are the four numbers of its ``plane_wave`` line.
SMALL_ANALYTIC = {"dt": 60.0, "noise_std": 0.05, "period": 853.8, "phase": 0.3,
                  "re": 1.0, "im": -0.5, "kx": 0.3, "ky": 0.7}


def analytic_ini(values) -> str:
    """The spec ``values`` give; a ``poly`` entry takes the plane wave's place."""
    wave = "plane_wave = " + " ".join(repr(values[k]) for k in ("re", "im", "kx", "ky"))
    return (f"[analytic]\ndt = {values['dt']!r}\nsnapshots = 241\n"
            f"noise_std = {values['noise_std']!r}\n[tone.1]\nperiod = {values['period']!r}\n"
            f"phase = {values['phase']!r}\n"
            + (f"poly = {values['poly']}\n" if "poly" in values else wave + "\n"))


def exits_0_or_one_error_line(argv, named="") -> None:
    """``main(argv)`` exits 0, or 2 with one ``error: <named>`` line on stderr.

    On exit 0 every stderr line is a ``warning:`` line.  An argument that
    argparse refuses exits with SystemExit, whose code counts.
    """
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith(f"error: {named}")
    else:
        assert all(line.startswith("warning: ") for line in lines), lines


class TestConfigValues:
    """A config value out of range is a fault of the file: exit 2, one ``error:`` line."""

    @staticmethod
    def assert_exit_2(argv, path, key, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and key in err

    @pytest.mark.parametrize("key, value, named", [
        ("duration", "nan", "duration"), ("sim_dt", "nan", "sim_dt"),
        ("warmup", "inf", "warmup"), ("kappa", "nan", "kappa"),
        ("init_noise", "nan", "init_noise"), ("init_noise", "-1", "init_noise"),
        ("leak", "-inf", "leak"), ("ambient", "inf", "ambient"),
        # sample_dt / sim_dt overflows
        ("sim_dt", "5e-324", "sim_dt"),
        # warmup is not a whole number of 0.375 s steps
        ("warmup", "7200.1", "warmup"),
        # a whole number of steps, but about 2e24 of them: more than MAX_STEPS
        ("sim_dt", "1e-20", "sim_dt"),
        # the first [ac.*] section's fields
        ("power", "nan", "AC-1"), ("on", "nan", "AC-1"), ("x", "nan", "AC-1"),
    ])
    def test_room_value(self, key, value, named, tmp_path, capsys):
        text = files("thermokmd.configs").joinpath("room_default.ini").read_text("utf-8")
        bad = tmp_path / "room.ini"
        old = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
        bad.write_text(text.replace(old, f"{key} = {value}", 1), encoding="utf-8")
        argv = ["synth-room", "--config", str(bad), "--out-dir", str(tmp_path / "out")]
        self.assert_exit_2(argv, bad, named, capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("noise_std", "nan"), ("dt", "inf"), ("period", "inf"), ("phase", "nan"),
        # twice dt is below the period, but the last time, 240 * dt, overflows
        ("dt", "1e306"),
        # over MAX_VALUES: a count past a double's range, and one a double holds
        # that no machine could allocate
        pytest.param("snapshots", "1" + "0" * 400, id="snapshots-1e400"),
        ("snapshots", "1000000000000000")])
    def test_analytic_value(self, key, value, tmp_path, capsys):
        bad = tmp_path / "analytic.ini"
        fields = {"dt": "60.0", "snapshots": "241", "noise_std": "0.05", "period": "1e307",
                  "phase": "0.0", key: value}
        bad.write_text("[analytic]\n"
                       f"dt = {fields['dt']}\nsnapshots = {fields['snapshots']}\n"
                       f"noise_std = {fields['noise_std']}\n"
                       f"[tone.1]\nperiod = {fields['period']}\nphase = {fields['phase']}\n"
                       "poly = 0 0 1.0\n", encoding="utf-8")
        argv = ["synth-analytic", "--config", str(bad), "--out-dir", str(tmp_path / "out")]
        self.assert_exit_2(argv, bad, key, capsys)

    @settings(max_examples=80, deadline=None)
    @given(field=st.sampled_from(ROOM_FLOAT_KEYS), value=st.floats())
    @example(field=("room", "init_noise"), value=1e308)  # the field overflows
    @example(field=("room", "duration"), value=10.0)  # two snapshots
    def test_any_room_value(self, field, value):
        section, key = field
        config = {name: dict(values) for name, values in SMALL_ROOM.items()}
        config[section][key] = value
        room = config["room"]
        # A valid value that asks for a long run is slow, not wrong: keep each
        # example to a few thousand steps.  A step count above MAX_STEPS, or one
        # that is negative, NaN or infinite, still runs (the config is refused).
        sim_dt = room["sim_dt"]
        steps = (room["warmup"] + room["duration"]) / sim_dt if sim_dt else math.nan
        assume(not 5000 < steps <= MAX_STEPS)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "room.ini"
            path.write_text(room_ini(config), encoding="utf-8")
            (Path(tmp) / "layout.csv").write_text("id,x,y\ns,1.0,0.5\n", encoding="utf-8")
            # every fault names the config, or the layout with it
            exits_0_or_one_error_line(["synth-room", "--config", str(path), "--layout",
                                       str(Path(tmp) / "layout.csv"),
                                       "--out-dir", str(Path(tmp) / "out")],
                                      named=os.path.join(tmp, ""))

    @settings(max_examples=80, deadline=None)
    @given(key=st.sampled_from(list(SMALL_ANALYTIC)), value=st.floats())
    @example(key="poly", value="400 0 1.0")  # x**400 overflows
    @example(key="poly", value="0 0 1e308 1e308")  # 2 Re[A lam^k] overflows
    def test_any_analytic_value(self, key, value):
        # every fault, even values that overflow as they are generated, names the config
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "analytic.ini"
            path.write_text(analytic_ini({**SMALL_ANALYTIC, key: value}), encoding="utf-8")
            exits_0_or_one_error_line(["synth-analytic", "--config", str(path),
                                       "--out-dir", str(Path(tmp) / "out")], named=f"{path}: ")

    @pytest.mark.parametrize("command, text, message", [
        ("synth-room", "[room]\nwidth = 14.0\ndepth\n",
         "line 3: neither a [section] header nor 'key = value'"),
        ("synth-room", "width = 14.0\n[room]\n", "line 1: text before the first [section] header"),
        ("synth-room", "[room]\nwidth = 14.0\nwidth = 7.0\n",
         "line 3: key 'width' appears twice in [room]"),
        ("synth-analytic", "[analytic]\ndt = 60.0\n[analytic]\n",
         "line 3: section [analytic] appears twice"),
        ("synth-room", None, "cannot read room config"),
        ("synth-analytic", None, "cannot read analytic config"),
    ], ids=["no-equals", "no-section", "repeated-key", "repeated-section", "missing-room",
            "missing-analytic"])
    def test_malformed_config_exit_2(self, command, text, message, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()


class TestPhaseAverageAndGradient:
    def test_chain(self, tmp_path):
        data = single_tone_dir(tmp_path)
        pa_dir = tmp_path / "pa"
        assert main(["phase-average", "--snapshots", str(data / "snapshots.csv"),
                     "--period-samples", "14", "--out-dir", str(pa_dir)]) == 0
        grad_dir = tmp_path / "grad"
        assert main(["gradient", "--mode-file", str(pa_dir / "phase_average.csv"),
                     "--layout", str(data / "layout.csv"),
                     "--out-dir", str(grad_dir)]) == 0
        assert (grad_dir / "gradient.svg").exists()
        assert not (grad_dir / "rms_gradient.csv").exists()
        # the injected amplitude is affine, so the gradient is constant
        rows = (grad_dir / "gradient.csv").read_text().splitlines()[1:]
        gx = np.array([float(r.split(",")[3]) for r in rows])
        gy = np.array([float(r.split(",")[4]) for r in rows])
        assert np.ptp(gx) <= 1e-9 and np.ptp(gy) <= 1e-9

    def test_harmonic_use_writes_rms(self, tmp_path):
        data = single_tone_dir(tmp_path, period=840.0)  # exactly 14 samples
        pa_dir = tmp_path / "pa"
        main(["phase-average", "--snapshots", str(data / "snapshots.csv"),
              "--period-samples", "14", "--out-dir", str(pa_dir)])
        grad_dir = tmp_path / "grad"
        assert main(["gradient", "--mode-file", str(pa_dir / "phase_average.csv"),
                     "--layout", str(data / "layout.csv"), "--use", "harmonic",
                     "--out-dir", str(grad_dir)]) == 0
        rms = (grad_dir / "rms_gradient.csv").read_text().splitlines()
        assert rms[0] == "channel_id,x,y,rms_gx,rms_gy,valid"
        # the injected amplitude is affine: rms x-component is sqrt(2)|0.15+0.1i|
        first = rms[1].split(",")
        assert float(first[3]) == pytest.approx(np.sqrt(2) * abs(0.15 + 0.1j), rel=1e-6)

    def test_keep_mean_warning_is_one_line(self, two_tone_dir, tmp_path, capsys):
        # the record's tones leave a channel mean that --keep-mean keeps
        assert main(["phase-average", "--snapshots", str(two_tone_dir / "snapshots.csv"),
                     "--period-samples", "14", "--keep-mean",
                     "--out-dir", str(tmp_path / "pa")]) == 0
        assert capsys.readouterr().err == (
            "warning: input does not look mean-removed (channel 'TH-20' has |mean| = 0.0614); "
            "the average will absorb the bias\n")


class TestWarningLines:
    """Each note the library logs during a command is one ``warning:`` line on stderr."""

    def test_pipeline_bias_note(self, tmp_path, capsys):
        # 1e10 plus a tone of about 1e-3: mean removal leaves a residue of about
        # 1e-6, which the bias check of the phase average still flags.  That
        # note is a false positive (the residue is the round-off of subtracting
        # 1e10, not a bias the pipeline left in); it is used here only because
        # it is the one note pipeline can log.  A bias check that tells
        # round-off from bias stops it, and this test then needs another note.
        k = np.arange(241)
        tones = [1e-3 * (1 + j / 4) * np.cos(2 * np.pi * (k + j) / 12) for j in range(7)]
        ids = tuple(f"F{j}" for j in range(7))
        write_snapshots(SnapshotMatrix(1e10 + np.array(tones), 60.0, 0.0, ids),
                        tmp_path / "snapshots.csv")
        angles = 2 * np.pi * np.arange(7) / 7
        write_layout(SensorLayout(ids, np.column_stack([7 + 3 * np.cos(angles),
                                                        3.5 + 2 * np.sin(angles)])),
                     tmp_path / "layout.csv")
        assert main(["pipeline", "--snapshots", str(tmp_path / "snapshots.csv"),
                     "--layout", str(tmp_path / "layout.csv"),
                     "--out-dir", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: input does not look mean-removed (channel ")
        saved = json.loads((tmp_path / "out" / "phase_average.json").read_text())
        assert saved["warnings"] == [err[0].removeprefix("warning: ")]

    def test_logged_notes_once_per_call(self, two_tone_dir, tmp_path, monkeypatch, capsys):
        # with a negative match tolerance no conjugates pair, so the fit logs
        # one unpaired note per complex eigenvalue
        monkeypatch.setattr(spectral, "CONJUGATE_MATCH_RTOL", -1.0)
        for run in ("first", "second"):
            out = tmp_path / run
            assert main(["spectrum", "--snapshots", str(two_tone_dir / "snapshots.csv"),
                         "--remove-mean", "--out-dir", str(out)]) == 0
            notes = json.loads((out / "modes.json").read_text())["notes"]
            unpaired = [note for note in notes if note.startswith("unpaired complex")]
            assert unpaired, run
            assert capsys.readouterr().err.splitlines() == [f"warning: {n}" for n in unpaired]


class TestQuotedIds:
    """Ids with a comma, a quote, a backslash and SVG escapes survive every CSV artifact."""

    IDS = ["a,b", 'q"x', "Sü\\1", "h&<>", *(f"S{k:02d}" for k in range(5, 21))]
    SOURCES = ["AC,1", "AC,2"]

    @staticmethod
    def write_rows(path, rows):
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)

    @staticmethod
    def read_rows(path):
        with path.open(newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def check(self, path, id_column, ids, text_columns=()):
        rows = self.read_rows(path)
        assert [row[id_column] for row in rows] == ids
        for row in rows:
            assert None not in row and None not in row.values()
            for column, cell in row.items():
                if column != id_column and column not in text_columns:
                    float(cell)

    def test_end_to_end(self, tmp_path):
        layout = tmp_path / "layout.csv"
        # 4 rows of 5 sensors, each row shifted so the points form no grid
        self.write_rows(layout, [["id", "x", "y"], *(
            [cid, 1.0 + 3.0 * (k % 5) + 0.2 * (k // 5), 1.0 + 1.5 * (k // 5)]
            for k, cid in enumerate(self.IDS))])
        sources = tmp_path / "sources.csv"
        self.write_rows(sources, [["id", "x", "y", "mode"], [self.SOURCES[0], 4.0, 2.5, "cool"],
                                  [self.SOURCES[1], 10.0, 4.0, "heat"]])
        data, run, grad = tmp_path / "data", tmp_path / "run", tmp_path / "grad"
        assert main(["synth-analytic", "--layout", str(layout), "--out-dir", str(data)]) == 0
        assert main(["pipeline", "--snapshots", str(data / "snapshots.csv"),
                     "--layout", str(data / "layout.csv"), "--flux-sources", str(sources),
                     "--out-dir", str(run)]) == 0
        assert main(["gradient", "--mode-file", str(run / "phase_average.csv"),
                     "--layout", str(data / "layout.csv"), "--out-dir", str(grad)]) == 0
        self.check(run / "phase_average.csv", "channel_id", self.IDS)
        self.check(run / "flux_scores.csv", "source_id", self.SOURCES)
        for out in (run, grad):
            self.check(out / "gradient.csv", "channel_id", self.IDS, ("valid", "method"))


#: numpy's overflow warning from squaring the unscaled record escapes the library
MEAN_OFFSET_OVERFLOWS = ("timeseries.mean_offset squares the unscaled record, in "
                         "spectral.decompose and in phaseavg.phase_average, and numpy's "
                         "overflow RuntimeWarning escapes the library")

#: how far a rung's answers may stray from scale 1's times the scale, relative
#: to the largest component; a factor such as 1e200 is not a power of two, so
#: the scaled record rounds differently and the match is not bit-exact
LADDER_RTOL = 1e-12


def scaled_wave(scale):
    """(record, layout): 4 sensors, 60 snapshots of scale * (1 + 0.5 cos(2 pi k / 12 + j))."""
    ids = ("A", "B", "C", "D")
    wave = 1 + 0.5 * np.cos(2 * np.pi * np.arange(60) / 12 + np.arange(4)[:, None])
    layout = SensorLayout(ids, np.array([[2.0, 1.5], [11.0, 2.0], [4.0, 5.5], [10.5, 6.0]]))
    return SnapshotMatrix(scale * wave, 60.0, 0.0, ids), layout


@functools.cache
def ladder_answers(scale, method, source):
    """(period in samples, dominant mode, gradient rows) of ``pipeline.run`` on :func:`scaled_wave`.

    The mode is read from ``modes.json`` and the gradient from ``gradient.csv``.
    """
    files, metadata = pipeline.run(*scaled_wave(scale), method=method, gradient_source=source)
    dominant = next(e for e in json.loads(files["modes.json"])["modes"] if not e["bias_flag"])
    mode = np.array([complex(c["re"], c["im"]) for c in dominant["mode"]])
    rows = list(csv.DictReader(io.StringIO(files["gradient.csv"])))
    columns = [name for name in rows[0] if name.startswith("g")]
    grad = np.array([[float(row[name]) for name in columns] for row in rows])
    return metadata["parameters"]["period_samples"], mode, grad


class TestPipeline:
    def test_auto_equals_explicit_rounding(self, tmp_path):
        # tone of 841 s = 14.02 samples: the auto rule rounds to 14
        data = single_tone_dir(tmp_path, period=841.0)
        out_auto = tmp_path / "auto"
        out_explicit = tmp_path / "explicit"
        base = ["pipeline", "--snapshots", str(data / "snapshots.csv"),
                "--layout", str(data / "layout.csv")]
        assert main(base + ["--out-dir", str(out_auto)]) == 0
        assert main(base + ["--out-dir", str(out_explicit),
                            "--period-samples", "14"]) == 0
        for name in ["phase_average.csv", "gradient.csv", "modes.csv"]:
            assert (out_auto / name).read_bytes() == (out_explicit / name).read_bytes()
        meta = json.loads((out_auto / "run_metadata.json").read_text())
        assert meta["parameters"]["period_samples"] == 14
        assert meta["parameters"]["period_selection"] == "auto"

    def test_dmd_mode_source_writes_complex_artifacts(self, tmp_path):
        data = single_tone_dir(tmp_path)
        out = tmp_path / "out"
        assert main(["pipeline", "--snapshots", str(data / "snapshots.csv"),
                     "--layout", str(data / "layout.csv"),
                     "--gradient-source", "dmd_mode",
                     "--out-dir", str(out)]) == 0
        header = (out / "gradient.csv").read_text().splitlines()[0]
        assert header == "channel_id,x,y,gx_re,gy_re,gx_im,gy_im,valid,method"
        assert (out / "rms_gradient.csv").exists()

    def test_metadata_records_decisions(self, tmp_path):
        data = single_tone_dir(tmp_path)
        out = tmp_path / "out"
        main(["pipeline", "--snapshots", str(data / "snapshots.csv"),
              "--layout", str(data / "layout.csv"), "--out-dir", str(out)])
        meta = json.loads((out / "run_metadata.json").read_text())
        params = meta["parameters"]
        for key in ["period_samples", "neighbors", "rank_rcond", "bias_threshold_rad",
                    "mean_removed", "gradient_source", "zero_mode_rtol"]:
            assert key in params
        assert meta["inputs"]["snapshots"]["sha256"]
        assert meta["dominant_mode"]["couple"] == [1, 2]

    def test_outputs_lists_only_this_run(self, tmp_path):
        # a dmd_mode run leaves rms_gradient.csv behind; the next run did not write it
        data = single_tone_dir(tmp_path)
        out = tmp_path / "out"
        base = ["pipeline", "--snapshots", str(data / "snapshots.csv"),
                "--layout", str(data / "layout.csv"), "--out-dir", str(out)]
        assert main(base + ["--gradient-source", "dmd_mode"]) == 0
        assert main(base) == 0
        assert (out / "rms_gradient.csv").exists()
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["outputs"] == ["gradient.csv", "gradient.svg", "modes.csv", "modes.json",
                                   "phase_average.csv", "phase_average.json"]

    def test_byte_determinism(self, tmp_path):
        data = single_tone_dir(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["pipeline", "--snapshots", str(data / "snapshots.csv"),
                         "--layout", str(data / "layout.csv"),
                         "--out-dir", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            if name.endswith((".csv", ".json")):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @staticmethod
    def trend_dir(tmp_path):
        """A 4-channel linear trend with no oscillation on a scattered layout."""
        rows = [f"{60 * k},{20 + 0.01 * k},{21 + 0.02 * k},{22 - 0.015 * k},{19 + 0.005 * k}"
                for k in range(40)]
        (tmp_path / "snapshots.csv").write_text("time,a,b,c,d\n" + "\n".join(rows) + "\n",
                                                encoding="utf-8")
        (tmp_path / "layout.csv").write_text("id,x,y\na,0,0\nb,3,0.5\nc,1,2\nd,2.5,3\n",
                                             encoding="utf-8")
        return tmp_path

    @pytest.mark.parametrize("earlier_run", [False, True], ids=["fresh", "earlier-run"])
    @pytest.mark.parametrize("extra", [[], ["--period-samples", "5", "--gradient-source",
                                            "dmd_mode"]], ids=["auto", "explicit-dmd"])
    def test_failed_run_leaves_out_dir_as_found(self, extra, earlier_run, two_tone_dir,
                                                tmp_path, capsys):
        # the trend fails after the fit: no period (auto) or no mode to differentiate
        data, out = self.trend_dir(tmp_path), tmp_path / "out"
        if earlier_run:
            assert main(["pipeline", "--snapshots", str(two_tone_dir / "snapshots.csv"),
                         "--layout", str(two_tone_dir / "layout.csv"),
                         "--gradient-source", "dmd_mode", "--out-dir", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()} if earlier_run else None
        capsys.readouterr()
        assert main(["pipeline", "--snapshots", str(data / "snapshots.csv"),
                     "--layout", str(data / "layout.csv"), "--neighbors", "3", *extra,
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("cannot select a period automatically" in err) == (not extra)
        if earlier_run:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        else:
            assert not out.exists()

    def test_library_run_returns_the_written_texts(self, two_tone_dir, tmp_path):
        snapshots, layout = two_tone_dir / "snapshots.csv", two_tone_dir / "layout.csv"
        sources = tmp_path / "sources.csv"
        sources.write_text("id,x,y,mode\nAC-1,4.0,2.5,cool\nAC-2,10.0,4.0,heat\n",
                           encoding="utf-8")
        out = tmp_path / "out"
        assert main(["pipeline", "--snapshots", str(snapshots), "--layout", str(layout),
                     "--flux-sources", str(sources), "--out-dir", str(out)]) == 0
        record = thermokmd.load_snapshots(snapshots)
        files, metadata = pipeline.run(
            record, thermokmd.load_layout(layout).reordered_to(record.channel_ids),
            load_sources_csv(sources), inputs={"snapshots": snapshots, "layout": layout})
        assert {p.name: p.read_bytes().decode("utf-8") for p in out.iterdir()} == files
        assert json.loads(files["run_metadata.json"]) == metadata
        assert sorted(metadata["flux_scores"]) == ["AC-1", "AC-2"]

    @pytest.mark.parametrize("scale", [
        1e-200,
        1.0,
        pytest.param(1e200, marks=pytest.mark.xfail(raises=RuntimeWarning, strict=True,
                                                    reason=MEAN_OFFSET_OVERFLOWS)),
    ])
    def test_period_at_any_scale(self, scale):
        _, metadata = pipeline.run(*scaled_wave(scale))
        assert metadata["parameters"]["period_samples"] == 12

    @pytest.mark.parametrize("source", ["phase_average", "dmd_mode"])
    @pytest.mark.parametrize("method", spectral.METHODS)
    @pytest.mark.parametrize("scale", [
        1e-300,
        1e-200,
        pytest.param(1e200, marks=pytest.mark.xfail(raises=RuntimeWarning, strict=True,
                                                    reason=MEAN_OFFSET_OVERFLOWS)),
        pytest.param(1e300, marks=pytest.mark.xfail(raises=RuntimeWarning, strict=True,
                                                    reason=MEAN_OFFSET_OVERFLOWS)),
    ])
    def test_scale_ladder(self, scale, method, source):
        # the answers scale with the record: the dominant mode and the gradient
        # are scale 1's times the scale, to LADDER_RTOL of their largest
        # component (measured: 3.6e-14 at most, companion's dmd_mode at 1e-300)
        want = ladder_answers(1.0, method, source)
        got = ladder_answers(scale, method, source)
        assert got[0] == want[0] == 12
        for x, x1 in zip(got[1:], want[1:]):
            assert np.abs(x / scale - x1).max() <= LADDER_RTOL * np.abs(x1).max()

    @pytest.mark.parametrize("method", ["hankel", "companion"])
    def test_method_recorded(self, method, two_tone_dir, tmp_path):
        out, spec = tmp_path / "out", tmp_path / "spec"
        assert main(["pipeline", "--snapshots", str(two_tone_dir / "snapshots.csv"),
                     "--layout", str(two_tone_dir / "layout.csv"), "--method", method,
                     "--out-dir", str(out)]) == 0
        assert main(["spectrum", "--snapshots", str(two_tone_dir / "snapshots.csv"),
                     "--remove-mean", "--method", method, "--out-dir", str(spec)]) == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["parameters"]["method"] == method
        decomposition = meta["decomposition"]
        modes = json.loads((out / "modes.json").read_text())
        assert decomposition["residual"] == modes["residual"]
        assert "companion_residual" not in meta
        assert meta["dominant_mode"]["period_seconds"] == pytest.approx(853.8, rel=1e-4)
        notes = json.loads((spec / "modes.json").read_text())["notes"]
        assert (spec / "modes.json").read_bytes() == (out / "modes.json").read_bytes()
        if method == "hankel":
            assert decomposition["amplitudes"] == "projected_initial_condition"
            assert decomposition["rank_limit"] in ("gavish_donoho", "rank_rcond")
            assert notes[0] == (f"hankel dmd: q={decomposition['delays']} delays, rank "
                                f"r={decomposition['rank']} ({decomposition['rank_limit']})")
        else:
            assert not any(n.startswith("hankel") for n in notes)

    def test_default_method_is_hankel(self, two_tone_dir, tmp_path):
        base = ["pipeline", "--snapshots", str(two_tone_dir / "snapshots.csv"),
                "--layout", str(two_tone_dir / "layout.csv")]
        assert main(base + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(base + ["--method", "hankel", "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("modes.json", "run_metadata.json", "gradient.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("command", ["spectrum", "pipeline"])
    def test_unknown_method_exit_2(self, command, two_tone_dir, tmp_path, capsys):
        argv = [command, "--snapshots", str(two_tone_dir / "snapshots.csv"),
                "--method", "dft", "--out-dir", str(tmp_path / "out")]
        if command == "pipeline":
            argv += ["--layout", str(two_tone_dir / "layout.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'dft'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @settings(max_examples=50, deadline=None)
    @given(option=st.sampled_from(["--neighbors", "--method"]), value=st.text())
    @example(option="--method", value="bogus")
    @example(option="--method", value="companion")
    @example(option="--neighbors", value="1e3")
    @example(option="--neighbors", value="-1")  # below d + 1
    @example(option="--neighbors", value=" 10000000000000000000000 ")  # above the sensor count
    @example(option="--neighbors", value="--out-dir")  # no value
    def test_any_argument(self, option, value, two_tone_dir):
        with tempfile.TemporaryDirectory() as tmp:
            exits_0_or_one_error_line(["pipeline", "--snapshots",
                                       str(two_tone_dir / "snapshots.csv"), "--layout",
                                       str(two_tone_dir / "layout.csv"), option, value,
                                       "--out-dir", str(Path(tmp) / "out")])

    @pytest.mark.parametrize("dt", ["1e307", "1.7e308"])
    def test_period_past_a_double_exit_1(self, dt, two_tone_dir, tmp_path, capsys):
        # 2 pi dt / |arg(lam)| overflows: a numerical failure, and nothing is written
        code = main(["pipeline", "--snapshots", str(two_tone_dir / "snapshots.csv"),
                     "--layout", str(two_tone_dir / "layout.csv"), "--dt-override", dt,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "out of the range of a double" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["hankel", "companion"])
    def test_zero_after_mean_removal_exit_1(self, method, tmp_path, capsys):
        (tmp_path / "snapshots.csv").write_text(
            "time,a,b\n" + "".join(f"{60 * k},25.0,26.0\n" for k in range(6)))
        (tmp_path / "layout.csv").write_text("id,x,y\na,1.0,1.0\nb,2.0,1.5\n")
        code = main(["pipeline", "--snapshots", str(tmp_path / "snapshots.csv"),
                     "--layout", str(tmp_path / "layout.csv"), "--method", method,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "rank 0" in err[0]

    @pytest.mark.parametrize("command", ["pipeline", "spectrum"])
    def test_fit_solve_failure_exit_1(self, command, failing_solve, two_tone_dir, tmp_path,
                                      capsys):
        method, step = failing_solve
        argv = [command, "--snapshots", str(two_tone_dir / "snapshots.csv"),
                "--method", method, "--out-dir", str(tmp_path / "out")]
        if command == "pipeline":
            argv += ["--layout", str(two_tone_dir / "layout.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {step} failed: injected failure\n"
        assert not (tmp_path / "out").exists()

    def test_numpy_ma_never_loaded(self, tmp_path):
        # np.median, np.percentile, np.unique and np.ma import numpy.ma, which no
        # step here needs; its import took about a quarter of the default room's
        # pipeline time.  Both generators and both pipeline paths run.
        code = ("import sys\n"
                "from thermokmd.cli import main\n"
                "assert main(['synth-analytic', '--out-dir', 'a']) == 0\n"
                "assert main(['pipeline', '--snapshots', 'a/snapshots.csv', "
                "'--layout', 'a/layout.csv', '--out-dir', 'p']) == 0\n"
                "assert main(['synth-room', '--out-dir', 'r']) == 0\n"
                "assert main(['pipeline', '--snapshots', 'r/snapshots.csv', "
                "'--layout', 'r/layout.csv', '--flux-sources', 'r/sources.csv', "
                "'--out-dir', 'q']) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(thermokmd.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        assert run.stdout.splitlines()[-1] == "False"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
