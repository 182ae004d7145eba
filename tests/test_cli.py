import json
from importlib.resources import files

import numpy as np
import pytest

from thermokmd.cli import main
from thermokmd.synth import (
    AnalyticSpec,
    PolynomialField,
    Tone,
    default_layout,
    generate_analytic,
)
from thermokmd.timeseries import write_layout, write_snapshots


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
        out = tmp_path / "out"
        code = main(["spectrum", "--snapshots", str(snaps), "--out-dir", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
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

    @pytest.mark.parametrize("field", ["width", "poly", "x", "sum_real"])
    def test_non_numeric_field_exit_2(self, field, two_tone_dir, tmp_path, capsys):
        bad = tmp_path / "bad_input"
        data = ["--layout", str(two_tone_dir / "layout.csv")]
        room_ini = files("thermokmd.configs").joinpath("room_default.ini").read_text("utf-8")
        text, argv = {
            "width": (room_ini.replace("width = 14.0", "width = foo"),
                      ["synth-room", "--config", str(bad)]),
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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
