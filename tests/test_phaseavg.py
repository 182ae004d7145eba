import json
import logging

import numpy as np
import pytest

from thermokmd.errors import PeriodError
from thermokmd.phaseavg import (
    PhaseAverageResult,
    harmonic_amplitude,
    phase_average,
    result_to_csv,
    result_to_json,
)
from thermokmd.spectral import companion_kmd
from thermokmd.timeseries import SnapshotMatrix

from oracles import _result_to_json_dumps


def record(values, dt=60.0):
    values = np.asarray(values, dtype=float)
    ids = tuple(f"ch{i}" for i in range(values.shape[0]))
    return SnapshotMatrix(values, dt, 0.0, ids)


def tone(periods_fn, n, v):
    k = np.arange(n)
    return periods_fn(k)[None, :] * np.asarray(v, float)[:, None]


def logged_notes(caplog) -> list[str]:
    """The warnings logged on ``thermokmd.phaseavg`` during the test."""
    return [r.getMessage() for r in caplog.records
            if r.name == "thermokmd.phaseavg" and r.levelno == logging.WARNING]


class TestPhaseAverage:
    def test_resonant_tone_recovered_exactly(self):
        # every strided sample y_{14k} equals 2v: the average is exact
        v = np.array([1.0, -2.0, 0.5])
        s = record(tone(lambda k: 2 * np.cos(2 * np.pi * k / 14), 239, v))
        res = phase_average(s, 14)
        assert res.cycles_used == 18
        assert np.max(np.abs(res.sum_real - 2 * v)) <= 1e-12

    def test_subharmonic_survives(self):
        # a period-7 tone satisfies exp(i 2 pi 14 / 7) = 1 and is NOT removed
        v = np.array([1.0, 3.0])
        s = record(tone(lambda k: np.cos(2 * np.pi * k / 7), 239, v))
        res = phase_average(s, 14)
        assert res.cycles_used % 2 == 0
        assert np.max(np.abs(res.sum_real - v)) <= 1e-12

    def test_incommensurate_tone_annihilated(self):
        # stride 14 against period 5 over Q = 10: P*Q = 140 is a whole number
        # of the tone's cycles while P alone is not, so the strided geometric
        # sum vanishes
        v = np.array([2.0, -1.0])
        s = record(tone(lambda k: np.cos(2 * np.pi * k / 5), 140, v))
        res = phase_average(s, 14)
        assert res.cycles_used == 10
        ratio = np.exp(2j * np.pi * 14 / 5)
        oracle = np.real(sum(ratio**q for q in range(10))) / 10
        assert abs(oracle) <= 1e-12
        assert np.max(np.abs(res.sum_real)) <= 1e-12

    def test_period_out_of_range(self):
        s = record(np.zeros((1, 41)) + np.sin(np.arange(41))[None, :])
        with pytest.raises(PeriodError):
            phase_average(s, 1)
        with pytest.raises(PeriodError):
            phase_average(s, 21)  # > (N-1)//2 = 20

    def test_bias_warning_attached(self, caplog):
        s = record(5.0 + tone(lambda k: np.cos(2 * np.pi * k / 10), 100, [1.0]))
        res = phase_average(s, 10)
        assert res.warnings
        assert "mean" in res.warnings[0]
        assert logged_notes(caplog) == list(res.warnings)

    def test_mean_free_input_is_quiet(self, caplog):
        k = np.arange(140)
        s = record(np.cos(2 * np.pi * k / 10)[None, :] * np.array([[1.0]]))
        res = phase_average(s, 10)
        assert not res.warnings
        assert not caplog.records

    def test_linearity(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 100))
        b = rng.normal(size=(3, 100))
        a -= a.mean(axis=1, keepdims=True)
        b -= b.mean(axis=1, keepdims=True)
        alpha, beta = 1.7, -0.4
        combined = phase_average(record(alpha * a + beta * b), 9)
        pa = phase_average(record(a), 9)
        pb = phase_average(record(b), 9)
        expect = alpha * pa.sum_real + beta * pb.sum_real
        assert np.max(np.abs(combined.sum_real - expect)) <= 1e-14 * max(
            1.0, np.max(np.abs(expect))
        )


class TestHarmonicAmplitude:
    def test_cosine_tone(self):
        v = np.array([1.0, -0.25, 3.0])
        s = record(tone(lambda k: 2 * np.cos(2 * np.pi * k / 14), 239, v))
        amp = harmonic_amplitude(s, 14)
        # orthogonality over 238 = 17 whole cycles
        assert np.max(np.abs(amp - v)) <= 1e-12
        # a constant offset sums to zero over whole cycles: same coefficient
        shifted = harmonic_amplitude(record(s.values + 5.0), 14)
        assert np.max(np.abs(shifted - v)) <= 1e-12

    def test_sine_tone(self):
        v = np.array([1.0, 2.0])
        s = record(tone(lambda k: 2 * np.sin(2 * np.pi * k / 14), 239, v))
        amp = harmonic_amplitude(s, 14)
        # direct-summation oracle of the projection definition
        k = np.arange(238)
        oracle = (2 * np.sin(2 * np.pi * k / 14) * np.exp(-2j * np.pi * k / 14)).sum() / 238
        assert abs(oracle - (-1j)) <= 1e-12
        assert np.max(np.abs(amp - (-1j) * v)) <= 1e-12

    def test_zero_signal(self):
        s = record(np.zeros((2, 50)))
        assert np.max(np.abs(harmonic_amplitude(s, 10))) == 0.0

    def test_needs_two_cycles(self):
        s = record(np.sin(np.arange(20))[None, :])
        with pytest.raises(PeriodError):
            harmonic_amplitude(s, 14)

    def test_phase_recovery_complex_amplitude(self):
        a0 = np.array([0.7 - 0.2j, -0.1 + 1.1j])
        k = np.arange(140)
        vals = 2 * np.real(a0[:, None] * np.exp(2j * np.pi * k / 14)[None, :])
        amp = harmonic_amplitude(record(vals), 14)
        assert np.max(np.abs(amp - a0)) <= 1e-12


class TestConsistencyWithSpectral:
    def test_single_tone_three_estimators_agree(self):
        rng = np.random.default_rng(13)
        m = 5
        a0 = rng.normal(size=m) + 1j * rng.normal(size=m)
        k = np.arange(239)
        vals = 2 * np.real(a0[:, None] * np.exp(2j * np.pi * k / 14)[None, :])
        s = record(vals)
        res = phase_average(s, 14)
        assert np.linalg.norm(2 * np.real(res.harmonic) - res.sum_real) <= 1e-9 * np.linalg.norm(
            res.sum_real
        )
        table = companion_kmd(s)
        entry = min(
            (e for e in table.ranked() if e.is_couple),
            key=lambda e: abs(e.rep.lam - np.exp(2j * np.pi / 14)),
        )
        pair_sum = np.real(entry.rep.mode + entry.partner.mode)
        assert np.linalg.norm(pair_sum - res.sum_real) <= 1e-6 * np.linalg.norm(res.sum_real)


class TestSerialization:
    def test_csv_and_json(self):
        v = np.array([1.0, -2.0])
        s = record(tone(lambda k: 2 * np.cos(2 * np.pi * k / 10), 101, v))
        res = phase_average(s, 10)
        csv_text = result_to_csv(res)
        lines = csv_text.splitlines()
        assert lines[0] == "channel_id,sum_real,harmonic_re,harmonic_im"
        assert len(lines) == 3
        payload = json.loads(result_to_json(res))
        assert payload["period_samples"] == 10
        assert payload["cycles_used"] == res.cycles_used
        assert len(payload["channels"]) == 2


class TestJsonBytes:
    """result_to_json is byte-identical to the reference json.dumps writer."""

    def result(self, ids, sum_real, harmonic, warnings=()):
        return PhaseAverageResult(period_samples=12, cycles_used=5, sum_real=sum_real,
                                  harmonic=harmonic, dt=30.0, channel_ids=ids,
                                  warnings=warnings)

    def test_phase_average_of_a_record(self, caplog):
        rng = np.random.default_rng(4)
        v = rng.normal(size=40)
        s = record(tone(lambda k: 2 * np.cos(2 * np.pi * k / 12), 121, v)
                   + 0.01 * rng.normal(size=(40, 121)) + 0.5)
        res = phase_average(s, 12)
        assert res.warnings
        assert logged_notes(caplog) == list(res.warnings)
        assert result_to_json(res) == _result_to_json_dumps(res)

    def test_ids_json_escapes(self):
        ids = ('q"uote', "back\\slash", "tab\tbell\x07", "caf\u00e9 \u2103", "\U0001f321",
               "nan", "inf", "-inf", "Infinity", "nan inf", '"channels": []', "")
        n = len(ids)
        res = self.result(ids, np.linspace(-1.0, 1.0, n), np.arange(n) * (0.5 - 1.25j),
                          warnings=('channel "nan" has "channels": []',))
        text = result_to_json(res)
        assert text == _result_to_json_dumps(res)
        assert [c["channel_id"] for c in json.loads(text)["channels"]] == list(ids)

    def test_non_finite_and_signed_zero_values(self):
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308]
        harmonic = np.array(specials, dtype=complex)
        harmonic.imag = specials[::-1]
        res = self.result(("nan", "inf", "a", "b", "c", "d", "e"),
                          [-0.0, 0.0, 1e-300, -1e300, 2.5, 3.0, 0.1], harmonic)
        text = result_to_json(res)
        assert text == _result_to_json_dumps(res)
        assert "NaN" in text and "-Infinity" in text and '"nan"' in text
        # a non-finite stride average is refused before it can be written
        with pytest.raises(PeriodError, match="non-finite"):
            self.result(("a",), [np.nan], [0j])

    def test_no_channels(self):
        res = self.result((), np.zeros(0), np.zeros(0, dtype=complex))
        text = result_to_json(res)
        assert text == _result_to_json_dumps(res)
        assert json.loads(text)["channels"] == []
