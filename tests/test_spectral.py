import inspect
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from thermokmd import timeseries
from thermokmd.errors import ArgumentError, DegenerateDataError
from thermokmd.spectral import (
    RANK_RCOND,
    ZERO_MODE_RTOL,
    ModeEntry,
    ModeTable,
    RitzPair,
    _group_and_rank,
    companion_kmd,
    energy_norm,
    mode_table,
    period_of,
    rank_modes,
    reconstruct,
    table_to_csv,
    table_to_json,
)
from thermokmd.synth import (
    PolynomialField,
    Tone,
    default_analytic_spec,
    default_room_spec,
    generate_analytic,
    simulate_room,
)
from thermokmd.timeseries import SnapshotMatrix


def make_record(values, dt=60.0):
    values = np.asarray(values, dtype=float)
    ids = tuple(f"ch{i}" for i in range(values.shape[0]))
    return SnapshotMatrix(values, dt, 0.0, ids)


def couple_near(table, lam_true, tol=1e-6):
    """The ranked couple whose eigenvalue is nearest lam_true."""
    best = min(
        (e for e in table.ranked() if e.is_couple),
        key=lambda e: abs(e.rep.lam - lam_true),
    )
    assert abs(best.rep.lam - lam_true) <= tol
    return best


class TestCompanionKmd:
    def test_geometric_decay(self):
        # y_k = 0.5^k [1, 2]: brute-force check that c = (0, 0, 0.5) is a
        # valid recurrence for y_3, then that 0.5 shows up as a Ritz value
        v = np.array([1.0, 2.0])
        Y = np.stack([v * 0.5**k for k in range(4)], axis=1)
        assert np.allclose(0.5 * Y[:, 2], Y[:, 3])

        table = companion_kmd(make_record(Y, dt=1.0))
        entry = min(table.entries, key=lambda e: abs(e.rep.lam - 0.5))
        assert abs(entry.rep.lam - 0.5) < 1e-12
        assert np.allclose(entry.rep.mode, v, atol=1e-10)
        # remaining eigenvalues carry (numerically) zero modes and are dropped
        assert all(abs(e.rep.lam - 0.5) < 1e-12 for e in table.entries)

    def test_constant_is_bias_fixed_point(self):
        v = np.array([25.0, 26.0, 27.0])
        table = companion_kmd(make_record(np.tile(v[:, None], (1, 4)), dt=1.0))
        assert len(table.entries) == 1
        entry = table.entries[0]
        assert entry.bias
        assert abs(entry.rep.lam - 1.0) < 1e-12
        assert np.allclose(entry.rep.mode, v, atol=1e-9)
        assert table.ranked() == ()

    def test_single_tone_conjugate_couple(self):
        # one cosine with a shared spatial envelope: the snapshot matrix has
        # spatial rank 1, so the minimum-norm recurrence only carries the
        # order-2 dynamics when the record spans whole cycles (239 = 17*14+1)
        v = np.array([1.0, -0.5, 2.0])
        k = np.arange(239)
        Y = np.cos(2 * np.pi * k / 14)[None, :] * v[:, None]
        table = companion_kmd(make_record(Y, dt=60.0))
        lam_true = np.exp(2j * np.pi / 14)
        assert abs(lam_true**14 - 1.0) < 1e-12  # period-14 root of unity
        entry = couple_near(table, lam_true, tol=1e-8)
        assert abs(entry.abs_lam - 1.0) <= 1e-8
        period_min = entry.period_seconds / 60.0
        assert abs(period_min - 14.0) <= 1e-6
        pair_sum = entry.rep.mode + entry.partner.mode
        assert np.allclose(pair_sum, v, atol=1e-8)
        assert np.max(np.abs(pair_sum.imag)) <= 1e-10

    def test_single_tone_full_spatial_rank(self):
        # per-channel phases make the tone pair spatially independent; then
        # the recovery is exact for any record length (here the odd 241)
        k = np.arange(241)
        amp = np.array([1.0, 0.6 * np.exp(0.9j), 1.3 * np.exp(-2.0j)])
        lam_true = np.exp(2j * np.pi / 14)
        Y = 2 * np.real(amp[:, None] * lam_true ** k[None, :])
        table = companion_kmd(make_record(Y, dt=60.0))
        entry = couple_near(table, lam_true, tol=1e-8)
        assert abs(entry.abs_lam - 1.0) <= 1e-8
        assert abs(entry.period_seconds / 60.0 - 14.0) <= 1e-6
        pair_sum = entry.rep.mode + entry.partner.mode
        assert np.allclose(pair_sum, 2 * np.real(amp), atol=1e-8)

    def test_zero_data_degenerate(self):
        with pytest.raises(DegenerateDataError):
            companion_kmd(make_record(np.zeros((2, 5))))

    def test_conjugate_pairing_tagged(self):
        v = np.array([1.0, 2.0])
        k = np.arange(40)
        Y = np.cos(2 * np.pi * k / 8 + 0.3)[None, :] * v[:, None]
        table = companion_kmd(make_record(Y, dt=1.0))
        couples = [e for e in table.entries if e.is_couple]
        assert couples, "expected at least one conjugate couple"
        for e in couples:
            assert e.rep.lam.imag > 0
            assert abs(e.partner.lam - e.rep.lam.conjugate()) <= 1e-8
            assert not e.unpaired


LAM_KINDS = ("inside", "on", "outside", "real_pos", "real_neg", "zero", "neg_zero_imag")


class TestEnergyNorm:
    def test_unit_stationary_mode(self):
        # oracle: direct summation of 241 unit terms
        oracle = math.sqrt(sum(1.0 for _ in range(241)))
        e = energy_norm(RitzPair(1.0 + 0.0j, np.array([1.0]), 0), 241)
        assert e == pytest.approx(oracle, rel=1e-14)
        assert e == pytest.approx(15.524174696260024, rel=1e-12)

    def test_nilpotent_keeps_first_snapshot(self):
        # 0^0 := 1, so only the k = 0 term contributes
        e = energy_norm(RitzPair(0.0 + 0.0j, np.array([3.0, 4.0]), 0), 241)
        assert e == pytest.approx(5.0, rel=1e-14)

    def test_quarter_cycle(self):
        # 2 Re[i^k] cycles 2, 0, -2, 0 -> E = sqrt(8)
        oracle = math.sqrt(sum(np.linalg.norm(2 * np.real(1j**k * np.array([1.0]))) ** 2
                               for k in range(4)))
        e = energy_norm(RitzPair(1j, np.array([1.0]), 0), 4)
        assert e == pytest.approx(oracle, rel=1e-14)
        assert e == pytest.approx(2 * math.sqrt(2), rel=1e-12)

    def test_rejects_empty_record(self):
        with pytest.raises(ArgumentError):
            energy_norm(RitzPair(1.0 + 0j, np.array([1.0]), 0), 0)

    @staticmethod
    def random_lam(kind, rng):
        theta = rng.uniform(1e-3, np.pi)
        return {
            "inside": rng.uniform(0.05, 0.999) * np.exp(1j * theta),
            "on": np.exp(1j * theta),
            "outside": rng.uniform(1.0001, 1.01) * np.exp(1j * theta),
            "real_pos": complex(rng.uniform(0.0, 1.01), 0.0),
            "real_neg": complex(-rng.uniform(0.0, 1.01), 0.0),
            "zero": 0j,
            "neg_zero_imag": complex(rng.uniform(-1.01, 1.01), -0.0),
        }[kind]

    @pytest.mark.parametrize("kind", LAM_KINDS)
    def test_bit_identical_to_loop(self, kind):
        # exact ==: the energies order the modes and are written to modes.json
        rng = np.random.default_rng(LAM_KINDS.index(kind))
        for case in range(60):
            m = int(rng.integers(1, 71))
            n = int(rng.integers(1, 401))
            block = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
            # modes from a fit are column views of a larger matrix
            mode = block[:, 1] if case % 2 else np.ascontiguousarray(block[:, 1])
            p = RitzPair(complex(self.random_lam(kind, rng)), mode, 0)
            assert energy_norm(p, n) == _energy_loop(p, n), (m, n, p.lam)

    def test_fitted_table_bit_identical_to_loop(self):
        # M < N-1 with noise: the fit interpolates and gives damped, real and
        # near-unit eigenvalues alike
        rng = np.random.default_rng(11)
        k = np.arange(161)
        Y = 2 * np.real((rng.normal(size=6) + 1j * rng.normal(size=6))[:, None]
                        * np.exp(2j * np.pi * k / 14.0)[None, :])
        table = companion_kmd(make_record(Y + 0.05 * rng.normal(size=Y.shape)))
        assert len(table.entries) == 81
        assert any(e.rep.lam.imag == 0.0 for e in table.entries)
        for e in table.entries:
            assert e.energy == _energy_loop(e.rep, table.n_snapshots), e.rep.lam


def _energy_loop(p, n_snapshots):
    """The reference summation: one power, one np.dot and one add per snapshot."""
    lam = complex(p.lam)
    is_real = lam.imag == 0.0
    total = 0.0
    power = 1.0 + 0.0j
    for _ in range(n_snapshots):
        contrib = (power * p.mode).real if is_real else 2.0 * (power * p.mode).real
        total += float(np.dot(contrib, contrib))
        power *= lam
    return float(np.sqrt(total))


class TestPeriodOf:
    def test_dominant_summer_period(self):
        lam = np.exp(2j * np.pi * 60.0 / 853.8)
        assert period_of(lam, 60.0) == pytest.approx(853.8, rel=1e-9)
        assert period_of(lam, 60.0) / 60.0 == pytest.approx(14.23, rel=1e-9)

    def test_nyquist(self):
        assert period_of(-1.0 + 0j, 60.0) == pytest.approx(120.0, rel=1e-12)

    def test_bias_returns_none(self):
        assert period_of(1.0 + 0j, 60.0) is None


class TestRanking:
    def two_tone(self, a1=2.0, a2=0.5):
        rng = np.random.default_rng(11)
        m = 6
        k = np.arange(121)
        v1 = a1 * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        v2 = a2 * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        lam1 = np.exp(2j * np.pi / 12)
        lam2 = np.exp(2j * np.pi / 30)
        Y = 2 * np.real(v1[:, None] * lam1 ** k[None, :]) + 2 * np.real(
            v2[:, None] * lam2 ** k[None, :]
        )
        return make_record(Y, dt=60.0), lam1, lam2, v1, v2

    def test_strong_tone_ranked_first(self):
        s, lam1, lam2, v1, v2 = self.two_tone()
        table = companion_kmd(s)
        # oracle: energies computed directly from the injected pairs
        e1 = energy_norm(RitzPair(lam1, v1, 0), s.n_snapshots)
        e2 = energy_norm(RitzPair(lam2, v2, 1), s.n_snapshots)
        assert e1 > e2
        top = rank_modes(table, top=2)
        assert abs(top.entries[0].rep.lam - lam1) < 1e-7
        assert top.entries[0].label == (1, 2)
        assert top.entries[1].label == (3, 4)
        assert top.entries[0].energy == pytest.approx(e1, rel=1e-6)

    def test_top_limits_and_validates(self):
        s, *_ = self.two_tone()
        table = companion_kmd(s)
        assert len(rank_modes(table, top=1).entries) == 1
        # the table's own ranking order and couple labels, cut at top
        for k in (1, 2, 5):
            assert rank_modes(table, k).entries == table.ranked()[:k]
        labels = [i for e in rank_modes(table, 5).entries for i in e.label]
        assert labels == list(range(1, len(labels) + 1))
        with pytest.raises(ArgumentError):
            rank_modes(table, top=0)

    def test_bias_only_table_ranks_empty(self):
        table = companion_kmd(make_record(np.tile([[25.0]], (1, 5))))
        assert rank_modes(table, top=3).entries == ()

    def test_nyquist_entry_flagged_without_period(self):
        # alternating data: lam = -1 sits exactly at the sampling limit
        v = np.array([1.0, 2.0])
        Y = np.stack([v * (-1.0) ** k for k in range(6)], axis=1)
        table = companion_kmd(make_record(Y, dt=60.0))
        entry = min(table.entries, key=lambda e: abs(e.rep.lam + 1.0))
        assert abs(entry.rep.lam + 1.0) < 1e-10
        assert entry.nyquist
        assert entry.period_seconds is None
        assert not entry.bias
        assert entry.label  # ranked (with a label) even though no period is listed


class TestInvariants:
    def low_rank_record(self):
        rng = np.random.default_rng(5)
        m, n = 8, 121
        k = np.arange(n)
        Y = np.zeros((m, n))
        for period in (10.0, 23.0, 57.0):
            amp = rng.normal(size=m) + 1j * rng.normal(size=m)
            lam = np.exp(2j * np.pi / period)
            Y += 2 * np.real(amp[:, None] * lam ** k[None, :])
        Y += rng.normal(size=m)[:, None]  # static bias
        return make_record(Y, dt=60.0)

    def test_reconstruction(self):
        s = self.low_rank_record()
        table = companion_kmd(s)
        recon = reconstruct(table)
        target = s.values[:, :-1]
        scale = np.max(np.abs(target))
        assert np.max(np.abs(recon - target)) <= 1e-8 * scale

    def test_final_snapshot_defect_equals_residual(self):
        s = self.low_rank_record()
        table = companion_kmd(s)
        full = reconstruct(table, s.n_snapshots)
        defect = np.linalg.norm(full[:, -1] - s.values[:, -1])
        scale = np.max(np.abs(s.values))
        assert abs(defect - table.residual) <= 1e-8 * scale

    def test_realness(self):
        s = self.low_rank_record()
        table = companion_kmd(s)
        n = s.n_snapshots - 1
        lams, modes = [], []
        for e in table.entries:
            lams.append(e.rep.lam)
            modes.append(e.rep.mode)
            if e.partner is not None:
                lams.append(e.partner.lam)
                modes.append(e.partner.mode)
        powers = np.vander(np.array(lams), N=n, increasing=True)
        complex_recon = np.column_stack(modes) @ powers
        assert np.max(np.abs(complex_recon.imag)) <= 1e-10 * np.max(np.abs(complex_recon.real))

    def test_permutation_equivariance(self):
        s = self.low_rank_record()
        perm = [5, 2, 7, 1, 0, 6, 3, 4]
        permuted = SnapshotMatrix(
            s.values[perm], s.dt, s.t0, tuple(s.channel_ids[i] for i in perm)
        )
        t1 = rank_modes(companion_kmd(s), 4)
        t2 = rank_modes(companion_kmd(permuted), 4)
        for e1, e2 in zip(t1.entries, t2.entries):
            assert abs(e1.rep.lam - e2.rep.lam) <= 1e-9 * abs(e1.rep.lam)
            assert e1.energy == pytest.approx(e2.energy, rel=1e-9)
            assert e1.period_seconds == pytest.approx(e2.period_seconds, rel=1e-9)
            assert np.allclose(e2.rep.mode, e1.rep.mode[perm], atol=1e-9)

    def test_scaling(self):
        s = self.low_rank_record()
        alpha = 2.0
        scaled = s.with_values(alpha * s.values)
        t1 = rank_modes(companion_kmd(s), 4)
        t2 = rank_modes(companion_kmd(scaled), 4)
        for e1, e2 in zip(t1.entries, t2.entries):
            assert abs(e2.rep.lam - e1.rep.lam) <= 1e-10 * abs(e1.rep.lam)
            assert e2.mode_norm == pytest.approx(alpha * e1.mode_norm, rel=1e-10)
            assert e2.energy == pytest.approx(alpha * e1.energy, rel=1e-10)

    def test_determinism(self):
        s = self.low_rank_record()
        j1 = table_to_json(companion_kmd(s))
        j2 = table_to_json(companion_kmd(s))
        assert j1 == j2


class TestUnpaired:
    def test_lone_complex_eigenvalue_reported(self):
        with pytest.warns(UserWarning, match="unpaired"):
            table = mode_table(np.array([0.5 + 0.5j]), np.array([[1.0 + 0j]]), 1.0, 5,
                               residual=0.0, mean_removed=True)
        assert len(table.entries) == 1
        assert table.entries[0].unpaired
        assert table.entries[0].rep.lam.imag > 0
        assert table.notes == ("unpaired complex eigenvalue lam=0.5+0.5j",)

    def test_warning_points_at_the_stage_caller(self):
        def stage():  # stands where companion_kmd and generate_analytic call mode_table
            return mode_table(np.array([0.5 - 0.5j]), np.array([[1.0 + 0j]]), 1.0, 5,
                              residual=0.0, mean_removed=True)

        with pytest.warns(UserWarning, match="unpaired") as record:
            line = inspect.currentframe().f_lineno + 1
            stage()
        assert record[0].filename == __file__ and record[0].lineno == line


# -- the assembly before mode_table, kept as oracles --------------------------------

def _companion_kmd_per_column(s):
    """companion_kmd as it was: one RitzPair per kept column, grouped and ranked in place."""
    Y = s.values
    K = Y[:, :-1]
    y_last = Y[:, -1]
    n1 = s.n_snapshots - 1
    c, *_ = np.linalg.lstsq(K, y_last, rcond=RANK_RCOND)
    residual = float(np.linalg.norm(K @ c - y_last))
    companion = np.zeros((n1, n1))
    companion[np.arange(1, n1), np.arange(n1 - 1)] = 1.0
    companion[:, -1] = c
    lams = np.linalg.eigvals(companion)
    vander = np.vander(lams, N=n1, increasing=True)
    modes = np.linalg.lstsq(vander.T, K.T.astype(complex), rcond=None)[0].T

    notes, pairs = [], []
    norms = np.linalg.norm(modes, axis=0)
    cutoff = ZERO_MODE_RTOL * norms.max(initial=0.0)
    for j in range(n1):
        if norms[j] <= cutoff:
            notes.append(f"dropped zero mode at lam={lams[j]:.6g}")
            continue
        pairs.append(RitzPair(complex(lams[j]), modes[:, j], index=j))
    entries = _group_and_rank(pairs, s.dt, s.n_snapshots, notes)
    return ModeTable(entries=entries, dt=s.dt, n_snapshots=s.n_snapshots, residual=residual,
                     mean_removed=timeseries.mean_offset(s) is None,
                     channel_ids=s.channel_ids, notes=tuple(notes))


def _reconstruct_two_lists(table, n_snapshots=None):
    """reconstruct as it was: the lam and mode lists rebuilt side by side."""
    n = table.n_snapshots - 1 if n_snapshots is None else n_snapshots
    lams, modes = [], []
    for e in table.entries:
        lams.append(e.rep.lam)
        modes.append(e.rep.mode)
        if e.partner is not None:
            lams.append(e.partner.lam)
            modes.append(e.partner.mode)
    if not lams:
        return np.zeros((len(table.channel_ids), n))
    powers = np.vander(np.asarray(lams, dtype=complex), N=n, increasing=True)
    return np.real(np.column_stack(modes) @ powers)


def single_tone_record(n, noise):
    rng = np.random.default_rng(3)
    amp = rng.normal(size=6) + 1j * rng.normal(size=6)
    Y = 2 * np.real(amp[:, None] * np.exp(2j * np.pi * 60.0 * np.arange(n) / 853.8)[None, :])
    return make_record(Y + noise * np.random.default_rng(n).normal(size=Y.shape))


@pytest.fixture(scope="module")
def room_record():
    record, _ = simulate_room(default_room_spec())
    return timeseries.remove_mean(record)


class TestModeTableMatchesPerColumn:
    """companion_kmd and reconstruct give the bytes and arrays of the code before mode_table."""

    def assert_same(self, s):
        table, oracle = companion_kmd(s), _companion_kmd_per_column(s)
        assert table_to_json(table) == table_to_json(oracle)
        assert table.notes == oracle.notes
        for n in (None, s.n_snapshots):
            assert np.array_equal(reconstruct(table, n), _reconstruct_two_lists(oracle, n))
        return table

    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    @pytest.mark.parametrize("n", [5, 7, 9, 12, 20, 41])
    def test_single_tone(self, n, noise):
        table = self.assert_same(single_tone_record(n, noise))
        # a noiseless record leaves n - 3 zero modes to drop, a noisy one none
        dropped = [note for note in table.notes if note.startswith("dropped zero mode")]
        assert len(dropped) == (n - 3 if noise == 0.0 else 0)

    def test_seeded_room(self, room_record):
        self.assert_same(room_record)

    def test_analytic(self):
        snaps, _ = generate_analytic(default_analytic_spec())
        self.assert_same(snaps)
        self.assert_same(timeseries.remove_mean(snaps))

    @pytest.mark.parametrize("extra", [False, True])
    def test_truth_reconstruction(self, extra):
        spec = default_analytic_spec()
        if extra:  # a bias field and a zero-amplitude tone
            silent = Tone(period=900.0, amplitude=PolynomialField((((0, 0), 0j),)))
            spec = replace(spec, tones=(*spec.tones, silent),
                           bias=PolynomialField((((0, 0), 1.5 + 0j), ((1, 0), 0.2 + 0j))))
        _, truth = generate_analytic(spec)
        assert len(truth.entries) == (4 if extra else 2)
        for n in (None, 1, spec.n_snapshots):
            assert np.array_equal(reconstruct(truth, n), _reconstruct_two_lists(truth, n))

    def test_hand_built_unpaired(self):
        lams = np.array([0.9 * np.exp(0.3j), 0.5 - 0.5j, 1.0, 0.9 * np.exp(-0.3j), 0.2 + 0.7j])
        modes = np.array([[1.0 + 2j, 0.5j, 3.0, 1.0 - 2j, -1.0], [0.5, 2.0, -1.0, 0.5, 1j]])
        notes = ["dropped zero mode at lam=0"]
        with pytest.warns(UserWarning, match="unpaired"):
            table = mode_table(lams, modes, 60.0, 9, residual=0.25, mean_removed=False,
                               channel_ids=("a", "b"), notes=notes)
        with pytest.warns(UserWarning, match="unpaired"):
            pairs = [RitzPair(complex(lam), modes[:, j], j) for j, lam in enumerate(lams)]
            entries = _group_and_rank(pairs, 60.0, 9, notes)
        oracle = ModeTable(entries=entries, dt=60.0, n_snapshots=9, residual=0.25,
                           mean_removed=False, channel_ids=("a", "b"), notes=tuple(notes))
        assert table_to_json(table) == table_to_json(oracle)
        assert table.notes == oracle.notes and len(table.notes) == 3
        assert [e.unpaired for e in table.entries].count(True) == 2
        assert np.array_equal(reconstruct(table), _reconstruct_two_lists(oracle))


class TestSerialization:
    def display_entry(self):
        lam = 0.9913 * np.exp(2j * np.pi * 60.0 / 853.8)
        mode = np.array([1.0640 + 0j])
        rep = RitzPair(complex(lam), mode, 0)
        return ModeEntry(
            rep=rep,
            partner=RitzPair(complex(lam).conjugate(), mode.conjugate(), 1),
            label=(1, 2),
            abs_lam=0.9913,
            period_seconds=853.8,
            mode_norm=1.0640,
            energy=11.26,
            bias=False,
        )

    def test_csv_matches_display_layout(self):
        table = ModeTable(
            entries=(self.display_entry(),),
            dt=60.0, n_snapshots=241, residual=0.0, mean_removed=False,
            channel_ids=("ch0",),
        )
        lines = table_to_csv(table).splitlines()
        assert lines[0] == "couple,abs_lam,period_min,mode_norm,energy"
        assert lines[1] == '"{1,2}",0.9913,14.23,1.0640,11.26'
        import csv as csvmod

        row = list(csvmod.reader(lines))[1]
        assert row == ["{1,2}", "0.9913", "14.23", "1.0640", "11.26"]

    def test_csv_keeps_trailing_zeros(self):
        lam = 1.0060 * np.exp(2j * np.pi * 60.0 / (18.99 * 60.0))
        rep = RitzPair(complex(lam), np.array([0.9979 + 0j]), 0)
        entry = ModeEntry(
            rep=rep, partner=RitzPair(complex(lam).conjugate(), rep.mode.conjugate(), 1),
            label=(1, 2), abs_lam=1.0060, period_seconds=18.99 * 60.0,
            mode_norm=0.9979, energy=52.20, bias=False,
        )
        table = ModeTable(
            entries=(entry,), dt=60.0, n_snapshots=241, residual=0.0,
            mean_removed=False, channel_ids=("ch0",),
        )
        assert table_to_csv(table).splitlines()[1] == '"{1,2}",1.0060,18.99,0.9979,52.20'

    def test_json_schema(self):
        table = ModeTable(
            entries=(self.display_entry(),),
            dt=60.0, n_snapshots=241, residual=0.5, mean_removed=True,
            channel_ids=("ch0",),
        )
        payload = json.loads(table_to_json(table))
        assert payload["dt_seconds"] == 60.0
        assert payload["residual"] == 0.5
        entry = payload["modes"][0]
        assert entry["couple"] == [1, 2]
        assert set(entry["lam"]) == {"re", "im"}
        assert entry["period_minutes"] == pytest.approx(14.23)
        assert entry["bias_flag"] is False
        assert entry["mode"] == [{"re": 1.0640, "im": 0.0}]


def _table_to_json_dumps(table):
    """The reference writer: json.dumps over one {"re", "im"} dict per mode value."""
    def record(e):
        return {
            "couple": list(e.label),
            "lam": {"re": e.rep.lam.real, "im": e.rep.lam.imag},
            "abs_lam": e.abs_lam,
            "period_minutes": None if e.period_seconds is None else e.period_seconds / 60.0,
            "mode_norm": e.mode_norm,
            "energy": e.energy,
            "bias_flag": e.bias,
            "nyquist_flag": e.nyquist,
            "unpaired_flag": e.unpaired,
            "mode": [{"re": v.real, "im": v.imag} for v in e.rep.mode],
        }

    payload = {
        "dt_seconds": table.dt,
        "n_snapshots": table.n_snapshots,
        "residual": table.residual,
        "mean_removed": table.mean_removed,
        "channel_ids": list(table.channel_ids),
        "notes": list(table.notes),
        "modes": [record(e) for e in table.entries],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestJsonBytes:
    """table_to_json is byte-identical to the reference json.dumps writer."""

    def assert_same(self, table):
        text = table_to_json(table)
        assert text == _table_to_json_dumps(table)
        return text

    @pytest.mark.parametrize("shape", ["room_like", "wide"])
    def test_fitted_tables(self, shape):
        # room_like: M < N-1, the recurrence interpolates noise; wide: M > N-1,
        # where every eigenvalue is kept and every mode list is long
        m, n = {"room_like": (9, 121), "wide": (70, 31)}[shape]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            k = np.arange(n)
            Y = 2 * np.real((rng.normal(size=m) + 1j * rng.normal(size=m))[:, None]
                            * np.exp(2j * np.pi * k / 11.0)[None, :])
            table = companion_kmd(make_record(Y + 0.05 * rng.normal(size=Y.shape)))
            assert len(table.entries) > 1
            self.assert_same(table)
            self.assert_same(rank_modes(table, 3))

    def hand_built(self):
        v = np.array([1.5 - 0.25j, -3e-310 + 1e22j, 0.1 + 0.2j])
        lams, modes = zip(
            (1.0 + 0j, v),                   # bias
            (-1.0 + 0j, v * 2),              # Nyquist
            (0.7 + 0j, v.conjugate()),       # real, also a bias
            (0.5 + 0.5j, v / 3),             # unpaired
            (0.9 * np.exp(0.3j), v * 1j),    # couple
            (0.9 * np.exp(-0.3j), v * -1j),
        )
        with pytest.warns(UserWarning, match="unpaired"):
            return mode_table(np.array(lams), np.column_stack(modes), 60.0, 7, residual=1e-15,
                              mean_removed=True, channel_ids=("a", "b", "c"),
                              notes=("dropped zero mode at lam=0",))

    def test_hand_built_entries(self):
        table = self.hand_built()
        # a real lam is a bias entry (lam > 0) or a Nyquist one (lam < 0)
        kinds = [(e.bias, e.nyquist, e.unpaired, e.is_couple) for e in table.entries]
        assert sorted(kinds) == sorted([(True, False, False, False)] * 2 + [
            (False, True, False, False), (False, False, True, False), (False, False, False, True)])
        self.assert_same(table)

    def test_non_finite_and_negative_zero(self):
        table = self.hand_built()
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0])
        mode = np.empty(specials.size, dtype=complex)
        mode.real, mode.imag = specials, specials[::-1]
        odd = RitzPair(complex(-0.0, -0.0), mode, 9)
        entries = (
            replace(table.entries[0], rep=odd, abs_lam=np.nan, energy=np.inf,
                    mode_norm=-np.inf, period_seconds=-0.0),
            replace(table.entries[1], rep=RitzPair(complex(np.nan, np.inf), specials, 8)),
            *table.entries[2:],
        )
        odd_table = replace(table, entries=entries, dt=np.inf, residual=np.nan,
                            channel_ids=tuple("abcdef"))
        text = self.assert_same(odd_table)
        for spelling in ("NaN", "Infinity", "-Infinity", "-0.0"):
            assert f'"im": {spelling}' in text
        assert "nan" not in text and "inf" not in text

    def test_empty_mode_vector(self):
        table = mode_table(np.array([0.5 + 0j]), np.zeros((0, 1), dtype=complex), 1.0, 3,
                           residual=0.0, mean_removed=False)
        assert '"mode": []' in self.assert_same(table)

    def test_no_entries(self):
        for ids in ((), ("a", "b")):
            table = ModeTable(entries=(), dt=60.0, n_snapshots=5, residual=0.0,
                              mean_removed=False, channel_ids=ids)
            self.assert_same(table)
        self.assert_same(rank_modes(companion_kmd(make_record(np.tile([[25.0]], (2, 5)))), 3))

    def test_escaped_strings(self):
        # a string holding the placeholder text must not be taken for an entry's slot
        ids = ('q"uote', "back\\slash", "Åsa", '"mode": []', "tab\t")
        notes = ('x\\"mode": []', "\u00e9t\u00e9 \u2603")
        table = replace(self.hand_built(), channel_ids=ids, notes=notes)
        text = self.assert_same(table)
        assert "\\u00c5sa" in text and json.loads(text)["channel_ids"] == list(ids)
