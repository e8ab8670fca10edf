"""Tests for the Monte Carlo driver, baselines, config files, and CSV."""

import importlib
import importlib.util
import json
import re
import tracemalloc
from dataclasses import MISSING, fields, replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csmimo.detection as detection
import csmimo.harness as harness
from csmimo.channel import ChannelRealization, NoiseSpec, apply_channel, sample_channel
from csmimo.csmux import MeasurementMatrix, MuxConfig, gen_phi
from csmimo.detection import channel_is_usable
from csmimo.errors import (
    BadSubblockShape,
    CsmimoError,
    DictionaryTooLarge,
    RankDeficientChannel,
    SpecError,
)
from csmimo.harness import CSV_HEADER, run_sweep, wilson_interval
from csmimo.modem import get_constellation, nearest_point_indices, symbol_indices
from csmimo.spec import ExperimentSpec, load_spec, parse_snr_grid, spec_from_dict

from conftest import recipe_path, run_trials

INF = float("inf")

# the one-line rejection of an SNR point outside the dB range
DB_RANGE = r"^snr_db must be in -1000\.\.1000 dB, or inf$"


def small_spec(**kw):
    defaults = dict(
        config=MuxConfig(nt=4, nr=4, l=8, j=2, phi_seed=880),
        snr_db=(10.0,),
        trials=100,
        master_seed=5,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestRunTrial:
    """Single trials of the engine, through the tests' ``run_trials`` view."""

    def test_deterministic(self):
        spec = small_spec()
        a = run_trials(spec, 3, snr_db=10.0)
        b = run_trials(spec, 3, snr_db=10.0)
        np.testing.assert_array_equal(a.tx_idx, b.tx_idx)
        np.testing.assert_array_equal(a.rx_idx, b.rx_idx)
        np.testing.assert_array_equal(a.bit_errors, b.bit_errors)

    def test_noiseless_trial_is_exact(self):
        rec = run_trials(small_spec(), 0, 50, snr_db=INF)
        assert not rec.bit_errors.any()
        assert not rec.symbol_errors.any()

    def test_2x2_l4_setup_runs(self):
        spec = small_spec(config=MuxConfig(nt=2, nr=2, l=4, j=2, phi_seed=3262))
        rec = run_trials(spec, 0, snr_db=INF)
        assert rec.tx_idx.shape == (1, 4)  # 8 bits
        assert rec.bit_errors[0] == 0

    def test_common_randomness_across_snr(self):
        """The same trial index reuses bits and channel at every SNR point."""
        spec = small_spec()
        a = run_trials(spec, 11, snr_db=0.0)
        b = run_trials(spec, 11, snr_db=20.0)
        np.testing.assert_array_equal(a.tx_idx, b.tx_idx)

    def test_redraw_exhaustion_raises_rank_deficient(self, monkeypatch):
        """A channel that never becomes usable ends the trial with the
        library's rank error once the redraw budget is spent."""
        rank_one = ChannelRealization(np.ones((4, 4), dtype=complex))
        chunk_draw = harness._draw

        def draw(*args):
            bits, h, noise = chunk_draw(*args)
            h[:] = rank_one.h
            return bits, h, noise

        monkeypatch.setattr(harness, "_draw", draw)
        monkeypatch.setattr(
            "csmimo.harness.sample_channel", lambda nr, m_tx, rng: rank_one
        )
        with pytest.raises(RankDeficientChannel, match="redraws"):
            run_trials(small_spec(), 0)

    @pytest.mark.parametrize("constellation", ["qpsk", "qam16"])
    def test_only_the_dictionary_solvers_build_the_dictionary(self, monkeypatch, constellation):
        """An ``ml`` sweep scores the I/Q level tuples and never builds the
        ``q**n`` dictionary or its sensing matrix; ``omp`` (on a (4,4)-4
        setup, whose sub-blocks have the two rows it needs) and ``oneshot``
        build each once per sweep, over all its chunks and SNR points.  On
        the (2,2)-4 matrix two QAM16 level pairs project to within 1e-5 of
        each other, yet ``ml`` builds neither and still decodes its
        noiseless point exactly.  The first chunks of a sweep that stops
        early hold 1, 2, 4, ... trials."""
        calls = []
        for name in ("build_dictionary", "sensing_matrix"):
            fn = getattr(detection, name)
            monkeypatch.setattr(detection, name,
                                lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
        built = ["build_dictionary", "sensing_matrix"]
        mimo4x4 = MuxConfig(nt=4, nr=4, l=8, j=2, phi_seed=880, constellation=constellation)
        mimo2x2 = MuxConfig(nt=2, nr=2, l=4, j=2, phi_seed=3262, constellation=constellation)
        mimo4x4_l4 = MuxConfig(nt=4, nr=4, l=4, j=2, phi_seed=880, constellation=constellation)
        cases = [(mimo4x4, "ml", []), (mimo4x4_l4, "omp", built), (mimo2x2, "oneshot", built)]
        if constellation == "qam16":
            cases.append((mimo2x2, "ml", []))
        for cfg, solver, want in cases:
            calls.clear()
            spec = small_spec(config=cfg, solver=solver, snr_db=(0.0, 10.0, 20.0, INF), trials=40)
            rows = run_sweep(spec).rows
            assert calls == want, (cfg, solver)
            if solver == "ml":
                assert rows[-1].snr_db == INF and rows[-1].ber == 0.0, cfg

    def test_bad_snr_point_rejected(self):
        """A trial's SNR follows the grid-point rule."""
        for snr in (-INF, float("nan")):
            with pytest.raises(SpecError, match=DB_RANGE):
                run_trials(small_spec(), 0, snr_db=snr)

    def test_snr_without_finite_noise_variance_rejected(self):
        """A trial's SNR whose noise variance would not be a finite float
        lies outside the dB range and fails in one line, before any draw."""
        for snr in (5000.0, -3200.0):
            with mock.patch.object(harness, "_draw_chunk") as drawn, \
                    pytest.raises(SpecError, match=DB_RANGE):
                run_trials(small_spec(), 0, snr_db=snr)
            drawn.assert_not_called()


class TestExperimentSpec:
    @pytest.mark.parametrize("snr", [5000.0, 1e308, -1e308, -3200.0])
    def test_point_without_finite_noise_variance_rejected(self, snr):
        """``m / 10**(snr/10)`` would overflow, divide by an underflowed
        zero or round to ``inf``: such a point lies outside the dB range,
        whose ends stay."""
        with pytest.raises(SpecError, match=DB_RANGE):
            small_spec(snr_db=(10.0, snr))
        assert small_spec(snr_db=(-1000.0, 1000.0, INF)).snr_db == (-1000.0, 1000.0, INF)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            small_spec(trials=0)

    def test_empty_grid_rejected(self):
        with pytest.raises(SpecError, match=r"^snr_db must hold 1\.\.10000 points$"):
            small_spec(snr_db=())

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="solver"):
            small_spec(solver="genie")

    def test_omp_needs_two_row_sub_blocks(self):
        """At m/j = 1 every column's normalized correlation is |z|, so the
        spec rejects ``omp`` in one line before any trial; the other
        solvers and a baseline, which picks no column, keep such a setup."""
        cfg = MuxConfig(nt=2, nr=2, l=4, j=2, phi_seed=3262)
        with mock.patch.object(harness, "_draw_chunk") as drawn, \
                pytest.raises(BadSubblockShape, match=r"^omp needs m/j >= 2: [^\n]*$") as err:
            run_sweep(small_spec(config=cfg, solver="omp"))
        assert isinstance(err.value, CsmimoError) and isinstance(err.value, ValueError)
        assert drawn.call_count == 0
        for kw in ({"solver": "ml"}, {"solver": "oneshot"}, {"solver": "omp", "baseline": "zf"}):
            assert small_spec(config=cfg, **kw).config is cfg

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            small_spec(baseline="mmse")

    def test_notation(self):
        assert small_spec().notation == "(4,4)-8"

    def test_grid_sorted(self):
        spec = small_spec(snr_db=(10.0, 0.0, 4.0))
        assert spec.snr_db == (0.0, 4.0, 10.0)

    def test_grid_forms(self):
        """Every grid form a config file or ``--snr`` takes is parsed here."""
        assert small_spec(snr_db="20").snr_db == (20.0,)
        assert small_spec(snr_db=20.0).snr_db == (20.0,)
        assert small_spec(snr_db="0:10:20").snr_db == (0.0, 10.0, 20.0)
        assert small_spec(snr_db="inf, 5").snr_db == (5.0, INF)
        assert small_spec(snr_db=np.array([10, 0])).snr_db == (0.0, 10.0)
        assert small_spec(snr_db=[5]).snr_db == (5.0,)
        with pytest.raises(SpecError, match=DB_RANGE):
            small_spec(snr_db=None)

    def test_counts_must_be_integers(self):
        """Floats and booleans fail at the spec with the field's name and range."""
        for field, value, bounds in (("trials", 5.0, "1..2**32-1"),
                                     ("early_stop_errors", True, "0..2**32"),
                                     ("master_seed", 1.5, "0..2**64-1")):
            with pytest.raises(SpecError, match=f"^{field} must be an integer in {re.escape(bounds)}$"):
                small_spec(**{field: value})
        for field in ("nt", "nr", "l", "j", "phi_seed", "dictionary_cap"):
            raw = dict(nt=4, nr=4, l=8, j=2, phi_seed=0, dictionary_cap=65536)
            raw[field] = float(raw[field])
            with pytest.raises(SpecError, match=f"^{field} must be an integer in "):
                MuxConfig(**raw)
        spec = small_spec(trials=np.int64(7), config=MuxConfig(nt=np.int32(4), nr=4, l=8, j=2))
        assert type(spec.trials) is int and type(spec.config.nt) is int

    def test_streams_accounting(self):
        assert small_spec().streams == 8
        assert small_spec(baseline="zf").streams == 4
        assert small_spec(baseline="overload").streams == 8


def paper_spec(j: int, **changes) -> ExperimentSpec:
    """The shipped (20,20)-40 recipe with ``j`` sub-blocks, 300 trials at
    0, 10, 20 dB and without noise."""
    spec = load_spec(recipe_path("mimo20x20_l40.json"))
    return replace(spec, config=replace(spec.config, j=j), snr_db=(0.0, 10.0, 20.0, INF),
                   trials=300, **changes)


class TestBlockWidth:
    """Each solver's per-block table fits ``dictionary_cap``, checked when
    the spec is built, before any trial."""

    def test_ml_scores_level_tuples_past_the_dictionary_cap(self):
        """(20,20)-40 at J = 4 has 4**10 columns per block, past the cap,
        but ``ml`` scores only 2**10 level tuples per half."""
        rows = run_sweep(paper_spec(4)).rows
        assert rows[-1].snr_db == INF and rows[-1].trials == 300 and rows[-1].ber == 0.0
        assert rows[0].ber > rows[2].ber > 0.0

    @pytest.mark.parametrize("solver", ["omp", "oneshot"])
    def test_dictionary_solvers_keep_the_dictionary_cap(self, solver):
        with pytest.raises(DictionaryTooLarge, match=(
                f"^{solver} per-block table width 4\\^10 = 1048576 exceeds cap 65536$")):
            paper_spec(4, solver=solver)
        # a baseline builds no per-block table, whatever the solver field says
        assert paper_spec(4, solver=solver, baseline="zf").config.j == 4

    def test_qam16_widths(self):
        """QAM16 (4,4)-10 at J = 2: 4**5 level tuples per half for ``ml``,
        16**5 columns for ``omp``; at n = 10 even the level tuples are too
        many."""
        cfg = MuxConfig(nt=4, nr=4, l=10, j=2, constellation="qam16")
        assert small_spec(config=cfg).solver == "ml"
        with pytest.raises(DictionaryTooLarge, match=r"^omp per-block table width 16\^5 = "):
            small_spec(config=cfg, solver="omp")
        with pytest.raises(DictionaryTooLarge, match=r"^ml per-block table width 4\^10 = "):
            small_spec(config=MuxConfig(nt=2, nr=2, l=20, j=2, constellation="qam16"))

    def test_joint_index_must_fit_int64(self):
        """The joint indices are refused before the cap: 4**32 of them do
        not fit in int64 whatever the cap."""
        cfg = MuxConfig(nt=32, nr=32, l=64, j=2, dictionary_cap=2**20)
        with pytest.raises(DictionaryTooLarge, match=r"^joint index range 4\^32 does not fit in int64$"):
            small_spec(config=cfg)

    def test_long_subblocks_are_refused_from_exponents(self):
        """(4,4)-4096 at J = 2, the longest sub-blocks the ranges allow,
        has sub-blocks of 2048 symbols: every solver's spec refuses its
        joint index at once, from exponents; an ``l`` past its range, such
        as 2·10**8, is refused by the range, before any power is formed."""
        cfg = MuxConfig(nt=4, nr=4, l=4096, j=2)
        tracemalloc.start()
        try:
            for solver in detection.SOLVERS:
                with pytest.raises(DictionaryTooLarge, match=(
                        r"^joint index range 4\^2048 does not fit in int64$")):
                    small_spec(config=cfg, solver=solver)
            with pytest.raises(SpecError, match=r"^l must be an integer in 1\.\.4096$"):
                MuxConfig(nt=4, nr=4, l=2 * 10**8, j=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_baselines_run_where_no_table_fits(self):
        """(4,4)-36 at J = 2 has 2**18 level tuples per ``ml`` half-scan and
        4**18 dictionary columns: the spec and ``demux`` refuse every solver
        in one line before any table is built, and the baselines, which
        build none, run."""
        cfg = MuxConfig(nt=4, nr=4, l=36, j=2)
        for solver, width in (("ml", "2^18 = 262144"), ("omp", "4^18 = 68719476736"),
                              ("oneshot", "4^18 = 68719476736")):
            message = f"^{re.escape(f'{solver} per-block table width {width}')} exceeds cap 65536$"
            with pytest.raises(DictionaryTooLarge, match=message):
                small_spec(config=cfg, solver=solver)
            code = detection.Codebook(cfg, gen_phi(cfg))
            with pytest.raises(DictionaryTooLarge, match=message):
                detection.demux(np.zeros(4), sample_channel(4, 4, np.random.default_rng(0)),
                                code, solver=solver)
            assert not {"iq_scan", "dictionary", "sensing"} & set(vars(code))
        for baseline in ("zf", "overload"):
            spec = small_spec(config=cfg, baseline=baseline, trials=20, early_stop_errors=0)
            assert run_sweep(spec).rows[0].trials == 20


class TestRunSweep:
    def test_noiseless_rows_are_zero(self):
        spec = small_spec(snr_db=(INF,), trials=80)
        result = run_sweep(spec)
        assert result.rows[0].ber == 0.0
        assert result.rows[0].ser == 0.0
        assert result.rows[0].trials == 80

    def test_early_stop_on_errors(self):
        spec = small_spec(snr_db=(-10.0,), trials=5000, early_stop_errors=50)
        row = run_sweep(spec).rows[0]
        assert row.trials < 5000
        assert row.bit_errors >= 50

    def test_monotone_trend_with_ci_overlap(self):
        """BER does not significantly increase along the grid."""
        spec = small_spec(snr_db=(0.0, 6.0, 12.0, 18.0), trials=1500,
                          early_stop_errors=0)
        rows = run_sweep(spec).rows
        for lo, hi in zip(rows, rows[1:]):
            assert hi.ber <= lo.ber or hi.ci_low <= lo.ci_high

    def test_reproducible_csv_bytes(self):
        spec = small_spec(snr_db=(0.0, 10.0), trials=300)
        assert run_sweep(spec).to_csv() == run_sweep(spec).to_csv()

    def test_csv_header_exact(self, tmp_path):
        spec = small_spec(trials=20)
        out = tmp_path / "r.csv"
        run_sweep(spec).write_csv(out)
        lines = out.read_text().splitlines()
        data_header = [l for l in lines if not l.startswith("#")][0]
        assert data_header == CSV_HEADER
        assert CSV_HEADER == (
            "snr_db,trials,bits,bit_errors,ber,sym_errors,ser,"
            "throughput,ci_low,ci_high"
        )

    def test_rows_sorted_by_snr(self):
        spec = small_spec(snr_db=(12.0, 0.0, 6.0), trials=30)
        rows = run_sweep(spec).rows
        assert [r.snr_db for r in rows] == [0.0, 6.0, 12.0]


class TestBaselines:
    def test_zf_equivalence_with_identity_compression(self, monkeypatch):
        """rho = 1 with identity blocks makes the full pipeline reproduce the
        plain ZF baseline decisions trial by trial."""
        cfg = MuxConfig(nt=4, nr=4, l=4, j=4, phi_seed=1)
        spec = small_spec(config=cfg)
        zf_spec = small_spec(config=cfg, baseline="zf")
        monkeypatch.setattr(harness, "gen_phi", lambda cfg: MeasurementMatrix(np.eye(1)))
        cs = run_trials(spec, 0, 300, snr_db=10.0)
        zf = run_trials(zf_spec, 0, 300, snr_db=10.0)
        np.testing.assert_array_equal(cs.tx_idx, zf.tx_idx)
        np.testing.assert_array_equal(cs.rx_idx, zf.rx_idx)

    def test_overload_fails_even_noiseless(self):
        """Recovering, say, 8 streams from 4 observations cannot work."""
        spec = small_spec(baseline="overload", snr_db=(INF,), trials=200)
        row = run_sweep(spec).rows[0]
        assert row.ber > 0.1

    def test_overload_with_square_system_reduces_to_zf(self):
        cfg = MuxConfig(nt=4, nr=4, l=4, j=4, phi_seed=1)
        over = small_spec(config=cfg, baseline="overload")
        zf = small_spec(config=cfg, baseline="zf")
        a = run_trials(over, 0, 200, snr_db=10.0)
        b = run_trials(zf, 0, 200, snr_db=10.0)
        np.testing.assert_array_equal(a.rx_idx, b.rx_idx)

    @given(
        m=st.integers(1, 4),
        extra_rx=st.integers(0, 2),
        copies=st.sampled_from([2, 3]),
        constellation=st.sampled_from(["qpsk", "qam16"]),
        snr_db=st.lists(st.floats(-5.0, 40.0), min_size=1, max_size=3, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_overload_decisions_equal_min_norm_least_squares(
        self, m, extra_rx, copies, constellation, snr_db, seed
    ):
        """At finite SNR the overload receiver, ``S^T`` of the ZF estimate,
        decides every symbol as the minimum-norm least-squares solution of
        the composed channel ``H S`` does, for ``nr >= m`` receive antennas."""
        cfg = MuxConfig(nt=m, nr=m + extra_rx, l=copies * m, j=m, constellation=constellation)
        spec = ExperimentSpec(cfg, tuple(snr_db), trials=20, master_seed=seed,
                              baseline="overload", early_stop_errors=0)
        c = get_constellation(constellation)
        stack = np.hstack([np.eye(m)] * copies) / np.sqrt(copies)
        prep = harness._prepare(spec)
        drawn = harness._draw_chunk(prep, 0, spec.trials)
        chunks = harness._detect(prep, drawn, [(0, spec.trials, snr) for snr in spec.snr_db])
        for snr, chunk in zip(spec.snr_db, chunks, strict=True):
            for t in range(spec.trials):
                rng = np.random.default_rng([seed, t])
                x = c.points[symbol_indices(rng.integers(0, 2, size=drawn.tx_bits.shape[1],
                                                         dtype=np.uint8), c)]
                h = sample_channel(cfg.nr, m, rng)
                while not channel_is_usable(h):
                    h = sample_channel(cfg.nr, m, rng)
                y = apply_channel(h, stack @ x, NoiseSpec.from_snr(snr, float(m)), rng)
                x_hat = np.linalg.lstsq(h.h @ stack, y, rcond=None)[0]
                rx_bits = c.labels[nearest_point_indices(x_hat, c)].ravel()
                np.testing.assert_array_equal(c.labels[chunk.rx_idx[t]].ravel(), rx_bits)

    @given(
        baseline=st.sampled_from([None, "zf", "overload"]),
        constellation=st.sampled_from(["qpsk", "qam16"]),
        snr_db=st.sampled_from([-5.0, 5.0, 15.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_bit_errors_equal_the_demapped_count(self, baseline, constellation, snr_db, seed):
        """A chunk's bit errors, read off the label distances of the sent and
        decided points, equal the count of its demapped bits that differ
        from the sent ones, in the scheme and in both baselines."""
        cfg = MuxConfig(nt=2, nr=2, l=4, j=2, phi_seed=seed % 1000, constellation=constellation)
        spec = ExperimentSpec(cfg, (snr_db,), trials=12, master_seed=seed, baseline=baseline,
                              early_stop_errors=0)
        prep = harness._prepare(spec)
        drawn = harness._draw_chunk(prep, 0, spec.trials)
        chunk, = harness._detect(prep, drawn, [(2, spec.trials, snr_db)])
        rx_bits = prep.modem.labels[chunk.rx_idx].reshape(spec.trials - 2, -1)
        np.testing.assert_array_equal(chunk.bit_errors, (drawn.tx_bits[2:] != rx_bits).sum(axis=1))

    def test_baseline_helpers(self):
        """Both baselines slice the ZF estimate and build no codebook."""
        spec = small_spec(snr_db=(INF,), trials=30)
        with mock.patch.object(harness, "Codebook") as built:
            assert run_sweep(replace(spec, baseline="zf")).rows[0].ber == 0.0
            assert run_sweep(replace(spec, baseline="overload")).rows[0].ber > 0.0
        built.assert_not_called()


class TestThroughputAndCi:
    def test_throughput_extremes(self, monkeypatch):
        """A row's throughput is streams x bits per symbol x (1 - ser): all
        16 bits of a (4,4)-8 QPSK channel use without noise, none when
        every symbol is decided wrong."""
        spec = small_spec(snr_db=(INF,), trials=20)
        row, = run_sweep(spec).rows
        assert row.ser == 0.0 and row.throughput == pytest.approx(16.0)
        # the noiseless zf baseline decides every point, each moved to the next index
        nearest = harness.nearest_point_indices
        monkeypatch.setattr(harness, "nearest_point_indices",
                            lambda s, c: (nearest(s, c) + 1) % c.order)
        row, = run_sweep(replace(spec, baseline="zf")).rows
        assert row.ser == 1.0 and row.throughput == pytest.approx(0.0)

    def test_throughput_20x20(self):
        spec = small_spec(config=MuxConfig(nt=20, nr=20, l=40, j=10, phi_seed=880),
                          snr_db=(INF,), trials=5)
        row, = run_sweep(spec).rows
        assert row.ser == 0.0 and row.throughput == pytest.approx(80.0)

    def test_wilson_matches_quadratic_roots(self):
        """The interval endpoints solve (p - p_hat)^2 n = z^2 p (1 - p)."""
        z = 1.959963984540054
        for errors, total in [(5, 100), (0, 50), (50, 50), (200, 3200)]:
            lo, hi = wilson_interval(errors, total)
            p_hat = errors / total
            roots = np.roots(
                [total + z**2, -(2 * total * p_hat + z**2), total * p_hat**2]
            )
            np.testing.assert_allclose(sorted([lo, hi]), np.sort(roots), atol=1e-12)

    @pytest.mark.parametrize("errors, total", [(5, 3), (-1, 10)])
    def test_wilson_errors_outside_the_total_rejected(self, errors, total):
        message = "at most total" if errors >= 0 else r"an integer in 0\.\.2\*\*63-1"
        with pytest.raises(SpecError, match=f"^errors must be {message}$"):
            wilson_interval(errors, total)

    def test_wilson_bounds(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and 0.0 < hi < 1.0
        lo, hi = wilson_interval(10, 10)
        assert hi == pytest.approx(1.0) and 0.0 < lo < 1.0


class TestConfigFiles:
    def test_grid_parsing(self):
        assert parse_snr_grid("0:2:6") == (0.0, 2.0, 4.0, 6.0)
        # a grid never passes its stop
        assert parse_snr_grid("0:4:10") == (0.0, 4.0, 8.0)
        assert parse_snr_grid("0:2:1") == (0.0,)
        assert parse_snr_grid("5:10:20") == (5.0, 15.0)
        assert parse_snr_grid("0:0.1:0.3") == (0.0, 0.1, 0.2, 0.3)
        assert parse_snr_grid("1,3,9") == (1.0, 3.0, 9.0)
        assert parse_snr_grid([0, 5]) == (0.0, 5.0)
        assert parse_snr_grid("inf") == (INF,)
        assert parse_snr_grid(7) == (7.0,)

    def test_grid_rejects_bad_spec(self):
        with pytest.raises(SpecError, match="^snr_db start:step:stop needs a positive finite step$"):
            parse_snr_grid("0:0:10")
        with pytest.raises(SpecError, match="^snr_db must be start:step:stop, a comma list or a number$"):
            parse_snr_grid("0:2")
        for grid in ("0:2:", "1,x", "nan", "-inf,0"):
            with pytest.raises(SpecError, match=DB_RANGE):
                parse_snr_grid(grid)
        with pytest.raises(SpecError, match="^snr_db start:step:stop needs a finite start and stop$"):
            parse_snr_grid("0:2:inf")
        with pytest.raises(SpecError, match="^snr_db must not repeat a point$"):
            small_spec(snr_db=parse_snr_grid("5,5"))

    def test_range_points_are_the_decimals_written(self):
        assert parse_snr_grid("0:0.1:0.3") == parse_snr_grid("0,0.1,0.2,0.3")
        assert parse_snr_grid("0:0.2:1") == parse_snr_grid("0,0.2,0.4,0.6,0.8,1")
        assert parse_snr_grid("-1.5:0.5:0") == (-1.5, -1.0, -0.5, 0.0)

    def test_ranges_in_use_parse_as_before(self):
        """The shipped, golden, CLI and test ranges keep the floats that
        ``start + i * step`` in binary gave them."""
        for grid in ("0:2:20", "0:10:10", "0:10:20", "0:2:6", "0:4:10", "0:2:1", "5:10:20"):
            start, step, stop = map(float, grid.split(":"))
            n = int(np.floor((stop - start) / step + 1e-9)) + 1
            assert parse_snr_grid(grid) == tuple(start + i * step for i in range(n)), grid

    def test_range_point_count_is_bounded(self):
        """A range of more than 10 000 points fails before any is built."""
        assert len(parse_snr_grid("0:0.1:999.9")) == 10_000
        for grid in ("0:0.1:1000", "0:1e-9:1e3", "0:1e-999999:1e3", "2:1:1"):
            with pytest.raises(SpecError, match=r"^snr_db must hold 1\.\.10000 points$"):
                parse_snr_grid(grid)
        with pytest.raises(SpecError, match=r"^snr_db must hold 1\.\.10000 points$"):
            small_spec(snr_db="0:1e-9:1e3")
        with pytest.raises(SpecError, match="^snr_db start:step:stop needs a positive finite step$"):
            parse_snr_grid("0:x:1")
        with pytest.raises(SpecError, match=DB_RANGE):
            parse_snr_grid("0:1:1e")

    def test_booleans_are_not_db_values(self):
        """``true`` in a config grid or as a trial's SNR is not 1 dB."""
        raw = {"nt": 4, "nr": 4, "l": 8, "j": 2, "trials": 1}
        for grid in (True, [False, True], np.True_, np.array([0.0, 1.0]) > 0.5):
            with pytest.raises(SpecError, match=DB_RANGE):
                spec_from_dict({**raw, "snr_db": grid})
        for snr in (True, np.False_):
            with pytest.raises(SpecError, match=DB_RANGE):
                run_trials(small_spec(), 0, snr_db=snr)

    def test_overflowing_points_rejected(self, tmp_path):
        """A finite dB value beyond the float range, or past the dB range,
        fails in one line that names the field and its range, as text, a
        JSON number, an integer of any length, a ``longdouble``, a
        ``Fraction`` or a trial's SNR; the line shows no value.  A config
        integer past Python's 4300-digit limit fails as the file.  Only an
        infinite spelling or number is a noiseless point."""
        raw = {"nt": 4, "nr": 4, "l": 8, "j": 2, "trials": 1}
        big, huge = 10**400, 10**5000
        for grid in ("1e400", "0, -1e400", "0:1:1e400", "1001", big, [0, big], huge, [0, huge],
                     (0, -huge), np.longdouble("1e400"), -np.longdouble("1e400"),
                     Fraction(10**400), Fraction(-(10**400), 3)):
            with pytest.raises(SpecError, match=DB_RANGE):
                spec_from_dict({**raw, "snr_db": grid})
            with pytest.raises(SpecError, match=DB_RANGE):
                parse_snr_grid(grid)
        for snr in ("1e400", big, huge, np.longdouble("1e400"), Fraction(10**400)):
            with pytest.raises(SpecError, match=DB_RANGE):
                run_trials(small_spec(), 0, snr_db=snr)
        path = tmp_path / "cfg.json"
        for number in ("1e400", "1" + "0" * 400):
            path.write_text(json.dumps({**raw, "snr_db": 0}).replace(": 0", ": " + number))
            with pytest.raises(SpecError, match=DB_RANGE):
                load_spec(path)
        # json.dumps cannot write huge, so its digits go in as text
        path.write_text(json.dumps({**raw, "snr_db": 0}).replace(": 0", ": 1" + "0" * 5000))
        with pytest.raises(SpecError, match=f"^config {re.escape(str(path))} is not readable JSON"):
            load_spec(path)
        for grid in ("inf", " Infinity", INF, [INF]):
            assert spec_from_dict({**raw, "snr_db": grid}).snr_db == (INF,)
        assert run_trials(small_spec(), 0, snr_db="inf").snr_db == INF
        # numbers in the range read as float() reads them
        for point, read in ((np.longdouble("inf"), INF), (INF, INF), (Fraction(1, 3), 1 / 3),
                            (np.float32(0.1), 0.10000000149011612)):
            assert parse_snr_grid(point) == (read,)
            assert run_trials(small_spec(), 0, snr_db=point).snr_db == read

    def test_unknown_keys_rejected(self):
        raw = {"nt": 2, "nr": 2, "l": 4, "j": 2, "snr_db": [0], "trials": 1,
               "turbo": True}
        with pytest.raises(ValueError, match="unknown config keys"):
            spec_from_dict(raw)

    def test_integral_json_numbers_only(self):
        raw = {"nt": 4, "nr": 4, "l": 8, "j": 2, "snr_db": [0], "trials": 1e5}
        spec = spec_from_dict(raw)
        assert spec.trials == 100_000 and type(spec.trials) is int
        for key, value in (("nt", 4.9), ("trials", 2.7), ("early_stop_errors", True),
                           ("phi_seed", "3")):
            with pytest.raises(SpecError, match=f"^{key} must be an integer in "):
                spec_from_dict({**raw, key: value})

    def test_keys_are_the_declared_fields(self):
        """Config keys are both classes' fields but ``config``; the required
        ones are exactly those without a default."""
        declared = [f for cls in (MuxConfig, ExperimentSpec) for f in fields(cls)
                    if f.name != "config"]
        required = sorted(f.name for f in declared if f.default is MISSING)
        with pytest.raises(ValueError, match=re.escape(f"missing config keys: {required}")):
            spec_from_dict({})
        full = {"nt": 4, "nr": 4, "l": 8, "j": 2, "phi_seed": 880, "constellation": "qpsk",
                "dictionary_cap": 256, "snr_db": [0], "trials": 3, "master_seed": 2,
                "solver": "omp", "baseline": "zf", "early_stop_errors": 5}
        assert set(full) == {f.name for f in declared}
        spec = spec_from_dict(full)
        got = {**vars(spec.config), **vars(spec)}
        del got["config"]
        assert got == {**full, "snr_db": (0.0,)}
        with pytest.raises(ValueError, match=r"unknown config keys: \['config'\]"):
            spec_from_dict({**full, "config": {}})

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing config keys"):
            spec_from_dict({"nt": 2, "nr": 2})

    def test_load_roundtrip(self, tmp_path):
        raw = {
            "nt": 4, "nr": 4, "l": 8, "j": 2, "phi_seed": 880,
            "snr_db": "0:10:20", "trials": 7, "master_seed": 3,
            "solver": "ml", "baseline": "none", "early_stop_errors": 0,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        spec = load_spec(path)
        assert spec.notation == "(4,4)-8"
        assert spec.snr_db == (0.0, 10.0, 20.0)
        assert spec.trials == 7
        assert spec.baseline is None

    def test_shipped_recipes_load(self):
        from conftest import recipe_path

        for name, notation in [
            ("mimo2x2_l4.json", "(2,2)-4"),
            ("mimo4x4_l8.json", "(4,4)-8"),
            ("mimo20x20_l40.json", "(20,20)-40"),
        ]:
            spec = load_spec(recipe_path(name))
            assert spec.notation == notation


def _perfbench_module(name: str):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    found = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    return module


def test_benchmark_span_targets_resolve():
    """Every ``(module, attribute)`` that the benchmark's tracer,
    ``perfbench/spans.py``, wraps by name still resolves to a function: a
    change that drops one (``harness.build_dictionary``, say) would
    otherwise fail only the traced benchmark runs.  The benchmark's
    workloads, ``perfbench/workloads.py``, which read the recipes through
    ``csmimo.harness``, still build."""
    spans = _perfbench_module("spans")
    assert spans.TARGETS
    for module, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"csmimo.{module}"), attr, None)), (
            f"csmimo.{module}.{attr}"
        )
    workloads = _perfbench_module("workloads")
    assert len(workloads.NAMES) == 4
    for name in workloads.NAMES:
        specs = workloads.build(name, workloads.DEFAULT_SEED)
        assert specs and all(isinstance(spec, ExperimentSpec) for spec in specs), name
