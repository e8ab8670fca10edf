"""The chunked trial engine against a sequential, one-trial-at-a-time oracle.

``_sequential_trial`` is the per-trial receiver path coded directly from the
public functions, one unstacked call each, with plain ZF slicing for the
``zf`` baseline and, for ``overload``, ZF of the channel spread back over
each stream's copies.  ``_sequential_rows`` aggregates it under the sequential
early-stop rule.  ``run_sweep`` and ``run_trial`` must reproduce both
exactly, whatever the chunk sizes.
"""

from contextlib import nullcontext
from dataclasses import replace
from importlib.resources import files
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csmimo.harness as harness
from csmimo.channel import ChannelRealization, NoiseSpec, apply_channel, received, sample_channel
from csmimo.csmux import MuxConfig, gen_phi, multiplex
from csmimo.detection import Codebook, channel_is_usable, demux, zf_equalize
from csmimo.errors import RankDeficientChannel
from csmimo.harness import (ExperimentSpec, load_spec, run_sweep, run_trial, throughput_proxy,
                            wilson_interval)
from csmimo.modem import get_constellation, nearest_point_indices, symbol_indices

INF = float("inf")


def _sequential_trial(spec, t, snr_db):
    """One trial: ``(tx_bits, rx_bits, symbol_errors, redraws)``.

    Draws from the generator of ``(master_seed, t)`` in the order bits,
    channel (redrawn until usable), noise.  Channels come from
    ``harness.sample_channel`` so that tests can patch it for both sides.
    """
    cfg = spec.config
    c = get_constellation(cfg.constellation)
    rng = np.random.default_rng([spec.master_seed, t])
    tx_bits = rng.integers(0, 2, size=spec.streams * c.bits_per_symbol, dtype=np.uint8)
    tx_idx = symbol_indices(tx_bits, c)
    x = c.points[tx_idx]
    noise = NoiseSpec.from_snr(snr_db, float(cfg.m))
    redraws = 0
    h = harness.sample_channel(cfg.nr, cfg.m, rng)
    while not channel_is_usable(h):
        redraws += 1
        if redraws > 1000:
            raise RankDeficientChannel("no usable channel in 1000 redraws")
        h = harness.sample_channel(cfg.nr, cfg.m, rng)

    if spec.baseline == "overload":
        copies = cfg.l // cfg.m
        stack = np.hstack([np.eye(cfg.m)] * copies) / np.sqrt(copies)
        y = apply_channel(h, stack @ x, noise, rng)
        rx_idx = nearest_point_indices(stack.T @ zf_equalize(y, h).z_hat, c)
    elif spec.baseline == "zf":
        y = apply_channel(h, x, noise, rng)
        rx_idx = nearest_point_indices(zf_equalize(y, h).z_hat, c)
    else:
        phi = gen_phi(cfg)
        y = apply_channel(h, multiplex(x, phi, cfg), noise, rng)
        rec = demux(y, h, Codebook(cfg, phi), solver=spec.solver)
        rx_idx = nearest_point_indices(rec.x_hat, c)
    rx_bits = c.labels[rx_idx].ravel()
    return tx_bits, rx_bits, int(np.sum(tx_idx != rx_idx)), redraws


def _sequential_rows(spec):
    """Sweep rows from one trial at a time, stopping after the first trial
    whose cumulative bit errors reach ``early_stop_errors``."""
    rows = []
    for snr in spec.snr_db:
        trials = bits = bit_errors = sym_errors = redraws = 0
        for t in range(spec.trials):
            tx, rx, sym, red = _sequential_trial(spec, t, snr)
            trials += 1
            bits += tx.size
            bit_errors += int(np.sum(tx != rx))
            sym_errors += sym
            redraws += red
            if spec.early_stop_errors and bit_errors >= spec.early_stop_errors:
                break
        ci_low, ci_high = wilson_interval(bit_errors, bits)
        row = harness.SweepRow(snr, trials, bits, bit_errors, bit_errors / bits, sym_errors,
                               sym_errors / (trials * spec.streams), 0.0, ci_low, ci_high,
                               redraws)
        rows.append(replace(row, throughput=throughput_proxy(row, spec)))
    return tuple(rows)


def _fixed_chunks(size):
    """Patch the engine to cut every SNR point into chunks of ``size`` trials."""
    return mock.patch.object(
        harness, "_chunk_size", lambda spec, cap, done, errors: min(spec.trials - done, size)
    )


# (nt, nr, l, j, constellation): per-block dictionaries of 16 to 256 columns
SETUPS = (
    (2, 2, 4, 2, "qpsk"),
    (4, 4, 8, 2, "qpsk"),
    (2, 3, 4, 2, "qpsk"),
    (2, 2, 4, 2, "qam16"),
    (2, 2, 2, 2, "qam16"),
)


@st.composite
def _small_specs(draw):
    nt, nr, l, j, name = draw(st.sampled_from(SETUPS))
    snr = st.one_of(st.just(INF), st.floats(-5.0, 30.0))
    return ExperimentSpec(
        config=MuxConfig(nt=nt, nr=nr, l=l, j=j, constellation=name,
                         phi_seed=draw(st.integers(0, 1000))),
        snr_db=tuple(draw(st.lists(snr, min_size=1, max_size=4, unique=True))),
        trials=draw(st.integers(1, 60)),
        master_seed=draw(st.integers(0, 1000)),
        solver=draw(st.sampled_from(["ml", "omp", "oneshot"])),
        baseline=draw(st.sampled_from([None, "zf", "overload"])),
        early_stop_errors=draw(st.sampled_from([0, 1, 3, 10, 40])),
    )


@given(spec=_small_specs(), cap=st.sampled_from([1, 2, 3, 7, None]))
@settings(max_examples=80, deadline=None)
def test_chunked_engine_matches_sequential_oracle(spec, cap):
    """Rows and per-trial bits equal the one-at-a-time oracle for any chunk cap."""
    with mock.patch.object(harness, "_chunk_cap", lambda cfg, scan: cap) if cap else nullcontext():
        assert run_sweep(spec).rows == _sequential_rows(spec)
        snr = spec.snr_db[0]
        for t in range(min(spec.trials, 3)):
            rec = run_trial(spec, t, snr)
            tx, rx, sym, red = _sequential_trial(spec, t, snr)
            np.testing.assert_array_equal(rec.tx_bits, tx)
            np.testing.assert_array_equal(rec.rx_bits, rx)
            assert (rec.symbol_errors, rec.redraws) == (sym, red)


def _stop_spec(**kw):
    defaults = dict(config=MuxConfig(nt=4, nr=4, l=8, j=2, phi_seed=880), snr_db=(4.0,),
                    trials=200, master_seed=3, early_stop_errors=30)
    defaults.update(kw)
    return ExperimentSpec(**defaults)


@pytest.mark.parametrize("where", ["inside", "last"])
def test_early_stop_inside_and_at_end_of_chunk(where):
    spec = _stop_spec()
    expected = _sequential_rows(spec)
    stop = expected[0].trials  # trials run, the last of them reaches the threshold
    assert 1 < stop < spec.trials
    size = stop if where == "last" else stop + 3
    with _fixed_chunks(size):
        assert run_sweep(spec).rows == expected


class _RankDeficientOn:
    """``sample_channel`` that makes chosen draws of chosen trials rank deficient.

    ``chosen`` maps a trial index to the 0-based draw numbers to spoil, or to
    ``"all"``.  The real draw is made first, so the stream advances as usual.
    :meth:`patch` also spoils the first channels the engine draws for a chunk
    through ``_draw``; the engine replays such a trial through
    ``sample_channel``, where the same draws are spoiled again.
    """

    def __init__(self, chosen):
        self.chosen = chosen
        self.calls = {}

    def _spoils(self, t, draw):
        spoil = self.chosen.get(t, ())
        return spoil == "all" or draw in spoil

    def __call__(self, nr, m_tx, rng):
        h = sample_channel(nr, m_tx, rng)
        held = self.calls.setdefault(id(rng), [rng, 0])
        draw = held[1]
        held[1] += 1
        if self._spoils(rng.bit_generator.seed_seq.entropy[1], draw):
            return ChannelRealization(np.zeros((nr, m_tx), dtype=complex))
        return h

    def patch(self, monkeypatch):
        chunk_draw = harness._draw

        def draw(seed, t0, n, nbits, nr, m_tx):
            bits, h, noise = chunk_draw(seed, t0, n, nbits, nr, m_tx)
            for i in range(n):
                if self._spoils(t0 + i, 0):
                    h[i] = 0
            return bits, h, noise

        monkeypatch.setattr(harness, "sample_channel", self)
        monkeypatch.setattr(harness, "_draw", draw)


@pytest.mark.parametrize("baseline", [None, "zf", "overload"])
def test_redraws_inside_a_chunk_land_on_their_trial(monkeypatch, baseline):
    """Trial 2 redraws twice and trial 4 once, inside one chunk of 10.  Each
    trial keeps its redraws and draws its noise after them, at every point,
    in the scheme and in both baselines."""
    _RankDeficientOn({2: {0, 1}, 4: {0}}).patch(monkeypatch)
    spec = _stop_spec(snr_db=(0.0, 10.0), trials=10, early_stop_errors=0, baseline=baseline)
    prep = harness._prepare(spec)
    assert prep.chunk_cap >= 10
    for snr, chunk in zip(spec.snr_db, harness._run_chunk(prep, 0, 10, spec.snr_db)):
        for t in range(10):
            tx, rx, sym, red = _sequential_trial(spec, t, snr)
            np.testing.assert_array_equal(chunk.tx_bits[t], tx)
            np.testing.assert_array_equal(chunk.rx_bits[t], rx)
            assert (chunk.symbol_errors[t], chunk.redraws[t]) == (sym, red)
        assert chunk.redraws.tolist() == [0, 0, 2, 0, 1, 0, 0, 0, 0, 0]
    with _fixed_chunks(10):
        assert run_sweep(spec).rows == _sequential_rows(spec)


def _stops(spec):
    """Trials each point runs one at a time; each is below the cap."""
    stops = [row.trials for row in _sequential_rows(spec)]
    assert max(stops) < spec.trials
    return stops


def test_failure_past_the_stop_does_not_surface(monkeypatch):
    """A trial that would raise after the early-stop trial is never reached
    one at a time, so a chunk that holds it must not fail the sweep.  With
    two points, a trial past both stops is never reached either."""
    for snr_db in [(4.0,), (4.0, 16.0)]:
        spec = _stop_spec(snr_db=snr_db)
        stops = _stops(spec)
        with monkeypatch.context() as patched:
            _RankDeficientOn({max(stops) + 1: "all"}).patch(patched)
            with _fixed_chunks(spec.trials):
                assert run_sweep(spec).rows == _sequential_rows(spec)


def test_failure_before_the_stop_surfaces(monkeypatch):
    """A trial the sequential rule reaches raises, also when only the
    high-SNR point reaches it, past the low-SNR point's stop."""
    one = _stop_spec()
    two = _stop_spec(snr_db=(4.0, 16.0))
    low, high = _stops(two)
    assert low + 1 < high
    for spec, bad in [(one, _stops(one)[0] - 1), (two, low + 1)]:
        with monkeypatch.context() as patched:
            _RankDeficientOn({bad: "all"}).patch(patched)
            with _fixed_chunks(spec.trials), pytest.raises(RankDeficientChannel, match="redraws"):
                run_sweep(spec)


RECIPES = ("mimo2x2_l4", "mimo4x4_l8", "mimo20x20_l40")


def _recipe(name, **kw):
    return replace(load_spec(files("csmimo") / "recipes" / f"{name}.json"), **kw)


@given(
    recipe=st.sampled_from(RECIPES),
    baseline=st.sampled_from([None, "zf", "overload"]),
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96)),
    chunkings=st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=4), min_size=1,
                       max_size=3),
)
@example(recipe="mimo2x2_l4", baseline="zf", seed=1, chunkings=[[3], [2, 2]])
@settings(max_examples=60, deadline=None)
def test_streams_equal_a_fresh_generator_per_trial(recipe, baseline, seed, chunkings):
    """In any chunking, the chunk draw gives each trial the bits, channel and
    noise a fresh generator draws through ``integers``, ``sample_channel``
    and ``apply_channel``, and leaves the trial's generator in the same
    state.  The (2,2)-4 ``zf`` bits take half of a 64-bit word and leave
    the other half buffered in that state."""
    spec = _recipe(recipe, baseline=baseline, master_seed=seed)
    cfg = spec.config
    nbits = spec.streams * get_constellation(cfg.constellation).bits_per_symbol
    noise = NoiseSpec(10.0, 0.3)
    z = np.linspace(-1.0, 1.0, cfg.m) * (1 - 0.5j)
    fresh, built = np.random.default_rng, []

    def build(key):
        built.append(fresh(key))
        return built[-1]

    for sizes in chunkings:
        t0 = 0
        for n in sizes:
            built.clear()
            with mock.patch("numpy.random.default_rng", build):
                bits, h, normals = harness._draw(seed, t0, n, nbits, cfg.nr, cfg.m)
            y = received(h, np.broadcast_to(z, (n, cfg.m)), noise, normals)
            assert len(built) == n
            for i, t in enumerate(range(t0, t0 + n)):
                rng = fresh([seed, t])
                np.testing.assert_array_equal(
                    bits[i], rng.integers(0, 2, size=nbits, dtype=np.uint8))
                channel = sample_channel(cfg.nr, cfg.m, rng)
                np.testing.assert_array_equal(h[i], channel.h)
                np.testing.assert_array_equal(y[i], apply_channel(channel, z, noise, rng))
                assert built[i].bit_generator.state == rng.bit_generator.state
            t0 += n


def _trial_generators(rng_mock):
    """Trial indices of the ``default_rng([master_seed, t])`` calls, sorted."""
    return sorted(c.args[0][1] for c in rng_mock.call_args_list if isinstance(c.args[0], list))


def test_one_generator_per_trial_index_and_per_redrawn_trial(monkeypatch):
    """A sweep builds each trial index's generator once, plus one for each
    trial whose first channel is not usable, whatever the number of SNR
    points; a second sweep builds the same ones again."""
    _RankDeficientOn({2: {0}, 5: {0, 1}}).patch(monkeypatch)
    spec = _stop_spec(snr_db=(0.0, 10.0, 20.0), trials=12, early_stop_errors=0)
    built = []
    for _ in range(2):
        with mock.patch("numpy.random.default_rng", wraps=np.random.default_rng) as rng:
            rows = run_sweep(spec).rows
        built.append(_trial_generators(rng))
    assert [r.redraws for r in rows] == [3, 3, 3]
    assert built == [sorted([*range(12), 2, 5])] * 2


def test_run_trial_seeds_only_its_trial():
    spec = _stop_spec()
    run_trial(spec, 0)
    with mock.patch("numpy.random.default_rng", wraps=np.random.default_rng) as rng:
        run_trial(spec, 7)
    assert rng.call_args_list == [mock.call([spec.master_seed, 7])]


def test_oneshot_sweep_factors_each_chunk_once():
    """Every SNR point of a ``oneshot`` sweep detects a chunk with the QR
    made once for that chunk's channels."""
    spec = _stop_spec(snr_db=(0.0, 10.0, 20.0), trials=60, solver="oneshot")
    with mock.patch.object(harness, "_run_chunk", wraps=harness._run_chunk) as chunks, \
            mock.patch("numpy.linalg.qr", wraps=np.linalg.qr) as qr:
        rows = run_sweep(spec).rows
    assert chunks.call_count >= 2
    assert qr.call_count == chunks.call_count
    assert rows == _sequential_rows(spec)


def test_a_qam16_ml_chunk_holds_many_trials():
    """The ``ml`` half-scans of a (4,4)-8 QAM16 trial score 2 x 2 x 256 I/Q
    level tuples, 8 kB, not the 2 x 65536 dictionary columns, so a chunk
    holds many trials."""
    cfg = MuxConfig(nt=4, nr=4, l=8, j=2, constellation="qam16")
    assert harness._chunk_cap(cfg, "ml") >= 64


def test_a_qam16_omp_chunk_holds_one_trial():
    """The ``omp`` pick holds 32 B for each of a (4,4)-8 QAM16 trial's
    2 x 65536 candidates, 4 MB, so a chunk holds one trial."""
    cfg = MuxConfig(nt=4, nr=4, l=8, j=2, constellation="qam16")
    assert harness._chunk_cap(cfg, "omp") == 1
