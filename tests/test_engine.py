"""The chunked trial engine against a sequential, one-trial-at-a-time oracle.

``_sequential_trial`` is the per-trial receiver path coded directly from the
public functions, one unstacked call each, with plain ZF slicing for the
``zf`` baseline and, for ``overload``, ZF of the channel spread back over
each stream's copies; every ZF estimate is formed in noise space, as
``z + s·H⁺u``.  ``_sequential_rows`` aggregates it under the sequential
early-stop rule.  ``run_sweep``, and single trials read through
``conftest.run_trials``, must reproduce both exactly, whatever the chunk
sizes.
"""

import os
import subprocess
import sys
from contextlib import ExitStack, nullcontext
from dataclasses import replace
from importlib.resources import files
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import csmimo
import csmimo.harness as harness
from csmimo.channel import (ChannelRealization, NoiseSpec, apply_channel, gains, noisy,
                            sample_channel, unit_noise)
from csmimo.csmux import MuxConfig, gen_phi, multiplex
from csmimo.detection import Codebook, demux, zf_equalize
from csmimo.errors import RankDeficientChannel
from csmimo.harness import ExperimentSpec, load_spec, run_sweep, wilson_interval
from csmimo.modem import get_constellation, nearest_point_indices, symbol_indices

from conftest import run_trials

INF = float("inf")


def _sequential_trial(spec, t, snr_db):
    """One trial: ``(tx_bits, rx_bits, symbol_errors)``.

    Draws from the generator of ``(master_seed, t)`` in the order bits,
    channel, noise, and keeps the channel it draws; the ZF receivers'
    ``zf_equalize`` raises for one that is not of full column rank.  The
    channel comes from this module's ``sample_channel``, which
    :class:`_RankDeficientOn` patches.  ZF is linear, so the ZF receivers'
    estimate of the receive vector ``h z + s·u`` is formed as
    ``z + s·H⁺u``, from the same normals
    ``apply_channel`` draws for ``u``; only ``oneshot`` reads the receive
    vector itself.
    """
    cfg = spec.config
    c = get_constellation(cfg.constellation)
    rng = np.random.default_rng([spec.master_seed, t])
    tx_bits = rng.integers(0, 2, size=spec.streams * c.bits_per_symbol, dtype=np.uint8)
    tx_idx = symbol_indices(tx_bits, c)
    x = c.points[tx_idx]
    noise = NoiseSpec.from_snr(snr_db, float(cfg.m))
    h = sample_channel(cfg.nr, cfg.m, rng)

    def zf_estimate(z):
        return z + noise.scale * zf_equalize(unit_noise(rng.standard_normal(2 * cfg.nr)), h)

    if spec.baseline == "overload":
        copies = cfg.l // cfg.m
        stack = np.hstack([np.eye(cfg.m)] * copies) / np.sqrt(copies)
        rx_idx = nearest_point_indices(stack.T @ zf_estimate(stack @ x), c)
    elif spec.baseline == "zf":
        rx_idx = nearest_point_indices(zf_estimate(x), c)
    else:
        code = Codebook(cfg, gen_phi(cfg))
        if spec.solver == "oneshot":
            y = apply_channel(h, multiplex(x, code), noise, rng)
            rec = demux(y, code, "oneshot", h=h)
        else:
            rec = demux(zf_estimate(multiplex(x, code)), code, spec.solver)
        rx_idx = nearest_point_indices(rec.x_hat, c)
    rx_bits = c.labels[rx_idx].ravel()
    return tx_bits, rx_bits, int(np.sum(tx_idx != rx_idx))


def _sequential_rows(spec):
    """Sweep rows from one trial at a time, stopping after the first trial
    whose cumulative bit errors reach ``early_stop_errors``."""
    rows = []
    b = get_constellation(spec.config.constellation).bits_per_symbol
    for snr in spec.snr_db:
        trials = bits = bit_errors = sym_errors = 0
        for t in range(spec.trials):
            tx, rx, sym = _sequential_trial(spec, t, snr)
            trials += 1
            bits += tx.size
            bit_errors += int(np.sum(tx != rx))
            sym_errors += sym
            if spec.early_stop_errors and bit_errors >= spec.early_stop_errors:
                break
        ci_low, ci_high = wilson_interval(bit_errors, bits)
        ser = sym_errors / (trials * spec.streams)
        rows.append(harness.SweepRow(snr, trials, bits, bit_errors, bit_errors / bits, sym_errors,
                                     ser, spec.streams * b * (1.0 - ser), ci_low, ci_high))
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
    baseline = draw(st.sampled_from([None, "zf", "overload"]))
    # the spec rejects omp for the scheme's one-row sub-blocks
    solvers = ["ml", "omp", "oneshot"] if baseline or min(nt, nr) > j else ["ml", "oneshot"]
    return ExperimentSpec(
        config=MuxConfig(nt=nt, nr=nr, l=l, j=j, constellation=name,
                         phi_seed=draw(st.integers(0, 1000))),
        snr_db=tuple(draw(st.lists(snr, min_size=1, max_size=4, unique=True))),
        trials=draw(st.integers(1, 60)),
        master_seed=draw(st.integers(0, 1000)),
        solver=draw(st.sampled_from(solvers)),
        baseline=baseline,
        early_stop_errors=draw(st.sampled_from([0, 1, 3, 10, 40])),
    )


@given(spec=_small_specs(), cap=st.sampled_from([1, 2, 3, 7, None]))
@settings(max_examples=80, deadline=None)
def test_chunked_engine_matches_sequential_oracle(spec, cap):
    """Rows and per-trial bits equal the one-at-a-time oracle for any chunk cap."""
    with mock.patch.object(harness, "_chunk_cap", lambda cfg, scan: cap) if cap else nullcontext():
        assert run_sweep(spec).rows == _sequential_rows(spec)
        snr, n = spec.snr_db[0], min(spec.trials, 3)
        rec = run_trials(spec, 0, n, snr)
        labels = get_constellation(spec.config.constellation).labels
        for t in range(n):
            tx, rx, sym = _sequential_trial(spec, t, snr)
            np.testing.assert_array_equal(labels[rec.tx_idx[t]].ravel(), tx)
            np.testing.assert_array_equal(labels[rec.rx_idx[t]].ravel(), rx)
            assert rec.symbol_errors[t] == sym


# (solver or baseline, setup) pairs a spec accepts: omp needs m/j >= 2
_MODES = [(mode, s) for mode in ("ml", "omp", "oneshot", "zf", "overload") for s in SETUPS
          if mode != "omp" or min(s[:2]) > s[3]]

# slices (lo, hi, snr_db) of a 12-trial chunk, which may overlap; the
# spec's grid is their points
_SLICES = st.lists(
    st.tuples(st.integers(0, 11), st.integers(1, 12),
              st.one_of(st.just(INF), st.floats(-5.0, 30.0)))
    .map(lambda s: (min(s[0], s[1] - 1), s[1], s[2])),
    min_size=2, max_size=5)


@given(mode=st.sampled_from(_MODES), slices=_SLICES, seed=st.integers(0, 1000))
@example(mode=("overload", SETUPS[0]), slices=[(0, 12, INF), (3, 9, 5.0), (0, 12, INF)], seed=3)
@example(mode=("oneshot", SETUPS[1]), slices=[(0, 12, INF), (4, 6, 0.0), (5, 12, 30.0)], seed=7)
@settings(max_examples=80, deadline=None)
def test_a_pass_decides_each_slice_as_it_does_alone(mode, slices, seed):
    """One ``_detect`` pass stacks several points' slices of a drawn chunk,
    which may repeat trials, and a noiseless ``inf`` point among them: each
    slice's decided point indices, bit errors and symbol errors are bit for
    bit those of the slice detected alone, for the ``ml``, ``omp`` and
    ``oneshot`` solvers and both baselines."""
    mode, (nt, nr, l, j, name) = mode
    baseline = mode if mode in ("zf", "overload") else None
    spec = ExperimentSpec(MuxConfig(nt=nt, nr=nr, l=l, j=j, constellation=name, phi_seed=seed),
                          {snr for *_, snr in slices}, trials=12, master_seed=seed,
                          solver="ml" if baseline else mode, baseline=baseline)
    slices = [(lo, hi, spec.snr_db.index(snr)) for lo, hi, snr in slices]
    prep = harness._prepare(spec)
    drawn = harness._draw_chunk(prep, 0, 12)
    together = harness._detect(prep, drawn, slices)
    for piece, got in zip(slices, together, strict=True):
        alone, = harness._detect(prep, drawn, [piece])
        assert len(got.rx_idx) == piece[1] - piece[0]
        for a, b in zip(got, alone, strict=True):
            np.testing.assert_array_equal(a, b)


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
    """Makes the first channel of each of ``trials`` all zeros, so rank
    deficient, both where a sweep draws its chunks, ``harness._draw``, and
    where the oracle draws one trial, this module's ``sample_channel``.  The
    real draw is made first, so the stream advances as usual."""

    def __init__(self, trials):
        self.trials = set(trials)

    def patch(self, monkeypatch):
        chunk_draw, one_draw = harness._draw, sample_channel

        def draw(seed, t0, n, nbits, nr, m_tx):
            bits, h, noise = chunk_draw(seed, t0, n, nbits, nr, m_tx)
            h[[i for i in range(n) if t0 + i in self.trials]] = 0
            return bits, h, noise

        def sample(nr, m_tx, rng):
            h = one_draw(nr, m_tx, rng)
            if rng.bit_generator.seed_seq.entropy[1] in self.trials:
                return ChannelRealization(np.zeros_like(h.h))
            return h

        monkeypatch.setattr(harness, "_draw", draw)
        monkeypatch.setattr(sys.modules[__name__], "sample_channel", sample)


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
            _RankDeficientOn({max(stops) + 1}).patch(patched)
            with _fixed_chunks(spec.trials):
                assert run_sweep(spec).rows == _sequential_rows(spec)


def test_failure_before_the_stop_surfaces(monkeypatch):
    """A rank-deficient first channel of a trial the sequential rule
    reaches fails the sweep with the oracle's ``zf_equalize`` error, also
    when only the high-SNR point reaches it, past the low-SNR point's stop."""
    one = _stop_spec()
    two = _stop_spec(snr_db=(4.0, 16.0))
    low, high = _stops(two)
    assert low + 1 < high
    for spec, bad in [(one, _stops(one)[0] - 1), (two, low + 1)]:
        with monkeypatch.context() as patched:
            _RankDeficientOn({bad}).patch(patched)
            with _fixed_chunks(spec.trials):
                got = _outcome(lambda s: run_sweep(s).rows, spec)
            assert got == _outcome(_sequential_rows, spec)
        assert got == (RankDeficientChannel, ("condition number nan is not below 1/RANK_TOL",))


def test_oneshot_keeps_a_rank_deficient_channel(monkeypatch):
    """``oneshot`` needs no inverse and checks no channel: a sweep whose
    trials 2 and 5 keep an all-zero first channel runs through them, with
    the oracle's rows."""
    _RankDeficientOn({2, 5}).patch(monkeypatch)
    spec = _stop_spec(snr_db=(0.0, 10.0), trials=12, early_stop_errors=0, solver="oneshot")
    assert run_sweep(spec).rows == _sequential_rows(spec)


class _Injected(Exception):
    """The failure :class:`_Schedule` plants at one SNR point and trial."""


class _Schedule:
    """Records what a sweep draws and detects.

    ``drawn`` holds the ``(t0, n)`` of each ``_draw`` call, ``detected``
    the ``(snr_db, first, end)`` trial range of each slice of each
    ``_detect`` pass, and ``passes`` the number of trials of each pass.
    With ``fail_at = (snr_db, t)``, a pass with a slice that holds trial
    ``t`` at ``snr_db`` raises :class:`_Injected`, and so does the
    sequential oracle's trial ``t`` at that point.
    """

    def __init__(self, fail_at=None):
        self.fail_at = fail_at
        self.drawn, self.detected, self.passes = [], [], []
        self._starts = {}

    def _draw(self, seed, t0, n, *args):
        self.drawn.append((t0, n))
        return self._originals["_draw"](seed, t0, n, *args)

    def _draw_chunk(self, prep, t0, n):
        drawn = self._originals["_draw_chunk"](prep, t0, n)
        self._starts[id(drawn)] = t0
        return drawn

    def _detect(self, prep, drawn, slices):
        t0 = self._starts[id(drawn)]
        self.passes.append(sum(hi - lo for lo, hi, _ in slices))
        points = [(lo, hi, prep.spec.snr_db[p]) for lo, hi, p in slices]
        for lo, hi, snr_db in points:
            self.detected.append((snr_db, t0 + lo, t0 + hi))
        for lo, hi, snr_db in points:
            if self.fail_at and self.fail_at[0] == snr_db and t0 + lo <= self.fail_at[1] < t0 + hi:
                raise _Injected(self.fail_at)
        return self._originals["_detect"](prep, drawn, slices)

    def _sequential_trial(self, spec, t, snr_db):
        if (snr_db, t) == self.fail_at:
            raise _Injected(self.fail_at)
        return self._originals["_sequential_trial"](spec, t, snr_db)

    def __enter__(self):
        self._stack = ExitStack()
        self._originals = {}
        for module, name in [(harness, "_draw"), (harness, "_draw_chunk"), (harness, "_detect"),
                             (sys.modules[__name__], "_sequential_trial")]:
            self._originals[name] = getattr(module, name)
            self._stack.enter_context(mock.patch.object(module, name, getattr(self, name)))
        return self

    def __exit__(self, *exc):
        self._stack.close()

    def pairs(self):
        """Every detected ``(snr_db, trial)`` pair, in detection order."""
        return [(snr, t) for snr, first, end in self.detected for t in range(first, end)]


def _outcome(sweep, spec):
    """``sweep(spec)``'s rows, or the ``(type, args)`` of what it raises."""
    try:
        return sweep(spec)
    except Exception as exc:
        return type(exc), exc.args


def _check_schedule(spec, schedule, rows):
    """Each trial is drawn once and detected by some point, and each point
    detects each trial at most once, its kept trials included."""
    end = 0
    for t0, n in schedule.drawn:
        assert t0 == end
        end += n
    pairs = schedule.pairs()
    assert len(pairs) == len(set(pairs))
    assert {t for _, t in pairs} == set(range(end))
    for row in rows:
        assert {(row.snr_db, t) for t in range(row.trials)} <= set(pairs)


def test_shipped_zf_sweep_draws_and_detects_each_trial_once():
    """The shipped (2,2)-4 ``zf`` sweep, eleven early-stopped points: the
    chunks' draws are contiguous and disjoint, and no point detects a
    trial twice, while each point sizes its own slices.  The slices run in
    passes of at most ``chunk_cap`` trials, fewer passes than slices."""
    spec = _recipe("mimo2x2_l4", baseline="zf")
    with _Schedule() as schedule:
        rows = run_sweep(spec).rows
    _check_schedule(spec, schedule, rows)
    chunks = {(t0, t0 + n) for t0, n in schedule.drawn}
    assert any((first, end) not in chunks for _, first, end in schedule.detected)
    assert max(schedule.passes) <= harness._prepare(spec).chunk_cap
    assert len(schedule.passes) < len(schedule.detected)


_STOPPING = _small_specs().filter(lambda s: s.early_stop_errors and len(s.snr_db) > 1)


@given(spec=_STOPPING, cap=st.sampled_from([1, 3, 7, None]))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_each_trial_is_drawn_once_and_detected_once_per_point(spec, cap):
    """Early-stopped sweeps of several points with no failure: the oracle's
    rows, each trial drawn once and no (point, trial) pair detected twice."""
    with mock.patch.object(harness, "_chunk_cap", lambda cfg, scan: cap) if cap else nullcontext():
        with _Schedule() as schedule:
            rows = run_sweep(spec).rows
    assert rows == _sequential_rows(spec)
    _check_schedule(spec, schedule, rows)


@pytest.mark.parametrize("bad", [3, 6], ids=["before-stop", "past-stop"])
def test_a_later_points_failure_rolls_the_chunk_back(bad):
    """Trials 1..10 of this sweep are one chunk.  The 0 dB point detects it
    in one slice and stops at trial 4; the 6 dB point tallies trials 1..2,
    detected in the same pass, then detects 3..6 in a second pass, a slice
    that holds its stop at trial 5 and raises for a failure planted at
    trial ``bad``.  The tally goes back to the chunk's start and the chunk
    reruns one trial at a time: the sweep gives the oracle's failure for
    trial 3, which the 6 dB point reaches, and for trial 6, past its stop,
    the oracle's rows, with no trial of the chunk counted twice."""
    spec = _stop_spec(snr_db=(0.0, 6.0), master_seed=50)
    assert _stops(spec) == [5, 6]
    with _Schedule(fail_at=(6.0, bad)) as schedule:
        expected = _outcome(_sequential_rows, spec)
        got = _outcome(lambda s: run_sweep(s).rows, spec)
    assert got == expected
    assert (expected[0] is _Injected) == (bad < 6)
    assert schedule.drawn[:2] == [(0, 1), (1, 10)]
    assert schedule.detected[2:5] == [(0.0, 1, 11), (6.0, 1, 3), (6.0, 3, 7)]
    assert schedule.passes[:3] == [2, 12, 4]


@given(spec=_STOPPING, data=st.data(), cap=st.sampled_from([2, 7, None]))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_a_failure_at_any_point_and_trial_matches_the_oracle(spec, data, cap):
    """A failure planted in any point's slice, at any trial, gives exactly
    the sequential oracle's rows or its failure."""
    snr = data.draw(st.sampled_from(spec.snr_db[1:]))
    bad = data.draw(st.integers(0, spec.trials - 1))
    with mock.patch.object(harness, "_chunk_cap", lambda cfg, scan: cap) if cap else nullcontext():
        with _Schedule(fail_at=(snr, bad)):
            assert _outcome(lambda s: run_sweep(s).rows, spec) == _outcome(_sequential_rows, spec)


RECIPES = ("mimo2x2_l4", "mimo4x4_l8", "mimo20x20_l40")


def _recipe(name, **kw):
    return replace(load_spec(files("csmimo") / "recipes" / f"{name}.json"), **kw)


@pytest.mark.parametrize("constellation", ["qpsk", "qam16"])
@pytest.mark.parametrize("recipe", RECIPES)
def test_zf_baseline_is_the_scheme_at_one_symbol_sub_blocks(recipe, constellation):
    """A ``zf`` baseline sweep's rows equal the scheme's ``ml`` rows at
    ``l = j = m``: each 1 x 1 sub-block's compression is a scalar of unit
    gain, so the ``ml`` scan decides what the baseline's slicer decides on
    the same ZF estimate.  Every shipped recipe, both alphabets, early stop
    off, noiseless point included."""
    spec = _recipe(recipe, snr_db=(0.0, 10.0, 20.0, float("inf")), early_stop_errors=0)
    m = spec.config.m
    cfg = replace(spec.config, constellation=constellation)
    spec = replace(spec, config=cfg, trials=100 if m == 20 else 400)
    zf = run_sweep(replace(spec, baseline="zf")).rows
    assert zf[0].bit_errors > 0
    assert run_sweep(replace(spec, config=replace(cfg, l=m, j=m))).rows == zf


@given(
    recipe=st.sampled_from(RECIPES),
    baseline=st.sampled_from([None, "zf", "overload"]),
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
    chunkings=st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=4), min_size=1,
                       max_size=3),
)
@example(recipe="mimo2x2_l4", baseline="zf", seed=1, chunkings=[[3], [2, 2]])
@settings(max_examples=60, deadline=None)
def test_streams_equal_a_fresh_generator_per_trial(recipe, baseline, seed, chunkings):
    """In any chunking, the chunk draw gives each trial the bits, channel and
    noise a fresh generator draws through ``integers``, ``sample_channel``
    and ``apply_channel``.  The (2,2)-4 ``zf`` bits take half of a 64-bit
    word, whose other half the normals skip."""
    spec = _recipe(recipe, baseline=baseline, master_seed=seed)
    cfg = spec.config
    nbits = spec.streams * get_constellation(cfg.constellation).bits_per_symbol
    noise = NoiseSpec(10.0, 0.3)
    z = np.linspace(-1.0, 1.0, cfg.m) * (1 - 0.5j)
    for sizes in chunkings:
        t0 = 0
        for n in sizes:
            bits, h, normals = harness._draw(seed, t0, n, nbits, cfg.nr, cfg.m)
            hz = (h @ np.broadcast_to(z, (n, cfg.m))[..., None])[..., 0]
            y = noisy(hz, noise, unit_noise(normals))
            for i, t in enumerate(range(t0, t0 + n)):
                rng = np.random.default_rng([seed, t])
                np.testing.assert_array_equal(
                    bits[i], rng.integers(0, 2, size=nbits, dtype=np.uint8))
                channel = sample_channel(cfg.nr, cfg.m, rng)
                np.testing.assert_array_equal(h[i], channel.h)
                np.testing.assert_array_equal(y[i], apply_channel(channel, z, noise, rng))
            t0 += n


@given(
    seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
    t0=st.one_of(st.integers(0, 100), st.integers(2**32 - 20, 2**32 - 10)),
    n=st.integers(1, 10),
    nbits=st.one_of(st.just(4), st.integers(1, 90)),
    shape=st.sampled_from([(2, 2), (4, 4), (3, 2)]),
)
@example(seed=0, t0=2**32 - 6, n=6, nbits=4, shape=(2, 2))
@example(seed=2**32, t0=2**32 - 2, n=2, nbits=13, shape=(4, 4))
@example(seed=2**64 - 1, t0=2**32 - 4, n=4, nbits=16, shape=(2, 2))
@example(seed=2**64 - 1, t0=0, n=3, nbits=80, shape=(3, 2))
@settings(max_examples=120, deadline=None)
def test_chunk_draw_equals_default_rng(seed, t0, n, nbits, shape):
    """Each trial of a chunk draws exactly what ``default_rng([seed, t])``
    draws through ``integers(0, 2, size=nbits, dtype=uint8)`` and then
    ``standard_normal``, for every seed and trial in their declared ranges:
    a seed of one or two 32-bit entropy words, and trials up to the last,
    ``2**32 - 1``."""
    nr, m_tx = shape
    k = nr * m_tx
    bits, h, noise = harness._draw(seed, t0, n, nbits, nr, m_tx)
    assert bits.shape == (n, nbits) and bits.dtype == np.uint8
    for i, t in enumerate(range(t0, t0 + n)):
        rng = np.random.default_rng([seed, t])
        np.testing.assert_array_equal(bits[i], rng.integers(0, 2, size=nbits, dtype=np.uint8))
        normals = rng.standard_normal(2 * k + 2 * nr)
        np.testing.assert_array_equal(h[i], gains(normals[: 2 * k], nr, m_tx))
        np.testing.assert_array_equal(noise[i], normals[2 * k :])


def test_seed_words_answer_only_pcg64s_request():
    """A trial's hashed words reach ``PCG64`` through a subclass of numpy's
    ``ISeedSequence``, made once: they answer ``generate_state(4, uint64)``,
    the one request ``PCG64`` makes, with ``SeedSequence([seed, t])``'s
    words, and any other request fails in one line."""
    seed_words = harness._seed_words()
    assert seed_words is harness._seed_words()
    assert issubclass(seed_words, np.random.bit_generator.ISeedSequence)
    assert "words" in seed_words.__slots__
    words = harness._trial_seeds(5, 7, 1)[0]
    seeded = seed_words(words)
    assert seeded.generate_state(4, np.uint64) is words
    assert seeded.generate_state(4, "u8") is words
    np.testing.assert_array_equal(
        words, np.random.SeedSequence([5, 7]).generate_state(4, np.uint64))
    np.testing.assert_array_equal(np.random.PCG64(seeded).random_raw(3),
                                  np.random.default_rng([5, 7]).bit_generator.random_raw(3))
    for request in [(4,), (4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64)]:
        with pytest.raises(ValueError, match="^seed words are 4 uint64, not ") as err:
            seeded.generate_state(*request)
        assert "\n" not in str(err.value)


def test_import_loads_no_numpy_random():
    """``import csmimo`` leaves ``numpy.random`` unloaded, so a sweep's
    setup pays for it only at its first draw."""
    code = "import sys, csmimo; print('numpy.random' in sys.modules)"
    src = str(Path(csmimo.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def _trial_generators(rng_mock):
    """Trial indices of the ``default_rng([master_seed, t])`` calls, sorted."""
    return sorted(c.args[0][1] for c in rng_mock.call_args_list if isinstance(c.args[0], list))


def test_a_sweep_builds_no_trial_generator():
    """A sweep draws its trials without a generator per trial: it builds no
    ``default_rng([master_seed, t])``, for a ZF receiver or ``oneshot``, at
    any number of SNR points, and every trial keeps its first channel, so
    the header counts no redraws."""
    for solver in ("ml", "oneshot"):
        spec = _stop_spec(snr_db=(0.0, 10.0, 20.0), trials=12, early_stop_errors=0, solver=solver)
        with mock.patch("numpy.random.default_rng", wraps=np.random.default_rng) as rng:
            result = run_sweep(spec)
        assert _trial_generators(rng) == []
        assert "# channel_redraws: 0\n" in result.to_csv()


def _fresh_bits(spec, t):
    nbits = spec.streams * get_constellation(spec.config.constellation).bits_per_symbol
    return np.random.default_rng([spec.master_seed, t]).integers(0, 2, size=nbits, dtype=np.uint8)


def _sent_bits(spec, rec):
    """The bits of the first trial of ``rec``, demapped from its sent points."""
    return get_constellation(spec.config.constellation).labels[rec.tx_idx[0]].ravel()


def test_run_trial_seeds_only_its_trial():
    """A chunk of one trial builds no trial generator and hashes only its
    own trial's seed, and draws that trial's stream."""
    spec = _stop_spec()
    with mock.patch("numpy.random.default_rng", wraps=np.random.default_rng) as rng, \
            mock.patch.object(harness, "_trial_seeds", wraps=harness._trial_seeds) as seeds:
        rec = run_trials(spec, 7)
    assert _trial_generators(rng) == []
    assert seeds.call_args_list == [mock.call(spec.master_seed, 7, 1)]
    np.testing.assert_array_equal(_sent_bits(spec, rec), _fresh_bits(spec, 7))
    assert rec.symbol_errors[0] == _sequential_trial(spec, 7, spec.snr_db[0])[2]


@pytest.mark.parametrize("seed", [3, 2**64 - 1], ids=["seed-3", "seed-2**64-1"])
def test_run_trial_of_a_two_word_index(seed):
    """The trial index ``2**32 - 1``, the last that is one entropy word,
    has the bits of its fresh generator, also with a seed of two words."""
    spec = _stop_spec(master_seed=seed)
    last = 2**32 - 1
    np.testing.assert_array_equal(_sent_bits(spec, run_trials(spec, last)), _fresh_bits(spec, last))


def test_oneshot_sweep_factors_each_chunk_once():
    """Every slice that an SNR point of a ``oneshot`` sweep detects uses the
    QR made once for its drawn chunk's channels."""
    spec = _stop_spec(snr_db=(0.0, 10.0, 20.0), trials=60, solver="oneshot")
    with mock.patch.object(harness, "_draw_chunk", wraps=harness._draw_chunk) as chunks, \
            mock.patch("numpy.linalg.qr", wraps=np.linalg.qr) as qr:
        rows = run_sweep(spec).rows
    assert chunks.call_count >= 2
    assert qr.call_count == chunks.call_count
    assert rows == _sequential_rows(spec)


# (mode, recipe, nr): the ml sweep and zf baseline of each shipped recipe,
# and oneshot on the square (4,4)-8 recipe and its tall nr = 8 copy
_FACTORED = ([(mode, recipe, None) for mode in (None, "zf") for recipe in RECIPES]
             + [("oneshot", "mimo4x4_l8", None), ("oneshot", "mimo4x4_l8", 8)])


@pytest.mark.parametrize("mode, recipe, nr", _FACTORED,
                         ids=[f"{m}-{r}" + (f"_nr{nr}" if nr else "") for m, r, nr in _FACTORED])
def test_a_sweep_makes_no_svd_and_inverts_each_chunk_once(mode, recipe, nr):
    """A shipped recipe's ``ml`` sweep and its ``zf`` baseline, with no
    near-singular channel, make no SVD: ``zf_equalize`` clears every
    channel on its Frobenius bound, and every SNR point's ZF estimate reads
    the one ``zf_equalize`` of its drawn chunk, which inverts it once.  A ``oneshot`` sweep,
    square or tall, checks no channel: it makes no inverse and no SVD,
    and exactly one QR per chunk, the complete one its search reads."""
    spec = _recipe(recipe, snr_db=(0.0, 10.0, 20.0), trials=300)
    spec = replace(spec, config=replace(spec.config, nr=nr or spec.config.nr),
                   **({"solver": "oneshot"} if mode == "oneshot" else {"baseline": mode}))
    with mock.patch("numpy.linalg.svd", wraps=np.linalg.svd) as svd, \
            mock.patch("numpy.linalg.inv", wraps=np.linalg.inv) as inv, \
            mock.patch("numpy.linalg.qr", wraps=np.linalg.qr) as qr, \
            mock.patch.object(harness, "_draw_chunk", wraps=harness._draw_chunk) as chunks:
        run_sweep(spec)
    assert chunks.call_count >= 2
    assert svd.call_count == 0
    oneshot = mode == "oneshot"
    assert inv.call_count == (0 if oneshot else chunks.call_count)
    assert qr.call_count == (chunks.call_count if oneshot else 0)


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
