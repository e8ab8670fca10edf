"""Rounds of a workload's sweeps, their correctness checks and their metrics.

A round calls ``csmimo.harness.run_sweep`` once per sweep of the workload
and times each call.  Untraced rounds give the end-to-end metrics; traced
rounds (see :mod:`spans`) give the per-layer split.  Every round of one run
uses the same seed, so every round must reproduce the first one's CSVs byte
for byte, traced or not.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

from csmimo.harness import ExperimentSpec, SweepResult, run_sweep
from csmimo.modem import get_constellation

import spans
from speed import REFERENCE_HZ, SpeedProbe, kernel_hz

PINNED_FILE = Path(__file__).resolve().parent / "pinned.json"

# complex128 entries of the candidate matrix a detector scans
_BYTES_PER_ENTRY = 16


@dataclass(frozen=True)
class Sweep:
    """Outcome of one ``run_sweep`` call."""

    wall_ns: int
    sha256: str | None
    trials: int
    redraws: int
    problems: tuple[str, ...]


@dataclass(frozen=True)
class Round:
    """One call of ``run_sweep`` per sweep.

    ``summary`` is set when traced; ``speed_hz`` is the probe kernel's rate
    while the round ran, when a :class:`SpeedProbe` was running.
    """

    sweeps: tuple[Sweep, ...]
    summary: dict[str, dict[str, int]] | None = None
    speed_hz: float | None = None

    @property
    def wall_ns(self) -> int:
        return sum(s.wall_ns for s in self.sweeps)

    @property
    def trials(self) -> int:
        return sum(s.trials for s in self.sweeps)


def pinned_hashes(workload: str, seed: int) -> list[str] | None:
    """CSV SHA-256 of each sweep pinned for ``seed``, or None if none is pinned."""
    pinned = json.loads(PINNED_FILE.read_text(encoding="utf-8"))
    if seed != pinned["seed"]:
        return None
    return pinned["sha256"][workload]


def row_problems(result: SweepResult) -> list[str]:
    """Invariants every sweep CSV must satisfy, whatever the seed."""
    spec = result.spec
    bits_per_trial = spec.streams * get_constellation(spec.config.constellation).bits_per_symbol
    problems = []
    for row in result.rows:
        if row.bits != row.trials * bits_per_trial:
            problems.append(f"{row.snr_db} dB: {row.bits} bits for {row.trials} trials")
        if not 0 <= row.bit_errors <= row.bits or not 0 <= row.sym_errors <= row.trials * spec.streams:
            problems.append(f"{row.snr_db} dB: error count out of range")
        stopped = spec.early_stop_errors and row.bit_errors >= spec.early_stop_errors
        if not (row.trials == spec.trials or (stopped and row.trials < spec.trials)):
            problems.append(f"{row.snr_db} dB: {row.trials} trials does not match the stop rule")
    # Every detector but the overload baseline improves with SNR.
    rows = result.rows
    if spec.baseline != "overload" and len(rows) > 1 and not rows[-1].ber < rows[0].ber:
        problems.append(f"BER {rows[-1].ber} at {rows[-1].snr_db} dB is not below {rows[0].ber}")
    return problems


def run_round(
    specs: tuple[ExperimentSpec, ...],
    tracer: spans.Tracer | None = None,
    probe: SpeedProbe | None = None,
) -> Round:
    """Run every sweep once; a sweep that raises is recorded, not propagated.

    With a ``probe``, wall times leave out the time spent in its kernels and
    the round records the machine speed while it ran.
    """
    clock = probe.clock if probe else time.perf_counter_ns
    round_start = time.perf_counter_ns()
    sweeps = []
    for spec in specs:
        start = clock()
        try:
            if tracer is None:
                result = run_sweep(spec)
            else:
                result = tracer.call(spans.ROOT, run_sweep, spec)
        except Exception:
            sweeps.append(Sweep(clock() - start, None, 0, 0, (traceback.format_exc(),)))
            continue
        wall = clock() - start
        sweeps.append(
            Sweep(
                wall,
                hashlib.sha256(result.to_csv().encode("ascii")).hexdigest(),
                sum(r.trials for r in result.rows),
                sum(r.redraws for r in result.rows),
                tuple(row_problems(result)),
            )
        )
    speed = probe.hz_between(round_start, time.perf_counter_ns()) if probe else None
    return Round(tuple(sweeps), speed_hz=speed)


def traced_round(specs: tuple[ExperimentSpec, ...], probe: SpeedProbe | None = None) -> Round:
    """:func:`run_round` with every traced function wrapped, then restored."""
    with spans.Tracer(probe.clock if probe else time.perf_counter_ns) as tracer:
        rnd = run_round(specs, tracer, probe)
    return replace(rnd, summary=spans.summarize(tracer.spans))


def warm_up(specs: tuple[ExperimentSpec, ...]) -> None:
    """Run each sweep briefly so imports and first-call costs are paid untimed."""
    run_round(tuple(replace(s, trials=min(s.trials, 8)) for s in specs))


def _probed_rounds(specs, seconds: float, pattern: tuple[bool, ...]) -> list[Round]:
    """Rounds, traced where ``pattern`` (repeated) says so, until ``seconds``
    have passed and the pattern ran once, all under one :class:`SpeedProbe`."""
    rounds = []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while len(rounds) < len(pattern) or time.perf_counter() - start < seconds:
            if pattern[len(rounds) % len(pattern)]:
                rounds.append(traced_round(specs, probe))
            else:
                rounds.append(run_round(specs, probe=probe))
    # A round shorter than the probe interval takes the run's median speed.
    measured = [r.speed_hz for r in rounds if r.speed_hz is not None]
    fallback = statistics.median(measured) if measured else kernel_hz(5)
    return [r if r.speed_hz is not None else replace(r, speed_hz=fallback) for r in rounds]


def timed_rounds(specs, seconds: float) -> list[Round]:
    """Untraced rounds until ``seconds`` have passed (at least one)."""
    return _probed_rounds(specs, seconds, (False,))


def alternating_rounds(specs, seconds: float) -> list[Round]:
    """Rounds in the order untraced, traced, traced, ... until ``seconds``
    have passed; at least one untraced and two traced rounds."""
    return _probed_rounds(specs, seconds, (False, True, True))


def _to_reference(rnd: Round) -> float:
    """Factor that turns this round's times into times at the reference speed."""
    return rnd.speed_hz / REFERENCE_HZ


def check(rounds: list[Round], pinned: list[str] | None) -> tuple[int, int, list[str]]:
    """Attempted and failed sweep calls, and every problem found.

    A sweep call fails if it raised, broke a row invariant, or wrote a CSV
    that differs from the first round's or from the pinned hash.  Equal
    CSVs also mean equal trial, error and redraw counts.  Traced rounds
    must repeat their per-span call counts exactly.
    """
    problems, failed = [], 0
    first = rounds[0].sweeps
    for i, rnd in enumerate(rounds):
        for j, sweep in enumerate(rnd.sweeps):
            found = list(sweep.problems)
            if sweep.sha256 is not None and sweep.sha256 != first[j].sha256:
                found.append("CSV differs from the first round's")
            if pinned is not None and sweep.sha256 != pinned[j]:
                found.append(f"CSV SHA-256 {sweep.sha256} != pinned {pinned[j]}")
            if found:
                failed += 1
                problems += [f"round {i} sweep {j}: {p}" for p in found]
    calls = [
        {name: entry["calls"] for name, entry in r.summary.items()}
        for r in rounds
        if r.summary is not None
    ]
    if any(c != calls[0] for c in calls):
        problems.append(f"span call counts differ between traced rounds: {calls}")
    return sum(len(r.sweeps) for r in rounds), failed, problems


def end_to_end(
    rounds: list[Round], setup_samples: list[tuple[float, float]], attempted: int, failed: int
) -> dict:
    """The end-to-end metrics of a run of :func:`timed_rounds`.

    Rates and times are scaled to the reference machine speed (see
    :mod:`speed`); ``setup_samples`` holds ``(seconds, kernel_hz)`` per
    fresh process.
    """
    return {
        "trials_per_s": statistics.median(
            r.trials / (r.wall_ns * 1e-9 * _to_reference(r)) for r in rounds
        ),
        "setup_s": statistics.median(t * hz / REFERENCE_HZ for t, hz in setup_samples),
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sweep_ok_frac": 1.0 - failed / attempted,
    }


def scan_size(spec: ExperimentSpec) -> tuple[int, int]:
    """Candidates a trial's detector scans and their row count, from the spec.

    ``ml`` and ``omp`` scan ``d`` columns for each of the ``j`` sub-blocks;
    ``oneshot`` scans all ``d**j`` joint columns of ``nr`` rows.  The
    baselines slice symbols and scan no dictionary.
    """
    cfg = spec.config
    if spec.baseline is not None:
        return 0, 0
    d = get_constellation(cfg.constellation).order ** cfg.subblock_cols
    if spec.solver == "oneshot":
        return d**cfg.j, cfg.nr
    return cfg.j * d, cfg.subblock_rows


# per-layer metric -> span name whose self time per trial it reports
_SELF_US = {
    "harness.self_us": spans.ROOT,
    "modem.symbol_indices_us": "modem.symbol_indices",
    "modem.nearest_point_indices_us": "modem.nearest_point_indices",
    "csmux.multiplex_us": "csmux.multiplex",
    "channel.sample_channel_us": "channel.sample_channel",
    "channel.apply_channel_us": "channel.apply_channel",
    "detection.channel_is_usable_us": "detection.channel_is_usable",
    "detection.zf_equalize_us": "detection.zf_equalize",
    "detection.demux_self_us": "detection.demux",
}
# per-layer metric -> span name whose self time per sweep it reports
_SELF_MS = {
    "csmux.gen_phi_ms": "csmux.gen_phi",
    "dictionary.build_dictionary_ms": "dictionary.build_dictionary",
    "detection.sensing_matrix_ms": "detection.sensing_matrix",
}


def _layer_times(rnd: Round) -> dict[str, float]:
    def self_ns(name):
        return rnd.summary.get(name, {"self_ns": 0})["self_ns"] * _to_reference(rnd)

    out = {m: self_ns(s) * 1e-3 / rnd.trials for m, s in _SELF_US.items()}
    out.update({m: self_ns(s) * 1e-6 / len(rnd.sweeps) for m, s in _SELF_MS.items()})
    return out


def per_layer(rounds: list[Round], specs: tuple[ExperimentSpec, ...]) -> dict:
    """The per-layer metrics of a run of :func:`alternating_rounds`.

    Times are medians over the traced rounds, scaled to the reference speed
    like the end-to-end metrics; counts come from the first traced round,
    since :func:`check` requires them to repeat exactly.
    """
    traced = [r for r in rounds if r.summary is not None]
    untraced = [r for r in rounds if r.summary is None]
    times = [_layer_times(r) for r in traced]
    out = {m: statistics.median(t[m] for t in times) for m in times[0]}

    rnd = traced[0]

    def calls(name):
        return rnd.summary.get(name, {"calls": 0})["calls"]

    sizes = [scan_size(spec) for spec in specs]
    out.update(
        {
            "csmux.transmit_gain_calls": calls("csmux.transmit_gain") / rnd.trials,
            "channel.redraws": sum(s.redraws for s in rnd.sweeps) / rnd.trials,
            "detection.factorizations": (
                calls("detection.channel_is_usable") + calls("detection.zf_equalize")
            ) / rnd.trials,
            "detection.candidates": sum(
                s.trials * c for s, (c, _) in zip(rnd.sweeps, sizes)
            ) / rnd.trials,
            "detection.scan_bytes": sum(
                s.trials * c * rows * _BYTES_PER_ENTRY for s, (c, rows) in zip(rnd.sweeps, sizes)
            ) / rnd.trials,
            "trace.overhead_frac": statistics.median(
                r.wall_ns * _to_reference(r) for r in traced
            )
            / statistics.median(r.wall_ns * _to_reference(r) for r in untraced)
            - 1.0,
        }
    )
    return out
