"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  The SNR sweep of criterion 7 is shared with criterion 8
through a session fixture so the expensive simulation runs once.
"""

import time
from itertools import combinations

import numpy as np
import pytest

import csmimo.harness as harness
from csmimo.analysis import rip_constant, spark, verify_uniqueness
from csmimo.csmux import MeasurementMatrix, MuxConfig, gen_phi
from csmimo.detection import Codebook, demux, sensing_matrix
from csmimo.dictionary import build_dictionary, digits
from csmimo.harness import ExperimentSpec, run_sweep
from csmimo.modem import get_constellation

from conftest import run_trials

INF = float("inf")

CFG_4X4 = MuxConfig(nt=4, nr=4, l=8, j=2, phi_seed=880)
CFG_20X20 = MuxConfig(nt=20, nr=20, l=40, j=10, phi_seed=880)


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {name} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def ber_sweep_4x4():
    """Criterion 7 sweep: (4,4)-8, J=2, 0 to 20 dB, 20k trial cap per point.

    Runs the joint exact-search solver, the mode that detects on the raw
    receive vector where the noise is white.
    """
    spec = ExperimentSpec(
        config=CFG_4X4,
        snr_db=tuple(float(s) for s in range(0, 21, 2)),
        trials=20_000,
        master_seed=1,
        solver="oneshot",
        early_stop_errors=200,
    )
    t0 = time.perf_counter()
    result = run_sweep(spec)
    return result, time.perf_counter() - t0


def test_criterion_01_noiseless_exactness():
    report = verify_uniqueness(Codebook(CFG_4X4, gen_phi(CFG_4X4)))
    assert report.unique, "pinned phi seed must pass the uniqueness check"
    spec = ExperimentSpec(config=CFG_4X4, snr_db=(INF,), trials=1000, master_seed=2)
    t0 = time.perf_counter()
    row = run_sweep(spec).rows[0]
    elapsed = time.perf_counter() - t0
    ok = row.bit_errors == 0 and row.trials == 1000 and elapsed < 10.0
    _check(
        1,
        "noiseless exactness",
        ok,
        f"{row.bit_errors} bit errors over {row.trials} trials in {elapsed:.1f}s",
    )


def test_criterion_02_degenerate_equivalence(monkeypatch):
    cfg = MuxConfig(nt=4, nr=4, l=4, j=4, phi_seed=1)
    cs_spec = ExperimentSpec(config=cfg, snr_db=(10.0,), trials=10_000, master_seed=7)
    zf_spec = ExperimentSpec(
        config=cfg, snr_db=(10.0,), trials=10_000, master_seed=7, baseline="zf"
    )
    # rho = 1: the scheme compresses its one-symbol sub-blocks by the identity
    monkeypatch.setattr(harness, "gen_phi", lambda cfg: MeasurementMatrix(np.eye(1)))
    cs = run_trials(cs_spec, 0, 10_000, snr_db=10.0)
    zf = run_trials(zf_spec, 0, 10_000, snr_db=10.0)
    differs = (cs.tx_idx != zf.tx_idx).any(axis=1) | (cs.rx_idx != zf.rx_idx).any(axis=1)
    mismatches = int(differs.sum())
    _check(
        2,
        "degenerate equivalence",
        mismatches == 0,
        f"{mismatches} of 10000 trials differ from the plain-ZF baseline",
    )


def test_criterion_03_spark_law():
    hits = sum(
        spark(np.random.default_rng(seed).standard_normal((3, 6))) == 4
        for seed in range(100)
    )

    def oracle(a):
        cols = a.shape[1]
        for size in range(1, cols + 1):
            for subset in combinations(range(cols), size):
                if np.linalg.matrix_rank(a[:, subset], tol=1e-10) < size:
                    return size
        return cols + 1

    agree = sum(
        spark(m) == oracle(m)
        for m in (
            np.random.default_rng([3, s]).standard_normal((4, 8)) for s in range(20)
        )
    )
    ok = hits == 100 and agree == 20
    _check(
        3,
        "spark law",
        ok,
        f"spark=M+1 in {hits}/100 Gaussian draws; oracle agreement {agree}/20",
    )


def test_criterion_04_rip_sanity():
    q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((10, 6)))
    ortho_ok = all(rip_constant(q, k) < 1e-10 for k in (1, 2))

    a = np.random.default_rng(16).standard_normal((16, 32))
    delta = rip_constant(a, 2)
    a_unit = a / np.linalg.norm(a, axis=0)
    oracle = 0.0
    for subset in combinations(range(32), 2):
        s = np.linalg.svd(a_unit[:, subset], compute_uv=False)
        oracle = max(oracle, abs(s[0] ** 2 - 1.0), abs(s[-1] ** 2 - 1.0))
    gap = abs(delta - oracle)
    ok = ortho_ok and gap < 1e-9
    _check(
        4,
        "rip sanity",
        ok,
        f"orthonormal deltas < 1e-10: {ortho_ok}; svd-oracle gap {gap:.2e}",
    )


def test_criterion_05_dictionary_codec():
    """Every column of ``build_dictionary`` holds the points at the
    :func:`digits` of its index, and ``demux``'s ``ml`` receiver, handed
    each column noiselessly, decides those points and encodes them as
    ``x_indices @ q**arange(n)``, the column's index."""
    qpsk = get_constellation("qpsk")
    mismatches = 0
    cases = 0
    for n in (1, 2, 4):
        psi = build_dictionary(qpsk, n)
        d = psi.shape[1]
        k = np.arange(d)
        idx = digits(k, qpsk.order, n)
        # one sub-block of n rows, uncompressed: the ZF estimate is the column
        cfg = MuxConfig(nt=n, nr=n, l=n, j=1)
        code = Codebook(cfg, MeasurementMatrix(np.eye(n)))
        rec = demux(psi.T, code, solver="ml")
        cases += d
        mismatches += int(np.sum(
            (psi != qpsk.points[idx].T).any(axis=0)
            | (idx @ qpsk.order ** np.arange(n) != k)
            | (rec.x_indices != idx).any(axis=1)
            | (rec.s_indices[:, 0] != k)
        ))
    ok = mismatches == 0 and cases == 4 + 16 + 256
    _check(5, "dictionary codec", ok, f"{mismatches} mismatches over {cases} tuples")


def test_criterion_06_ml_optimality():
    """``demux``'s ``ml`` receiver against an independently coded
    brute-force residual scan of the blocks it sees, the ZF estimate over
    the transmit gain, on 10^4 noisy sub-blocks."""
    qpsk = get_constellation("qpsk")
    phi = gen_phi(CFG_4X4)
    code = Codebook(CFG_4X4, phi)
    a = sensing_matrix(phi, build_dictionary(qpsk, 4))
    rng = np.random.default_rng(606)
    n_cases = 10_000
    # each trial sends J = 2 sub-blocks of 2 rows
    shape = (n_cases // CFG_4X4.j, CFG_4X4.j, 2)
    z = a[:, rng.integers(0, a.shape[1], shape[:2])].transpose(1, 2, 0) + 0.5 * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    y = z.reshape(shape[0], CFG_4X4.m) * code.gain
    got = demux(y, code, solver="ml").s_indices
    # independently coded brute-force residual scan
    blocks = (y / code.gain).reshape(shape)
    diffs = a - blocks[..., None]
    oracle = (diffs.real**2 + diffs.imag**2).sum(axis=-2).argmin(axis=-1)
    agree = int(np.sum(got == oracle))
    _check(6, "ml optimality", agree == n_cases, f"{agree}/{n_cases} index agreement")


def test_criterion_07_ber_behavior(ber_sweep_4x4):
    result, elapsed = ber_sweep_4x4
    rows = result.rows
    monotone = all(
        hi.ber <= lo.ber or hi.ci_low <= lo.ci_high
        for lo, hi in zip(rows, rows[1:])
    )
    top_ber = rows[-1].ber
    noiseless = run_sweep(
        ExperimentSpec(
            config=CFG_4X4, snr_db=(INF,), trials=1000, master_seed=1,
            solver="oneshot",
        )
    ).rows[0]
    ok = monotone and top_ber < 1e-2 and noiseless.ber == 0.0 and elapsed < 300.0
    _check(
        7,
        "ber behavior",
        ok,
        f"monotone={monotone}, ber@20dB={top_ber:.3e}, "
        f"noiseless={noiseless.ber}, sweep took {elapsed:.0f}s",
    )


def test_criterion_08_overload_failure(ber_sweep_4x4):
    result, _ = ber_sweep_4x4
    cs_ber = result.rows[-1].ber
    overload = run_sweep(
        ExperimentSpec(
            config=CFG_4X4, snr_db=(20.0,), trials=20_000, master_seed=1,
            baseline="overload", early_stop_errors=200,
        )
    ).rows[0]
    ok = overload.ber >= 0.2 and overload.ber >= 10.0 * cs_ber
    _check(
        8,
        "overload failure",
        ok,
        f"overload ber {overload.ber:.3f} vs cs ber {cs_ber:.3e} "
        f"(ratio {overload.ber / cs_ber:.0f}x)",
    )


def test_criterion_09_multiplexing_gain(tmp_path):
    cs_spec = ExperimentSpec(config=CFG_20X20, snr_db=(INF,), trials=50, master_seed=4)
    zf_spec = ExperimentSpec(
        config=CFG_20X20, snr_db=(INF,), trials=50, master_seed=4, baseline="zf"
    )
    cs = run_sweep(cs_spec)
    zf = run_sweep(zf_spec)
    cs_csv = cs.to_csv()
    zf_csv = zf.to_csv()
    (tmp_path / "cs.csv").write_text(cs_csv)
    (tmp_path / "zf.csv").write_text(zf_csv)
    ok = (
        "# streams_per_channel_use: 40" in cs_csv
        and "# streams_per_channel_use: 20" in zf_csv
        and cs.rows[0].ser == 0.0
        and cs.rows[0].throughput == pytest.approx(80.0)
        and zf.rows[0].throughput == pytest.approx(40.0)
    )
    _check(
        9,
        "multiplexing gain",
        ok,
        f"cs streams 40 -> {cs.rows[0].throughput:.0f} bits/use, "
        f"plain mimo 20 -> {zf.rows[0].throughput:.0f} bits/use",
    )


def test_criterion_10_reproducibility(tmp_path):
    spec = ExperimentSpec(
        config=MuxConfig(nt=2, nr=2, l=4, j=2, phi_seed=3262),
        snr_db=(0.0, 10.0),
        trials=400,
        master_seed=11,
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(spec).write_csv(a)
    run_sweep(spec).write_csv(b)
    identical = a.read_bytes() == b.read_bytes()
    _check(
        10,
        "reproducibility",
        identical,
        f"two runs -> byte-identical CSV ({len(a.read_bytes())} bytes)",
    )
