"""Shared fixtures for the test suite."""

from importlib.resources import files
from typing import NamedTuple

import numpy as np
import pytest

import csmimo.harness as harness
from csmimo.csmux import MuxConfig
from csmimo.modem import get_constellation
from csmimo.spec import db_point


@pytest.fixture(scope="session")
def qpsk():
    return get_constellation("qpsk")


@pytest.fixture(scope="session")
def qam16():
    return get_constellation("qam16")


@pytest.fixture(scope="session")
def cfg_4x4_l8():
    """The 4x4 setup with eight multiplexed streams, two sub-blocks."""
    return MuxConfig(nt=4, nr=4, l=8, j=2, phi_seed=880)


@pytest.fixture(scope="session")
def cfg_2x2_l4():
    return MuxConfig(nt=2, nr=2, l=4, j=2, phi_seed=3262)


def recipe_path(name: str) -> str:
    return str(files("csmimo") / "recipes" / name)


class Trials(NamedTuple):
    """Per-trial outcome of trials ``t0 .. t0+n-1`` at one SNR point: sent
    and decided point indices ``(n, streams)``, bit errors, symbol errors
    and channel redraws ``(n,)``."""

    snr_db: float
    tx_idx: np.ndarray
    rx_idx: np.ndarray
    bit_errors: np.ndarray
    symbol_errors: np.ndarray
    redraws: np.ndarray


def run_trials(spec, t0: int, n: int = 1, snr_db=None) -> Trials:
    """Trials ``t0 .. t0+n-1`` of ``spec`` at ``snr_db``, by default its
    first grid point, as a sweep draws and decides them: the engine's own
    ``_prepare``, ``_draw_chunk`` and ``_detect`` on chunks of
    ``prep.chunk_cap`` trials.  The point is checked before any draw.  To
    substitute a matrix, patch ``harness.gen_phi``."""
    snr = spec.snr_db[0] if snr_db is None else db_point("snr_db", snr_db)
    prep = harness._prepare(spec)
    parts = []
    for lo in range(t0, t0 + n, prep.chunk_cap):
        size = min(prep.chunk_cap, t0 + n - lo)
        drawn = harness._draw_chunk(prep, lo, size)
        chunk, = harness._detect(prep, drawn, [(0, size, snr)])
        parts.append((drawn.tx_idx, *chunk, drawn.redraws))
    return Trials(snr, *map(np.concatenate, zip(*parts)))
