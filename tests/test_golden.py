"""Golden sweep CSVs: short runs of every shipped mode, pinned byte for byte.

Each file under ``tests/golden/`` is the exact ``SweepResult.to_csv`` output
of one case in :data:`CASES`, the one table of what each golden runs:
:func:`case_config` gives a case's config file, and CI writes each one out
and replays it through the installed ``csmimo simulate``.  A change to the
trial path must leave these bytes unchanged; if a golden file ever has to
change, CHANGES.md says why.  The numbers depend on numpy and on its
BLAS/LAPACK build, so ``versions.json`` records the stack the files were
made on, and a mismatch reports both that stack and the one the test ran on.

Regenerate (only for an intended, explained change of results):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import recipe_path
from csmimo.harness import run_sweep
from csmimo.spec import read_config, spec_from_dict

GOLDEN = Path(__file__).parent / "golden"

# case name -> (recipe, solver, baseline, constellation, fields), fields the
# recipe values the case replaces; each recipe keeps its own seeds and
# early-stop threshold, so the 0 dB rows also pin the early-stop index.
# - (2,2)-4 has one-row sub-blocks: its ml sweep is the QPSK path whose
#   decided point indices demux hands straight to the bit-error count, and
#   the spec rejects omp there, since every column ties on |z|.
# - zf and overload share the ZF receiver that slices S^T of the equalized
#   estimate, the only estimate the harness slices with
#   nearest_point_indices.  The (2,2)-4 baseline sweeps stop within a few
#   chunks at every point, so each point walks its own slices through a
#   chunk that another point sized, stacked into passes: they pin that
#   per-point early-stop schedule end to end.
# - The (2,2)-4 oneshot golden runs the lockstep search on one-row
#   sub-blocks (d = 16, whole slices in one block), the (4,4)-8 one on
#   two-row sub-blocks (d = 256, blocks of up to 64 trials).
# - The (4,4)-8 omp golden holds only 32 to 78 trials per point (at BER
#   0.16 to 0.39 the early stop comes fast), so the property test of the
#   stacked omp pick against recover_subblock_omp is that path's main guard.
CASES = {
    f"{recipe}_{mode}": (recipe, solver, baseline, "qpsk", {})
    for recipe in ("mimo2x2_l4", "mimo4x4_l8", "mimo20x20_l40")
    for mode, solver, baseline in (
        ("ml", "ml", None),
        ("zf", "ml", "zf"),
        ("overload", "ml", "overload"),
        ("oneshot", "oneshot", None),
        ("omp", "omp", None),
    )
    # d**J joint candidates: 4**2**2 and 4**4**2 are small, 4**4**10 is not
    if not (mode == "oneshot" and recipe == "mimo20x20_l40")
    and not (mode == "omp" and recipe == "mimo2x2_l4")
}
# QAM16 ml, d = 16**2 and 16**4 per sub-block: the only goldens off QPSK.
# The (2,2)-4 matrix projects two level pairs to within 1e-5 of each other,
# so its ml picks come closest to a half-scan tie, which each half breaks
# to its lowest level tuple; the (4,4)-8 one reads uniqueness off 256 I/Q
# level tuples in its analyze golden.
CASES.update(
    {
        f"{recipe}_qam16_ml": (recipe, "ml", None, "qam16", {})
        for recipe in ("mimo2x2_l4", "mimo4x4_l8")
    }
)
# the paper's sub-block trade-off: (20,20)-40 ml with fewer, longer blocks,
# n = 8 and n = 10 symbols; at J = 4 the ml half-scans score 2**10 level
# tuples, within the cap of 65536 that the 4**10 dictionary columns of omp
# and oneshot exceed
CASES.update(
    {f"mimo20x20_l40_j{j}_ml": ("mimo20x20_l40", "ml", None, "qpsk", {"j": j}) for j in (5, 4)}
)
# tall channels: (4,4)-8 with nr = 8 receive antennas, the only goldens
# whose 8 x 4 channels take the pseudo-inverse's tall branch, for the
# scheme's ml and oneshot receivers and the zf baseline
CASES.update(
    {
        f"mimo4x4_l8_nr8_{mode}": ("mimo4x4_l8", solver, baseline, "qpsk", {"nr": 8})
        for mode, solver, baseline in (
            ("ml", "ml", None), ("zf", "ml", "zf"), ("oneshot", "oneshot", None)
        )
    }
)


def case_config(name: str) -> dict:
    """The config-file fields of case ``name``: its recipe with the case's
    solver, baseline, constellation and fields, at 0, 10 and 20 dB and 300
    trials."""
    recipe, solver, baseline, constellation, fields = CASES[name]
    raw = read_config(recipe_path(f"{recipe}.json"))
    raw.update(solver=solver, baseline=baseline, constellation=constellation,
               snr_db=[0, 10, 20], trials=300, **fields)
    return raw


def sweep_csv(name: str) -> str:
    return run_sweep(spec_from_dict(case_config(name))).to_csv()


def stack_versions() -> dict[str, str]:
    """numpy version and the BLAS/LAPACK build it reports."""
    info = {"numpy": np.__version__}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return info
    for lib in ("blas", "lapack"):
        if lib in deps:
            info[lib] = f"{deps[lib].get('name')} {deps[lib].get('version')}"
    return info


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_csv(name):
    expected = (GOLDEN / f"{name}.csv").read_text(encoding="ascii")
    made_on = json.loads((GOLDEN / "versions.json").read_text())
    assert sweep_csv(name) == expected, (
        f"{name}.csv no longer matches; files made on {made_on}, "
        f"this run on {stack_versions()}"
    )


def test_every_golden_csv_is_a_case():
    """A golden file with no case would never be checked, and a case with
    no file would fail only once the sweep has run."""
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.csv").write_text(sweep_csv(case), encoding="ascii", newline="\n")
    (GOLDEN / "versions.json").write_text(json.dumps(stack_versions(), indent=2) + "\n")
