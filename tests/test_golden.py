"""Golden sweep CSVs: short runs of every shipped mode, pinned byte for byte.

Each file under ``tests/golden/`` is the exact ``SweepResult.to_csv`` output
of one case in :data:`CASES`.  A change to the trial path must leave these
bytes unchanged; if a golden file ever has to change, CHANGES.md says why.
The numbers depend on numpy and on its BLAS/LAPACK build, so
``versions.json`` records the stack the files were made on, and a mismatch
reports both that stack and the one the test ran on.

Regenerate (only for an intended, explained change of results):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import recipe_path
from csmimo.harness import load_spec, run_sweep

GOLDEN = Path(__file__).parent / "golden"
SNR_DB = (0.0, 10.0, 20.0)
TRIALS = 300

# case name -> (recipe, solver, baseline, constellation, j), j None for the
# recipe's own; each recipe keeps its own seeds and early-stop threshold, so
# the 0 dB rows also pin the early-stop index.
CASES = {
    f"{recipe}_{mode}": (recipe, solver, baseline, "qpsk", None)
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
    # (2,2)-4 has one-row sub-blocks, which the spec rejects for omp
    and not (mode == "omp" and recipe == "mimo2x2_l4")
}
# QAM16 ml, d = 16**2 and 16**4 per sub-block: the only goldens off QPSK
CASES.update(
    {
        f"{recipe}_qam16_ml": (recipe, "ml", None, "qam16", None)
        for recipe in ("mimo2x2_l4", "mimo4x4_l8")
    }
)
# the paper's sub-block trade-off: (20,20)-40 ml with fewer, longer blocks,
# n = 8 and n = 10 symbols, the second past the cap on 4**n columns
CASES.update({f"mimo20x20_l40_j{j}_ml": ("mimo20x20_l40", "ml", None, "qpsk", j) for j in (5, 4)})


def sweep_csv(name: str) -> str:
    recipe, solver, baseline, constellation, j = CASES[name]
    spec = load_spec(recipe_path(f"{recipe}.json"))
    spec = replace(
        spec,
        config=replace(spec.config, constellation=constellation, j=j or spec.config.j),
        snr_db=SNR_DB,
        trials=TRIALS,
        solver=solver,
        baseline=baseline,
    )
    return run_sweep(spec).to_csv()


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.csv").write_text(sweep_csv(case), encoding="ascii", newline="\n")
    (GOLDEN / "versions.json").write_text(json.dumps(stack_versions(), indent=2) + "\n")
