"""Every registered scenario's output at the reference seed, against committed values.

Each scenario runs at ``TRIALS`` trials, enough that its averages and Pd
curves span several seeded chunks (64 trials per ``average_af`` chunk at most,
50 per Pd chunk), and its CSV columns are compared with
``tests/data/scenario_reference.json``.  Numeric columns must match to
``REL_TOL`` of the column's largest finite magnitude, the rule scenario
outputs keep across refactors and optimizations; integer and string columns
must match exactly.

Regenerate the reference only for an intended, explained change of numbers:

    PYTHONPATH=src python tests/test_scenario_reference.py
"""

from __future__ import annotations

import csv
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest

from isacsim import list_scenarios, run_scenario
from isacsim.experiments import ExperimentConfig

REFERENCE = Path(__file__).resolve().parent / "data" / "scenario_reference.json"
SEED = 20260815
TRIALS = 130
REL_TOL = 1e-12
# keeps the long-format periodogram files small
OVERRIDES = {"fig-periodogram-pair": {"n": 16, "m": 16}}


def _parse(cells: list[str]) -> list:
    for kind in (int, float):
        try:
            return [kind(c) for c in cells]
        except ValueError:
            pass
    return cells


def scenario_columns(name: str, out_dir: Path) -> dict[str, list]:
    """``{file/column: values}`` of one scenario run at the reference settings."""
    config = ExperimentConfig(scenario=name, seed=SEED, trials=TRIALS,
                              out_dir=str(out_dir), **OVERRIDES.get(name, {}))
    with warnings.catch_warnings():
        # lag_correlation warns when it clips negative estimates
        warnings.simplefilter("ignore", UserWarning)
        manifest = run_scenario(config)
    columns: dict[str, list] = {}
    for fname in sorted(manifest.files):
        with open(out_dir / name / fname, encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        for col, cells in zip(header, zip(*rows)):
            columns[f"{fname}/{col}"] = _parse(list(cells))
    return columns


def _mismatches(got: dict[str, list], ref: dict[str, list]) -> list[str]:
    if got.keys() != ref.keys():
        return [f"columns {sorted(got)} differ from the reference {sorted(ref)}"]
    problems = []
    for key, want in ref.items():
        have = got[key]
        if len(have) != len(want):
            problems.append(f"{key}: {len(have)} rows, reference has {len(want)}")
        elif not all(isinstance(v, float) for v in want):
            if have != want:
                problems.append(f"{key}: differs from the reference")
        else:
            if any(math.isnan(h) != math.isnan(w) for h, w in zip(have, want)):
                problems.append(f"{key}: NaN positions differ from the reference")
                continue
            pairs = [(h, w) for h, w in zip(have, want) if not math.isnan(w)]
            scale = max((abs(w) for _, w in pairs if math.isfinite(w)), default=0.0)
            err = max((abs(h - w) if h != w else 0.0 for h, w in pairs), default=0.0)
            if err > REL_TOL * scale:
                problems.append(f"{key}: max |diff| {err:.3g} exceeds {REL_TOL:g} x {scale:.3g}")
    return problems


@pytest.fixture(scope="module")
def reference() -> dict[str, dict[str, list]]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", [s.name for s in list_scenarios()])
def test_scenario_matches_reference(name, reference, tmp_path):
    assert name in reference, f"{name} has no committed reference output"
    problems = _mismatches(scenario_columns(name, tmp_path), reference[name])
    assert not problems, "\n".join(problems)


def _write_reference() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data = {s.name: scenario_columns(s.name, Path(tmp)) for s in list_scenarios()}
    REFERENCE.parent.mkdir(exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    _write_reference()
