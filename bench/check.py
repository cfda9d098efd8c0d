"""Output checks: committed reference values and invariants that hold on any seed.

Outputs are named columns, ``{key: list of numbers or strings}``.  The
reference comparison allows ``REL_TOL`` times the column's largest finite
magnitude, the rule scenario outputs must keep across optimizations.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

REL_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Scenario files whose every column except ``lag`` is a cut normalized to
# 0 dB at lag 0.
NORMALIZED_CUTS = ("zero_doppler_cp.csv", "zero_doppler_nocp.csv", "basis_comparison_qam16.csv")
# project_snr returns NaN by design when a curve never reaches the plateau.
NAN_ALLOWED = ("projected_snr_db",)
WILSON_Z = 1.959963984540054


def ignore_known_warnings() -> None:
    """``lag_correlation`` warns when it clips negative estimates; not a failure."""
    warnings.filterwarnings(
        "ignore", message="negative squared-envelope correlation", category=UserWarning
    )


class CheckError(Exception):
    """An output that cannot be read back or does not match its manifest."""


def _sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _parse(values: list[str]) -> list:
    try:
        return [float(v) for v in values]
    except ValueError:
        return values


def read_scenario(run_dir: Path) -> dict[str, list]:
    """Columns of every file in a scenario's manifest, after its SHA-256 check."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    if not manifest["files"]:
        raise CheckError(f"{run_dir.name}: manifest lists no files")
    out: dict[str, list] = {}
    for fname, digest in sorted(manifest["files"].items()):
        path = run_dir / fname
        if _sha256(path) != digest:
            raise CheckError(f"{fname}: SHA-256 differs from the manifest")
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        for name, col in zip(header, zip(*rows)):
            out[f"{fname}/{name}"] = _parse(list(col))
    return out


def _numeric(values) -> np.ndarray | None:
    if values and isinstance(values[0], str):
        return None
    return np.asarray(values, dtype=float)


def invariants(outputs: dict[str, list]) -> list[str]:
    """Seed-independent properties of one operation's outputs."""
    problems = []
    arrays = {k: _numeric(v) for k, v in outputs.items()}
    for key, a in arrays.items():
        if a is None:
            continue
        bad = ~np.isfinite(a)
        if key.endswith(NAN_ALLOWED):
            bad &= ~np.isnan(a)
        if bad.any():
            problems.append(f"{key}: {int(bad.sum())} non-finite values")

    for fname in NORMALIZED_CUTS:
        lag = arrays.get(f"{fname}/lag")
        if lag is None:
            continue
        at0 = np.flatnonzero(lag == 0)
        for key, a in arrays.items():
            if key.startswith(f"{fname}/") and key != f"{fname}/lag" and abs(a[at0[0]]) > 1e-9:
                problems.append(f"{key}: {float(a[at0[0]])!r} dB at lag 0, expected 0")

    for key, pd in arrays.items():
        if not key.endswith("/pd"):
            continue
        stem = key[: -len("pd")]
        half, trials = arrays[stem + "ci_halfwidth"], arrays[stem + "trials"]
        z2n = WILSON_Z**2 / trials
        center = (pd + z2n / 2) / (1 + z2n)
        lo, hi = center - half, center + half
        if not (np.all(lo >= -1e-12) and np.all(hi <= 1 + 1e-12)
                and np.all(lo <= pd) and np.all(pd <= hi)):
            problems.append(f"{key}: Pd or its Wilson interval leaves [0, 1]")

    if "bussgang" in arrays:
        _kr, _ki, sigma_d2, sdr, _d4 = arrays["bussgang"]
        if not (sigma_d2 > 0 and sdr > 0):
            problems.append(f"bussgang: sigma_d2={float(sigma_d2)!r}, SDR={float(sdr)!r}; "
                            "both must be > 0")
    for key, a in arrays.items():
        # the four Bussgang AF terms recombine to |A_s|^2 of s = kappa x + d
        if key.startswith("recombined/"):
            ref = arrays["paf/" + key.split("/", 1)[1]]
            if np.max(np.abs(a - ref)) > 1e-9 * np.max(np.abs(ref)):
                problems.append(f"{key}: four-term recombination differs from the PAF")
    return problems


def compare(outputs: dict[str, list], reference: dict[str, list]) -> list[str]:
    """Differences from the reference beyond ``REL_TOL`` of each column's scale."""
    if set(outputs) != set(reference):
        missing = sorted(set(reference) - set(outputs))
        extra = sorted(set(outputs) - set(reference))
        return [f"columns differ from the reference: missing {missing}, extra {extra}"]
    problems = []
    for key, ref in reference.items():
        got = outputs[key]
        r, g = _numeric(ref), _numeric(got)
        if r is None or g is None:
            if list(got) != list(ref):
                problems.append(f"{key}: differs from the reference")
            continue
        if r.shape != g.shape or not np.array_equal(np.isnan(r), np.isnan(g)):
            problems.append(f"{key}: shape or NaN positions differ from the reference")
            continue
        finite = ~np.isnan(r)
        scale = float(np.max(np.abs(r[finite]), initial=0.0))
        err = float(np.max(np.abs(g[finite] - r[finite]), initial=0.0))
        if err > REL_TOL * scale:
            problems.append(f"{key}: max |diff| {err:.3g} exceeds {REL_TOL:g} x {scale:.3g}")
    return problems


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict[str, dict[str, list]]:
    """Reference outputs per operation, for the reference seed."""
    return json.loads(reference_path(workload).read_text(encoding="utf-8"))["outputs"]


def digest(outputs: dict[str, list]) -> str:
    """Stable hash of one operation's outputs, for pass-to-pass comparison."""
    text = json.dumps(outputs, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
