"""Golden outputs: CLI datasets pinned byte for byte.

The cases cover the interior samples of each family, the existence map
(bare, and with Monte Carlo volumes of every family), the initial-phase
scan, the section-map report from each family's center and from a start
that does not close within its budget, the projection overlay, the verify
report and the volumes.  Each case
runs one CLI command with a pinned timestamp and compares every
file it writes against the copy under tests/golden/.  Exact volumes pass
through LAPACK and qhull, so they are compared within 1e-12 relative; every
other byte must match.

The datasets of the 0.01-grid phase scan, which the phase-portrait
benchmark writes, are pinned by their sha256 alone (HASHED, listed in
tests/golden/hashes.sha256 as sha256sum writes them): at 3.9 MB together
they are too large to keep.

Regenerate the goldens (only when a change of output is intended, and say
which bytes changed and why) with:

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

Named cases are regenerated alone, so adding a case rewrites no existing
golden; with no names, every case is.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from isochron.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

TS = "2026-01-01T00:00:00+00:00"

OUT_FLAGS = ("--out", "--out-csv", "--out-json")

CASES = {
    **{
        f"sample-{k}": ["region", "sample", "--kind", k, "--samples", "200",
                        "--out", f"sample-{k}.csv"]
        for k in ("ir3", "ir4", "ir5")
    },
    "scan-params": ["scan", "params", "--grid", "20x20", "--out-csv", "params.csv"],
    "scan-params-mc": ["scan", "params", "--grid", "4x4", "--volume-kinds", "ir3,ir4,ir5",
                       "--volume-method", "montecarlo", "--volume-samples", "2000",
                       "--out-csv", "params-mc.csv", "--out-json", "params-mc.json"],
    "scan-phases": ["scan", "phases", "--step", "0.1", "--out-csv", "phases.csv",
                    "--out-json", "phases.json"],
    "scan-phases-tau0": ["scan", "phases", "--tau", "0", "--step", "0.05",
                         "--out-csv", "phases-tau0.csv", "--out-json", "phases-tau0.json"],
    "scan-phases-tiny-tau": ["scan", "phases", "--tau", "1e-12", "--step", "0.05",
                             "--out-csv", "phases-tiny-tau.csv",
                             "--out-json", "phases-tiny-tau.json"],
    "scan-phases-budget": ["scan", "phases", "--step", "0.1", "--max-iter", "4",
                           "--out-csv", "phases-budget.csv",
                           "--out-json", "phases-budget.json"],
    **{
        f"poincare-{k}": ["poincare", "--center", k, "--out", f"poincare-{k}.json"]
        for k in ("ir3", "ir4", "ir5")
    },
    "poincare-miss": ["poincare", "--state",
                      '{"phases":[0.3,0.7,0.0],"ftds":[[0.3],[],[0.0]]}',
                      "--max-iter", "1", "--out", "poincare-miss.json"],
    "project-compare": ["region", "project", "--compare", "--step", "0.1",
                        "--samples", "200", "--out-csv", "project.csv",
                        "--out-json", "project.json"],
    "verify-all": ["verify", "--suite", "all", "--samples", "200",
                   "--out", "verify.json"],
    **{
        f"volume-{k}": ["region", "volume", "--kind", k, "--method", "both",
                        "--out", f"volume-{k}.json"]
        for k in ("ir3", "ir4", "ir5")
    },
}

#: Cases whose files are pinned by their sha256 in HASHES.
HASHED = {
    "scan-phases-0.01": ["scan", "phases", "--step", "0.01", "--out-csv", "phases-0.01.csv",
                         "--out-json", "phases-0.01.json"],
}

HASHES = GOLDEN_DIR / "hashes.sha256"


def _run(argv: list[str]) -> list[str]:
    """Run one case in the current directory; return its output file names.

    Output paths stay relative because the headers record them."""
    assert main(argv + ["--threads", "1", "--timestamp", TS]) == 0
    return [argv[i + 1] for i, arg in enumerate(argv) if arg in OUT_FLAGS]


def _pin_exact_volume(actual: str, golden: str) -> str:
    """Check the exact volume within 1e-12 relative, then return actual
    with the golden's value put back, for a byte comparison of the rest."""
    got, want = json.loads(actual), json.loads(golden)
    got_exact, want_exact = got["reports"]["exact"], want["reports"]["exact"]
    assert got_exact["volume"] == pytest.approx(want_exact["volume"], rel=1e-12)
    got_exact["volume"] = want_exact["volume"]
    return json.dumps(got, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in _run(CASES[case]):
        actual = (tmp_path / name).read_text()
        golden = (GOLDEN_DIR / name).read_text()
        if name.startswith("volume-"):
            actual = _pin_exact_volume(actual, golden)
        assert actual == golden, f"{name} differs from its golden copy"


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _hashes() -> dict[str, str]:
    """File name -> sha256, as HASHES lists them."""
    return {name: digest for digest, name in map(str.split, HASHES.read_text().splitlines())}


@pytest.mark.parametrize("case", sorted(HASHED))
def test_golden_hash(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    hashes = _hashes()
    for name in _run(HASHED[case]):
        assert _sha256(tmp_path / name) == hashes[name], f"{name} differs from its golden hash"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    os.chdir(GOLDEN_DIR)
    names = sys.argv[1:] or [*CASES, *HASHED]
    for case in names:
        if case in CASES:
            _run(CASES[case])
    hashed = [case for case in names if case in HASHED]
    if hashed:
        hashes = _hashes() if HASHES.exists() else {}
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            for case in hashed:
                hashes.update((name, _sha256(name)) for name in _run(HASHED[case]))
        HASHES.write_text("".join(f"{hashes[name]}  {name}\n" for name in sorted(hashes)))
