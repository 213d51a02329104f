"""Golden CLI outputs on a fixed pair of 2-layer stacks and a small grid.

Each case runs one command through `qplanar.cli.main` and compares its
stdout with `tests/golden/<case>.txt`:

* tables: the schema line, the header and every text column must match
  exactly; each numeric column must match within GOLDEN_RTOL of that
  column's largest magnitude in the golden file;
* `verify` status lines: suite, points, skipped, tol and status must match
  exactly, and max_residual must stay at or below tol.

The goldens are regenerated with `python tests/test_golden.py`, which is
only right when a change to the printed numbers is intended.  It rewrites
only the files that are missing or no longer pass these comparisons, so
rounding noise in the other cases leaves their files as they are.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest

from qplanar.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_RTOL = 1e-12


def _const(re, im):
    return {"model": "constant", "eps_re": re, "eps_im": im}


# Vacuum-clad: coeffs/thermal/sample/commutators/unitarity/kirchhoff.
VACUUM_CLAD = {
    "medium0": _const(1.0, 0.0),
    "layers": [
        {"thickness_m": 1.2e-7, "material": _const(2.0, 0.4)},
        {"thickness_m": 9e-8, "material": _const(3.5, 0.1)},
    ],
    "mediumN": _const(1.0, 0.0),
}

# Absorbing outer media: the Green identity and a branch-point-free kernel.
LOSSY_CLAD = {
    "medium0": _const(1.0, 0.5),
    "layers": [
        {"thickness_m": 1.5e-7, "material": _const(2.2, 0.3)},
        {"thickness_m": 1e-7, "material": _const(3.0, 0.05)},
    ],
    "mediumN": _const(2.0, 1.0),
}

GRID = ["--omega", "1.5e15,2.5e15", "--k", "0:2.4w:4"]

# case -> (stack, argv after the stack option)
CASES = {
    "coeffs": (VACUUM_CLAD, ["coeffs", *GRID]),
    "thermal": (VACUUM_CLAD, ["thermal", *GRID]),
    "kernels": (LOSSY_CLAD, ["kernels", "--omega", "2e15", "--kind", "Phi0-", "--layer", "2",
                             "--kw", "0.3w", "--rho-points", "11"]),
    "sample": (VACUUM_CLAD, ["sample", "--omega", "2e15", "--k", "0.5w", "--realizations", "3000",
                            "--seed", "7", "--side", "3"]),
    "verify-commutators": (VACUUM_CLAD, ["verify", "--suite", "commutators", *GRID]),
    "verify-unitarity": (VACUUM_CLAD, ["verify", "--suite", "unitarity", *GRID]),
    "verify-kirchhoff": (VACUUM_CLAD, ["verify", "--suite", "kirchhoff", *GRID]),
    "verify-green": (LOSSY_CLAD, ["verify", "--suite", "green", "--omega", "2e15",
                                  "--k", "0,0.8w"]),
}


def _run(case: str, stack_path: Path) -> str:
    stack, argv = CASES[case]
    stack_path.write_text(json.dumps(stack))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main([argv[0], "--stack", str(stack_path), *argv[1:]])
    assert rc == 0, buf.getvalue()
    return buf.getvalue()


def _status_fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split())


def _compare_status(got: str, want: str):
    g, w = _status_fields(got.strip()), _status_fields(want.strip())
    assert g.keys() == w.keys()
    for key in ("suite", "points", "skipped", "tol", "status"):
        assert g[key] == w[key], key
    assert float(g["max_residual"]) <= float(g["tol"])


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _compare_table(got: str, want: str):
    g, w = got.splitlines(), want.splitlines()
    assert g[:2] == w[:2]  # schema line and header
    assert len(g) == len(w)
    g_rows = [r.split(",") for r in g[2:]]
    w_rows = [r.split(",") for r in w[2:]]
    header = w[1].split(",")
    for c, name in enumerate(header):
        g_col = [r[c] for r in g_rows]
        w_col = [r[c] for r in w_rows]
        if not all(_is_number(v) for v in w_col):
            assert g_col == w_col, name
            continue
        scale = max(abs(float(v)) for v in w_col)
        worst = max(abs(float(a) - float(b)) for a, b in zip(g_col, w_col))
        assert worst <= GOLDEN_RTOL * scale, (name, worst, scale)


def _compare(case: str, got: str, want: str):
    if case.startswith("verify-"):
        _compare_status(got, want)
    else:
        _compare_table(got, want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    got = _run(case, tmp_path / "stack.json")
    _compare(case, got, (GOLDEN_DIR / f"{case}.txt").read_text(encoding="utf-8"))


def _table_rows(text: str) -> list[dict[str, str]]:
    header, *rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    return [dict(zip(header, row)) for row in rows]


def test_sample_golden_is_within_5_stderr_of_thermal(tmp_path):
    """The `sample` golden estimates the closed form: each row is within 5 standard errors of
    `thermal` at its mode and side on the same stack."""
    stack, _ = CASES["sample"]
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(stack))
    rows = _table_rows((GOLDEN_DIR / "sample.txt").read_text(encoding="utf-8"))
    assert rows
    for r in rows:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["thermal", "--stack", str(path), "--omega", r["omega_rad_s"],
                         "--k", r["k_inv_m"], "--pol", r["pol"]]) == 0
        [ref] = [float(t["w_n0_normalized"]) for t in _table_rows(buf.getvalue())
                 if t["side"] == r["side"]]
        assert abs(float(r["w_est_n0"]) - ref) <= 5.0 * float(r["stderr_n0"]), (r, ref)


def write_goldens():
    """Write the golden file of every case that is missing or fails its comparison."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            out = _run(case, Path(tmp) / "stack.json")
            path = GOLDEN_DIR / f"{case}.txt"
            try:
                _compare(case, out, path.read_text(encoding="utf-8"))
            except (FileNotFoundError, AssertionError):
                path.write_text(out, encoding="utf-8")


def test_write_goldens_rewrites_only_missing_or_failing_cases(tmp_path, monkeypatch):
    source, golden = GOLDEN_DIR, tmp_path / "golden"
    shutil.copytree(source, golden)
    monkeypatch.setitem(globals(), "GOLDEN_DIR", golden)
    (golden / "thermal.txt").unlink()
    noise = (golden / "verify-commutators.txt").read_text(encoding="utf-8")
    noise = noise.replace(_status_fields(noise)["max_residual"], "1.234560e-15")
    (golden / "verify-commutators.txt").write_text(noise, encoding="utf-8")
    failing = (golden / "sample.txt").read_text(encoding="utf-8").replace(",3000,", ",3001,")
    (golden / "sample.txt").write_text(failing, encoding="utf-8")
    before = {f.name: f.read_bytes() for f in golden.iterdir()}

    write_goldens()

    after = {f.name: f.read_bytes() for f in golden.iterdir()}
    changed = {name for name in after if after[name] != before.get(name)}
    assert changed == {"thermal.txt", "sample.txt"}
    for case in ("thermal", "sample"):
        _compare(case, after[f"{case}.txt"].decode(), (source / f"{case}.txt").read_text(encoding="utf-8"))


if __name__ == "__main__":
    write_goldens()
