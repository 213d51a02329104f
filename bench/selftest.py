"""Shows that each output check of the benchmark trips on a bad output.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)

Covers a perturbed table against its digest, a failing exit code and a
failing suite status, and a Monte Carlo estimate off by more than
MC_MAX_STDERRS standard errors.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import qplanar  # noqa: E402
import qplanar.cli  # noqa: E402
from checks import (  # noqa: E402
    MC_MAX_STDERRS, check_samples, check_suite, compare_digest, table_digest,
)
from worker import _check, _run_command  # noqa: E402
from workloads import Command, make_workload  # noqa: E402

_GRID = ["--omega", "1e15:3e15:4", "--k", "0.05w:2.45w:5", "--pol", "s,p"]


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _coeffs_table(stack_dir: Path) -> str:
    wl = make_workload("sweep", 0)
    wl.write_stacks(stack_dir)
    rc, out, err = _run_command(qplanar.cli,
                                ["coeffs", "--stack", str(stack_dir / "sweep_L5.json"), *_GRID])
    _expect(rc == 0, f"coeffs failed: {err}")
    return out


def _edit_cell(text: str, row: int, col: int, fn) -> str:
    lines = text.splitlines()
    cells = lines[2 + row].split(",")
    cells[col] = f"{fn(float(cells[col])):.12e}"
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_digest_trips_on_perturbed_table():
    with tempfile.TemporaryDirectory() as tmp:
        text = _coeffs_table(Path(tmp))
    ref = table_digest(text)
    _expect(compare_digest(ref, table_digest(text)) == [], "identical table must agree")
    col = ref["header"].index("phi_0m_L3_re")
    # Last-digit noise of the kind a reordered sum gives: still agrees.
    noisy = _edit_cell(text, 7, col, lambda x: x * (1.0 + 3e-15))
    _expect(compare_digest(ref, table_digest(noisy)) == [], "1e-15 relative noise must agree")
    # A sign error in one entry trips the check.
    flipped = _edit_cell(text, 7, col, lambda x: -x)
    _expect(any("phi_0m_L3_re" in p for p in compare_digest(ref, table_digest(flipped))),
            "a flipped sign must trip the digest")
    # So does a small shift of one entry, well above 1e-9 of the column maximum.
    scale = ref["columns"]["phi_0m_L3_re"][0]
    shifted = _edit_cell(text, 3, col, lambda x: x + 1e-6 * scale)
    _expect(compare_digest(ref, table_digest(shifted)) != [], "a 1e-6 shift must trip the digest")
    # A NaN in one entry.
    _expect(compare_digest(ref, table_digest(_edit_cell(text, 5, col, lambda x: float("nan")))) != [],
            "a NaN must trip the digest")
    # And a changed row count or polarization label.
    _expect(compare_digest(ref, table_digest(text.rsplit("\n", 2)[0] + "\n")) != [],
            "a missing row must trip the digest")
    _expect(compare_digest(ref, table_digest(text.replace(",s,", ",p,", 1))) != [],
            "a changed text cell must trip the digest")


def test_failing_exit_code_is_a_failure():
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["coeffs", "--stack", os.path.join(tmp, "missing.json"), "--omega", "2e15"]
        rc, out, err = _run_command(qplanar.cli, argv)
        _expect(rc == 2, f"expected usage exit code 2, got {rc}")
        problems, _ = _check(qplanar, Command(argv, 1, 1, "table"), rc, out, err, None)
        _expect(problems and "exit code 2" in problems[0], f"exit code not reported: {problems}")


def test_suite_status_must_pass():
    ok = "suite=commutators points=2000 skipped=0 max_residual=8.6e-15 tol=1.0e-10 status=PASS\n"
    _expect(check_suite(ok) == (2000, []), "a PASS line must pass")
    bad = ok.replace("status=PASS", "status=FAIL")
    _expect(check_suite(bad)[1] != [], "a FAIL line must trip the check")
    _expect(check_suite("")[1] != [], "a missing status line must trip the check")


def test_mc_estimate_off_by_more_than_the_bound_trips():
    header = "omega_rad_s,k_inv_m,pol,side,temp_K,w_est_n0,stderr_n0,realizations,seed"

    def table(w_est: float) -> str:
        return (f"# schema=qplanar-sample-v1\n{header}\n"
                f"2e15,3e6,s,0,1000,{w_est!r},1.0e-3,20000,0\n")

    def reference_w(omega, k, pol, temp):
        return 1.0

    _expect(check_samples(table(1.0 + 1.3e-3), reference_w) == [], "1.3 stderr must pass")
    off = 1.0 + (MC_MAX_STDERRS + 0.5) * 1e-3
    _expect(check_samples(table(off), reference_w) != [], "5.5 stderr must trip the check")


def test_mc_check_accepts_the_real_sampler():
    wl = make_workload("certify", 0)
    cmd = next(c for c in wl.commands if c.kind == "sample")
    with tempfile.TemporaryDirectory() as tmp:
        wl.write_stacks(Path(tmp))
        argv = [a if not a.endswith(".json") else str(Path(tmp) / a) for a in cmd.argv]
        argv[argv.index("--realizations") + 1] = "4096"
        rc, out, err = _run_command(qplanar.cli, argv)
        _expect(rc == 0, f"sample failed: {err}")
        stack = qplanar.load_stack(Path(argv[2]).read_text(encoding="utf-8"))

    def reference_w(omega, k, pol, temp):
        return qplanar.emission_w(qplanar.make_context(stack, omega, k), q=pol, temperature=temp)

    _expect(check_samples(out, reference_w) == [], "the sampler must pass its oracle")


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
