"""Output checks of the benchmark: table digests, suite status and the MC oracle.

A table (CSV) is reduced to one digest per column.  A numeric column keeps
its largest magnitude and four projections onto fixed Gaussian weight
vectors; a text column keeps a SHA-256 of its values.  Two tables agree
when the header and row count match, every text hash matches, and every
numeric digest entry agrees within `DIGEST_RTOL` of the reference column's
largest magnitude (scaled by the weight norm for the projections, so the
bound is an RMS change per entry).  A sign or branch error in any entry
above about 5e-8 of the column maximum moves some projection past that.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

DIGEST_RTOL = 1e-9
MC_MAX_STDERRS = 5.0
_N_PROJ = 4
_WEIGHT_SEED = 20030302


def parse_csv(text: str) -> tuple[str, list[str], list[list[str]]]:
    """(schema comment, header, rows) of one CLI table."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# schema="):
        raise ValueError("output is not a qplanar CSV table")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV table")
    return lines[0], header, rows


def _weights(n: int) -> np.ndarray:
    return np.random.default_rng([_WEIGHT_SEED, n]).standard_normal((_N_PROJ, n))


def table_digest(text: str) -> dict:
    schema, header, rows = parse_csv(text)
    cols = list(zip(*rows)) if rows else [() for _ in header]
    weights = _weights(len(rows))
    digests = {}
    for name, values in zip(header, cols):
        try:
            x = np.array(values, dtype=float)
        except ValueError:
            digests[name] = hashlib.sha256("\n".join(values).encode()).hexdigest()
            continue
        digests[name] = [float(np.max(np.abs(x))) if x.size else 0.0, *map(float, weights @ x)]
    return {"schema": schema, "header": header, "rows": len(rows), "columns": digests}


def compare_digest(ref: dict, got: dict) -> list[str]:
    """Problems found comparing a table digest against its reference; empty if it agrees."""
    for key in ("schema", "header", "rows"):
        if ref[key] != got[key]:
            return [f"{key} differs: expected {ref[key]!r}, got {got[key]!r}"]
    norms = np.linalg.norm(_weights(ref["rows"]), axis=1)
    problems = []
    for name, want in ref["columns"].items():
        have = got["columns"][name]
        if isinstance(want, str) or isinstance(have, str):
            if want != have:
                problems.append(f"column {name}: text values differ")
            continue
        scale = DIGEST_RTOL * want[0]
        # Written as "not within" so that a NaN anywhere fails the check.
        if not abs(have[0] - want[0]) <= scale:
            problems.append(f"column {name}: max |x| {have[0]!r} vs {want[0]!r}")
        gaps = np.abs(np.subtract(have[1:], want[1:])) / norms
        if not np.all(gaps <= scale):
            problems.append(f"column {name}: RMS change {float(gaps.max()):.3e} "
                            f"> {DIGEST_RTOL:.0e} x max |x| {want[0]:.6e}")
    return problems


_SUITE_RE = re.compile(r"points=(\d+).*status=(\w+)")


def check_suite(text: str) -> tuple[int, list[str]]:
    """(points checked, problems) of a `verify` or `green-check` status line."""
    m = _SUITE_RE.search(text)
    if m is None:
        return 0, ["no status line in suite output"]
    if m.group(2) != "PASS":
        return int(m.group(1)), [f"suite reported status={m.group(2)}: {text.strip()}"]
    return int(m.group(1)), []


def check_samples(text: str, reference_w) -> list[str]:
    """MC estimates must lie within MC_MAX_STDERRS standard errors of emission_w.

    `reference_w(omega, k, pol, temp)` returns the closed-form spectrum.
    """
    _, header, rows = parse_csv(text)
    problems = []
    for row in rows:
        r = dict(zip(header, row))
        w_ref = reference_w(float(r["omega_rad_s"]), float(r["k_inv_m"]), r["pol"],
                            float(r["temp_K"]))
        gap, stderr = abs(float(r["w_est_n0"]) - w_ref), float(r["stderr_n0"])
        if not gap <= MC_MAX_STDERRS * stderr:
            problems.append(f"pol {r['pol']}: MC estimate {gap:.3e} from emission_w "
                            f"{w_ref:.6e}, stderr {stderr:.3e}")
    if not rows:
        problems.append("sample table has no rows")
    return problems
