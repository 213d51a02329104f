"""The passes of one benchmark run, in a fresh process.

Started by ``run.py`` with the parent's CLOCK_MONOTONIC reading taken just
before the spawn, so the reported set-up time covers interpreter start,
``import qplanar``, stack loading and parser build.  Each pass then runs the
workload's command list through ``qplanar.cli.main(argv)`` in-process, one
command after the other, and captures every output.  The first pass's
outputs get the full checks; every later pass must repeat them exactly.
One JSON object goes to the last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from checks import check_samples, check_suite, compare_digest, table_digest  # noqa: E402
from workloads import OUT_DIR, make_workload  # noqa: E402

MIN_PASSES = 3


def _import_qplanar():
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    t = time.perf_counter()
    import qplanar
    import qplanar.cli
    return qplanar, time.perf_counter() - t


def _run_command(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the pass
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def _check(qplanar, cmd, rc, out: str, err: str, ref_digest) -> tuple[list[str], int]:
    """(problems, grid points checked) of one command's outcome."""
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[-500:]}"], 0
    try:
        if cmd.kind == "suite":
            checked, problems = check_suite(out)
            return problems, checked
        if cmd.kind == "sample":
            stack = qplanar.load_stack(Path(cmd.argv[2]).read_text(encoding="utf-8"))

            def reference_w(omega, k, pol, temp):
                ctx = qplanar.make_context(stack, omega, k)
                return qplanar.emission_w(ctx, q=pol, temperature=temp, side=0)

            return check_samples(out, reference_w), 0
        got = table_digest(out)
    except ValueError as exc:
        return [f"unreadable output: {exc}"], 0
    if ref_digest is None:
        return ["no reference digest for this input seed"], 0
    return compare_digest(ref_digest, got), 0


def _layer_metrics(tab, wl, cmd_spans, rows: int, checked: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, derived from its spans."""
    m: dict[str, float] = {}
    for layer in ("modes", "scatter", "commutators"):
        m[f"{layer}.calls"] = tab.entries(layer)
    for layer in ("modes", "scatter", "iorel", "commutators", "thermal", "cli", "rhokernels",
                  "greens", "sampler", "stack"):
        m[f"{layer}.self_s"] = tab.self_time(layer)

    def in_commands(pred) -> np.ndarray:
        sel = np.zeros(len(tab.dur_s), dtype=bool)
        for (lo, hi), cmd in zip(cmd_spans, wl.commands):
            sel[lo:hi] |= pred(cmd)
        return sel

    # Per-call cost of the two stages ROADMAP tracks, by layer count of the stack.
    for fn in ("scatter.scatter_set", "commutators.commutator_set"):
        for n in (1, 5, 20):
            sel = tab.of(fn) & in_commands(lambda c: c.n_layers == n)
            m[f"{fn.partition('.')[0]}.us_per_call.L{n}"] = (
                float(tab.dur_s[sel].mean() * 1e6) if sel.any() else 0.0)

    cs = tab.of("commutators.commutator_set")
    cs_points = sum(cmd.points for (lo, hi), cmd in zip(cmd_spans, wl.commands) if cs[lo:hi].any())
    m["commutators.calls_per_point"] = float(cs.sum()) / cs_points if cs_points else 0.0

    m["cli.rows"] = rows
    suite_points = sum(c.points for c in wl.commands if c.kind == "suite")
    m["cli.checked_frac"] = checked / suite_points if suite_points else 0.0
    main = tab.of("cli.main")
    for name in ("coeffs", "thermal", "verify", "sample", "kernels", "green-check"):
        sel = main & in_commands(lambda c: c.argv[0] == name)
        m[f"cli.{name}_s"] = float(tab.dur_s[sel].sum())

    # Kernel quadrature: mode evaluations (k values, whether make_context
    # takes one k or an array) and the share made in the final refinement
    # pass.  Gauss nodes run in increasing k within a pass, so a pass starts
    # wherever a call's first k drops below the previous call's first k.
    evals = tab.of("modes.make_context") & (tab.parent_layer == tab.layer_ids["rhokernels"])
    total = useful = 0
    for kr in np.flatnonzero(tab.of("rhokernels.kernel_radial")):
        notes = [tab.notes[i] for i in np.flatnonzero(evals & (tab.parent == kr))]
        sizes = np.array([n for n, _ in notes], dtype=np.int64)
        drops = np.flatnonzero(np.diff([k for _, k in notes]) < 0)
        total += int(sizes.sum())
        useful += int(sizes[drops[-1] + 1 if drops.size else 0:].sum())
    m["rhokernels.mode_evals"] = total
    m["rhokernels.useful_frac"] = useful / total if total else 0.0

    m["greens.kernel_calls"] = int(tab.of("greens.green_kernel").sum())
    se = tab.of("sampler.sample_emission")
    realizations = sum(int(c.argv[c.argv.index("--realizations") + 1]) * c.points
                       for c in wl.commands if c.kind == "sample")
    m["sampler.realizations_per_s"] = realizations / float(tab.dur_s[se].sum()) if se.any() else 0.0
    return m


def _run_pass(qplanar, wl, rec) -> dict:
    """Run the command list once, back to back; spans go to `rec` when given."""
    if rec is not None:
        rec.install()
    outcomes, cmd_spans, cmd_s = [], [], []
    t_first, cpu_first = time.perf_counter(), time.process_time()
    for cmd in wl.commands:
        lo = len(rec) if rec is not None else 0
        t = time.perf_counter()
        outcomes.append(_run_command(qplanar.cli, cmd.argv))
        cmd_s.append(time.perf_counter() - t)
        cmd_spans.append((lo, len(rec) if rec is not None else 0))
    wall_s = time.perf_counter() - t_first
    cpu_s = time.process_time() - cpu_first
    if rec is not None:
        rec.uninstall()
    return {"wall_s": wall_s, "cpu_s": cpu_s, "cmd_s": cmd_s, "outcomes": outcomes,
            "cmd_spans": cmd_spans}


def _check_first_pass(qplanar, wl, outcomes) -> dict:
    """Full output checks of the first pass, and the counts derived from them."""
    digests = BENCH_DIR / "digests" / f"{wl.tag}.json"
    refs = (json.loads(digests.read_text(encoding="utf-8"))["commands"] if digests.exists()
            else [None] * len(wl.commands))
    bad, problems, points, rows, checked = [], [], 0, 0, 0
    for i, (cmd, (rc, out, err), ref) in enumerate(zip(wl.commands, outcomes, refs)):
        probs, n_checked = _check(qplanar, cmd, rc, out, err, ref)
        bad.append(bool(probs))
        problems += [f"{cmd.argv[0]} #{i}: {p}" for p in probs]
        if cmd.kind == "suite":
            checked += n_checked
            points += n_checked
        else:
            points += cmd.points
            rows += max(0, out.count("\n") - 2) if rc == 0 else 0
    return {"bad": bad, "problems": problems, "points": points, "rows": rows, "checked": checked}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: trace every other pass, starting with the first")
    ap.add_argument("--until", type=float, default=0.0,
                    help=f"time.monotonic() after which no pass starts once {MIN_PASSES} ran")
    ap.add_argument("--deadline", type=float, default=float("inf"),
                    help="time.monotonic() after which no pass starts at all")
    args = ap.parse_args(argv)

    qplanar, import_s = _import_qplanar()
    wl = make_workload(args.workload, args.seed)
    t = time.perf_counter()
    for fname in wl.stacks:
        qplanar.load_stack((wl.inputs_dir / fname).read_text(encoding="utf-8"))
    load_s = time.perf_counter() - t
    qplanar.cli.build_parser()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    from spans import SpanRecorder, SpanTable, overhead_per_span

    os.chdir(wl.inputs_dir)
    passes, first, failed, longest = [], None, 0, 0.0
    while True:
        now = time.monotonic()
        if len(passes) >= MIN_PASSES and now + longest > args.until:
            break
        if passes and now + longest > args.deadline:
            break
        rec = SpanRecorder() if args.trace and len(passes) % 2 == 0 else None
        p = _run_pass(qplanar, wl, rec)
        longest = max(longest, p["wall_s"])
        outcomes = p.pop("outcomes")
        if first is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            first = _check_first_pass(qplanar, wl, outcomes)
            first["outputs"] = [(rc, out) for rc, out, _ in outcomes]
            failed += sum(first["bad"])
        else:
            # The engine's tables are byte-stable for fixed inputs, so a later
            # pass must repeat the first pass's exit codes and outputs exactly.
            for i, ((rc, out, _), ref, bad) in enumerate(zip(outcomes, first["outputs"], first["bad"])):
                if bad or (rc, out) != ref:
                    failed += 1
                    if not bad:
                        first["problems"].append(f"pass {len(passes)}: {wl.commands[i].argv[0]} #{i} "
                                                 "output differs from the first pass")
        cmd_spans = p.pop("cmd_spans")
        if rec is not None:
            overhead = overhead_per_span()
            p["layers"] = _layer_metrics(SpanTable(rec, overhead), wl, cmd_spans,
                                         first["rows"], first["checked"])
            p["layers"].update({"stack.load_s": load_s, "setup.import_s": import_s,
                                "setup.import_frac": import_s / setup_s})
            p.update(spans=len(rec), tracer_us_per_span=overhead * 1e6)
            rec.write(OUT_DIR / f"spans-{wl.tag}.npz")
        passes.append(p)

    print(json.dumps({
        "setup_s": setup_s, "import_s": import_s, "peak_rss_mb": peak_rss_mb,
        "points": first["points"], "rows": first["rows"], "attempted": len(wl.commands) * len(passes),
        "failed": failed, "problems": first["problems"], "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
