"""Regenerate the reference digests the output checks compare against.

    python3 bench/make_digests.py [--workload sweep|kernels]

Runs each table command of the workload once per input seed with the
engine in this checkout and stores one digest per command in
``bench/digests/<workload>-<seed>.json``.  Only regenerate when an output is
meant to change, and say so where the change is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import BENCH_DIR, PINNED_ENV, ROOT

os.environ.update(PINNED_ENV)  # before numpy loads, as for every benchmark pass
sys.path.insert(0, str(ROOT / "src"))

import qplanar.cli  # noqa: E402
from checks import table_digest  # noqa: E402
from worker import _run_command  # noqa: E402
from workloads import N_INPUT_SEEDS, make_workload  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=("sweep", "kernels"), action="append")
    args = ap.parse_args()
    for name in args.workload or ("sweep", "kernels"):
        for seed in range(N_INPUT_SEEDS):
            wl = make_workload(name, seed)
            wl.write_stacks(wl.inputs_dir)
            os.chdir(wl.inputs_dir)
            digests = []
            for cmd in wl.commands:
                rc, out, err = _run_command(qplanar.cli, cmd.argv)
                if rc != 0:
                    raise SystemExit(f"{name} seed {seed}: {cmd.argv[0]} exited {rc}: {err}")
                digests.append(table_digest(out))
            path = BENCH_DIR / "digests" / f"{wl.tag}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({"workload": name, "input_seed": seed, "commands": digests},
                                       separators=(",", ":")) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
