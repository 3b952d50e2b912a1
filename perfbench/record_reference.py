#!/usr/bin/env python3
"""Write the reference data the benchmark's output gates compare against.

    python3 perfbench/record_reference.py [--check-seeds 2 3 4]

Records, from the iwafit in this checkout's ``src``:

- ``reference/shift_digests.json``: the digest of every shift-ladder rung
  (Howell rows of the numerator, and the denominator) at the default seed;
- ``reference/verify_paper.txt``: the ``verify-paper`` report;
- ``reference/cli_digests.json``: the digest of the generators that the
  session's ``shift-trivial`` command prints.

Record them at a commit whose outputs are trusted, never at a commit whose
outputs are under test.  ``--check-seeds`` recomputes the digests at other
seeds and exits 1 if any differs, since the values must not depend on the
seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def digests(seed: int) -> dict:
    import workloads

    ladder = workloads.ShiftLadder(seed)
    results = ladder.run_pass()
    for r in results:
        if r.error is not None:
            raise RuntimeError(f"{r.name}: {r.error}")
    return {r.name: workloads.shift_digest(r.value) for r in results}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check-seeds", type=int, nargs="*", default=[])
    args = ap.parse_args()
    run._limit_blas_threads()
    run._import_iwafit()
    import workloads
    from iwafit.paperchecks import render_report, run_paper_checks

    table = digests(run.DEFAULT_SEED)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    workloads.SHIFT_DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    workloads.VERIFY_PAPER_REPORT.write_text(render_report(run_paper_checks(4, 6), 4, 6))
    session = workloads.CliSession(run.DEFAULT_SEED)
    cli = {r.name: workloads.generators_digest(json.loads(r.value)["canonical_generators"])
           for r in session.run_pass() if r.name.endswith("-shift-trivial")}
    workloads.CLI_DIGESTS.write_text(json.dumps(cli, indent=1) + "\n")
    status = 0
    for seed in args.check_seeds:
        diff = [k for k, v in digests(seed).items() if table[k] != v]
        print(f"seed {seed}: {'digests match' if not diff else 'DIFFER: ' + ', '.join(diff)}")
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())
