#!/usr/bin/env python3
"""iwafit benchmark: three closed-loop workloads with checked verdicts.

Run from the repository root:

    python3 perfbench/run.py --workload euler-grid --seed 1 --seconds 40 --trace 0

One caller runs one item at a time in this process; an item is one
certified verdict (an Euler grid point, a shift rung, a session command).
After set-up, one untimed warm-up pass fills the library's caches; timed
passes then repeat until the next one would end after ``--seconds``,
counted from the start of the warm-up (at least two timed passes).  Every
verdict, the warm-up's too, is checked after its pass, outside the timed
region.

``--trace 0`` prints the end-to-end metrics: set-up time (cold process
start to first item ready, median of several fresh processes started
between the passes, spread over the run), the median timed pass time, the
share of items certified correct (1 - fail_frac, since a declared metric
may not read 0) and peak resident memory.  The median and
90th percentile of per-item latency are printed too, but not declared.

``--trace 1`` makes the warm-up pass, then alternates untraced and traced
passes, and prints the per-layer metrics of ``spans.py`` per pass; the
tracing overhead is the median traced minus the median untraced pass time.
The work counts of every traced pass must be identical, or the run is
reported as not correct.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-item records,
the environment and (traced) the spans go to ``perfbench/out/``.

Seeds: ``DEFAULT_SEED`` is the default and ``HELD_OUT_SEED`` is kept for
confirming a claim on inputs it was not tuned on.  Reference data for the
output gates lives in ``perfbench/reference/`` (see ``record_reference.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOADS = ("euler-grid", "shift-ladder", "cli-session")
MIN_PASSES = 2
SETUP_REPEATS = 11
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_blas_threads() -> int:
    """One BLAS thread per usable core; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def _import_iwafit():
    """Import iwafit from this checkout's ``src``; exit 2 if it is missing."""
    sys.path.insert(0, str(SRC))
    try:
        import iwafit
    except ImportError as exc:
        print(f"error: cannot import iwafit from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(iwafit.__file__).resolve().is_relative_to(SRC):
        print(f"error: iwafit was imported from {iwafit.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _setup(workload: str, seed: int):
    import workloads

    wl = workloads.make(workload, seed)
    workloads.warm_specs(wl.specs())
    return wl


def _setup_seconds(workload: str, seed: int) -> float:
    """Time from starting a fresh process to its "ready" line, after it has
    imported iwafit, built the inputs and warmed the lazy tables."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        if child.wait(timeout=120) != 0 or line != "ready\n":
            raise RuntimeError("set-up probe failed")
    return elapsed


def _environment(blas_threads: int) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": blas_threads, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "platform": platform.platform()}


def _passes(seconds: float, run_one, probe=None) -> tuple[list, list]:
    """Repeat ``run_one`` until the next pass would end after ``seconds``;
    the second item of what ``run_one`` returns is the pass's duration.

    ``probe`` (a set-up timing) is called SETUP_REPEATS times, between
    passes and in step with the time used, so that its median does not
    rest on how fast the host happened to be at one moment."""
    out, probes = [], []
    start = time.perf_counter()
    while True:
        out.append(run_one())
        used = (time.perf_counter() - start) / seconds
        while probe and len(probes) < min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * used)):
            probes.append(probe())
        last = out[-1][1]
        if len(out) >= MIN_PASSES and time.perf_counter() - start + last > seconds:
            break
    while probe and len(probes) < SETUP_REPEATS:
        probes.append(probe())
    return out, probes


def _checked(wl, results):
    """Check a pass, then drop its values so that memory held between passes
    does not grow with the number of passes."""
    wl.check_pass(results)
    for r in results:
        r.value = None
    return results


def _timed_pass(wl):
    t0 = time.perf_counter()
    results = wl.run_pass()
    elapsed = time.perf_counter() - t0
    return _checked(wl, results), elapsed


def _records(passes) -> list[dict]:
    """Pass 0 is the untimed warm-up."""
    return [{"pass": i, "name": r.name, "seconds": r.seconds, "verdict": r.verdict,
             "certified_precision": r.precision, "ok": r.ok, "error": r.error}
            for i, (results, _) in enumerate(passes) for r in results]


def _nearest_rank(ordered: list[float], q: float) -> float:
    # No interpolation: the value is always some item's latency, which keeps
    # it within one item class when a few items dominate the pass.
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _end_to_end(passes, setup_times) -> tuple[dict, dict]:
    # Each item's latency is its median over the passes, which damps the
    # noise of millisecond items before the quantiles are taken over items.
    per_item = zip(*([r.seconds for r in results] for results, _ in passes))
    items = sorted(statistics.median(samples) for samples in per_item)
    attempted = sum(len(results) for results, _ in passes)
    ok = sum(r.ok for results, _ in passes for r in results)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(elapsed for _, elapsed in passes), "s"),
        "ok_frac": (ok / attempted, "share"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {q: _nearest_rank(items, q) for q in (0.5, 0.9)}


def _per_layer(untraced, traced) -> tuple[dict, bool, list[str]]:
    import spans

    totals = [t for _, _, t in traced]
    repeat = all(
        {k: v for k, v in t.items() if spans.is_count(k)}
        == {k: v for k, v in totals[0].items() if spans.is_count(k)}
        for t in totals[1:])
    metrics = {}
    for key in totals[0]:
        if spans.is_count(key):
            metrics[key] = (totals[0][key], "ratio" if key in spans.RATIOS else "count")
        else:
            metrics[key] = (statistics.median(t[key] for t in totals), "s")
    traced_s = statistics.median(elapsed for _, elapsed, _ in traced)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced, "s")
    # Per traced pass, layer self times plus the time outside every layer
    # must add up to the pass time.
    residual = max(abs(elapsed - sum(v for k, v in t.items() if k.endswith("_s")))
                   for _, elapsed, t in traced)
    accounting = [f"traced pass_s {traced_s:.4f} (median of {len(traced)}); per pass,"
                  f" layer self times + time outside layers = pass time within"
                  f" {residual:.2e} s; untraced pass_s {untraced:.4f}, overhead"
                  f" {traced_s - untraced:+.4f} s"]
    return metrics, repeat, accounting


def _predictions(workload: str, metrics: dict) -> list[str]:
    """The layers each workload is predicted to load, against the trace."""
    v = {k: val for k, (val, _) in metrics.items()}
    layer_self = {k[:-len(".self_s")]: val for k, val in v.items()
                  if k.endswith(".self_s") and not k.startswith("trace.")}
    top = max(layer_self, key=layer_self.get)
    fitting_mul = (layer_self["fitting.fitting_ideal"] + layer_self["groupring.mul"]) \
        / v["trace.pass_s"]
    parser = v["parser.parse_element.calls"] + v["parser.element_to_text.calls"]
    checks = [("parser.* runs only on cli-session",
               (parser > 0) == (workload == "cli-session"), f"calls {parser}")]
    if workload == "euler-grid":
        checks += [
            ("linalg.howell_span_rows has the largest self time",
             top == "linalg.howell_span_rows", f"largest {top}"),
            ("fitting.fitting_ideal and groupring.mul do no work",
             v["fitting.fitting_ideal.calls"] + v["groupring.mul.calls"] == 0,
             f"calls {v['fitting.fitting_ideal.calls']} and {v['groupring.mul.calls']},"
             f" share of pass_s {fitting_mul:.4f}")]
    if workload == "shift-ladder":
        checks.append(("fitting.fitting_ideal + groupring.mul is >= 1/3 of pass_s",
                       fitting_mul >= 1 / 3, f"share {fitting_mul:.3f}"))
    return [f"prediction {'held' if ok else 'NOT HELD'}: {text} ({detail})"
            for text, ok, detail in checks]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is "
                         "held out for confirming claims)")
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # child process timed for setup_s
    args = ap.parse_args(argv)

    blas_threads = _limit_blas_threads()
    _import_iwafit()
    if args.setup_probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    wl = _setup(args.workload, args.seed)
    env = _environment(blas_threads)
    lines = [f"env {json.dumps(env)}"]
    start = time.perf_counter()
    # Untimed: the first pass fills caches that set-up does not touch.
    warmup = _timed_pass(wl)
    budget = args.seconds - (time.perf_counter() - start)

    if not args.trace:
        passes, setup_times = _passes(
            budget, lambda: _timed_pass(wl),
            lambda: _setup_seconds(args.workload, args.seed))
        metrics, quantiles = _end_to_end(passes, setup_times)
        counts_repeat = True
        lines.append(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
        lines.append(f"item_s.p50 = {quantiles[0.5]:.6g} s, item_s.p90 ="
                     f" {quantiles[0.9]:.6g} s, item_s.n = {len(passes) * len(passes[0][0])}"
                     f" ({len(passes[0][0])} items, median of {len(passes)} timed passes"
                     " each; printed only, their spread from run to run is too wide for"
                     " a bound)")
        tracer = None
    else:
        import spans

        tracer = spans.Tracer()

        # Untraced and traced passes alternate, so that both medians are
        # taken over the same stretch of time and the host's drift in speed
        # does not show as tracing overhead.
        def pair():
            untraced = _timed_pass(wl)
            tracer.install()
            try:
                results, elapsed, totals = tracer.run_pass(wl.run_pass)
            finally:
                tracer.uninstall()
            return untraced, untraced[1] + elapsed, (_checked(wl, results), elapsed, totals)

        pairs, _ = _passes(budget, pair)
        traced = [t for _, _, t in pairs]
        metrics, counts_repeat, accounting = _per_layer(
            statistics.median(u[1] for u, _, _ in pairs), traced)
        passes = [step for u, _, (results, elapsed, _) in pairs
                  for step in (u, (results, elapsed))]
        lines += accounting
        lines.append(f"counts repeat across {len(traced)} traced passes: {counts_repeat}")
        lines += _predictions(args.workload, metrics)

    records = _records([warmup] + passes)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    lines.append(f"fail_frac = {failed}/{attempted}")
    lines.append(f"warm-up pass {warmup[1]:.4f} s (untimed); pass_s samples:"
                 f" {', '.join(f'{e:.4f}' for _, e in passes)}")
    lines += [f"item {r['name']} pass {r['pass']}: {r['seconds']:.4f} s, "
              f"{r['verdict']}, precision {r['certified_precision']}"
              + ("" if r["ok"] else f" FAILED {r['error'] or ''}")
              for r in records if r["pass"] == 1 or not r["ok"]]
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "env": env, "warmup_s": warmup[1],
                   "pass_s": [elapsed for _, elapsed in passes], "items": records,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}}, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(f"{stem}.spans.tsv")

    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
