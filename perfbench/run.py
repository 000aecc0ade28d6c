"""Seeded time-to-verdict benchmark for steinpoly.

    python3 perfbench/run.py --workload flagnf --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory.  One process, one thread, one client in a closed loop:
the next request starts when the previous verdict is in.  The workload's
fixed case set (``cases.py``) is run in whole passes until ``--seconds`` have
gone by.  Before each request every function cache of the package is
emptied, so each request costs what one ``steinpoly`` invocation costs and
no pass profits from an earlier one.  Every verdict is checked against the
one known by construction.  Times are scaled to a reference machine speed
(``calib.py``); the raw ones are printed in the ``info`` line.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from spans (``spans.py``), with untraced and traced passes alternating.
The last line of standard output is the JSON result.
"""
import argparse
import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calib import REFERENCE_S, reference_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 7
SETUP_CODE = (
    "import time; t = time.perf_counter(); import steinpoly.cli; dt = time.perf_counter() - t; "
    "from calib import reference_time; print(dt, reference_time())"
)

# Spans whose time counts as the layer each workload was chosen for; the
# share is taken over the outermost of them, so nesting is not counted twice.
FOCUS = {
    "flagnf": ("st2.st2_normal_form",),
    "stable": ("barcplx.shuffle_span_reduce", "st2.embed_s"),
    "symbols": (
        "mpl.truncated_symbol",
        "mpl.recursion_symbol_bar",
        "mpl.goncharov_symbol_bar",
        "mpl.bar_gl_act",
    ),
    "lattice": (
        "cones.st_equality_oracle",
        "cones.truncated_fourier_sum",
        "cones.bernoulli_reference",
        "steinberg.ash_rudolph_reduce",
    ),
}


def measure_setup() -> tuple:
    """Median time to import the package in a fresh interpreter: (scaled, raw)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i:  # the first run may still be writing bytecode caches
            dt, ref = map(float, out.stdout.split())
            times.append((dt * REFERENCE_S / ref, dt))
    return statistics.median(t[0] for t in times), statistics.median(t[1] for t in times)


class Runner:
    def __init__(self, cases, root, caches):
        self.cases = cases
        self.root = root
        self.caches = caches
        self.times = [[] for _ in cases]  # untraced request times per case, scaled
        self.raw = [[] for _ in cases]
        self.attempted = 0
        self.failures = []
        self.outputs = {}

    def one_pass(self, order, tracer=None) -> tuple:
        """Run every case once, in the given order.

        Returns the summed request time, raw and at the reference speed.
        """
        from client import check, run_request

        total = scaled = 0.0
        for i in order:
            case = self.cases[i]
            for fn in self.caches.values():
                fn.cache_clear()
            gc.collect()
            ref = reference_time()
            t0 = perf_counter()
            code, text = run_request(case, self.root)
            dt = perf_counter() - t0
            at_ref = dt * 2 * REFERENCE_S / (ref + reference_time())
            total += dt
            scaled += at_ref
            if tracer is not None:
                tracer.end_request()
                for name, fn in self.caches.items():
                    info = fn.cache_info()
                    st = tracer.cache_stats.setdefault(name, [0, 0, 0])
                    st[0] += info.hits
                    st[1] += info.misses
                    st[2] = max(st[2], info.currsize)
            else:
                self.times[i].append(at_ref)
                self.raw[i].append(dt)
            try:
                reason = check(case, code, text, self.root)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
            self.attempted += 1
            if reason is not None:
                self.failures.append(f"{case['kind']} #{i}: {reason}")
            self.outputs[i] = f"{i}\0{code}\0{text}\0"
        return total, scaled

    def output_hash(self) -> str:
        """Hash of every output of the last pass, in case order (information only)."""
        return hashlib.sha256("".join(self.outputs[i] for i in sorted(self.outputs)).encode()).hexdigest()


def tail(values):
    """Value at the highest percentile with at least ten values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def _timings(per_case):
    tail_v, tail_pct = tail(per_case)
    return len(per_case) / sum(per_case), 1000 * statistics.median(per_case), 1000 * tail_v, tail_pct


def end_to_end(runner, setup):
    """Times are per-case medians over passes, at the reference speed (calib.py)."""
    rate, p50, tail_ms, tail_pct = _timings([statistics.median(t) for t in runner.times])
    metrics = {
        "cases_per_s": (rate, "1/s"),
        "case_p50_ms": (p50, "ms"),
        "case_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup[0], "s"),
    }
    raw_rate, raw_p50, raw_tail, _ = _timings([statistics.median(t) for t in runner.raw])
    info = {
        "tail_percentile": round(tail_pct, 2),
        "samples": sum(len(t) for t in runner.times),
        "raw": {
            "cases_per_s": raw_rate,
            "case_p50_ms": raw_p50,
            "case_tail_ms": raw_tail,
            "setup_s": setup[1],
        },
    }
    return metrics, info


def per_layer(tracer, traced_pass_times, overhead_s):
    from client import CACHE_NAMES
    from spans import TRACED

    k = len(traced_pass_times)
    traced_s = sum(raw for raw, _ in traced_pass_times)
    metrics = {}
    for mod, names in TRACED.items():
        for name in names:
            full = f"{mod}.{name}"
            calls, self_s, total_s = tracer.stats.get(full, (0, 0.0, 0.0))
            metrics[f"{full}.calls"] = (calls / k, "count")
            metrics[f"{full}.self_s"] = (self_s / k, "s")
            if mod != "qlinalg":
                metrics[f"{full}.total_s"] = (total_s / k, "s")
    c = tracer.counters
    for name in (
        "steinberg.flag_expand.terms_in",
        "steinberg.flag_expand.terms_out",
        "barcplx.shuffle_span_reduce.terms_in",
        "barcplx.shuffle_span_reduce.terms_out",
        "st2.embed_s.words_out",
    ):
        metrics[name] = (c.get(name, 0) / k, "count")
    attempted = c.get("cones.rho_st.attempted", 0)
    accepted = c.get("cones.rho_st.accepted", 0)
    metrics["cones.rho_st.accept_ratio"] = (accepted / attempted if attempted else 0.0, "ratio")
    for name in CACHE_NAMES:
        hits, misses, size = tracer.cache_stats.get(name, (0, 0, 0))
        lookups = hits + misses
        metrics[f"cache.{name}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        metrics[f"cache.{name}.size"] = (size, "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["focus.share"] = (tracer.focus_s / traced_s, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "steinpoly" / "__init__.py").is_file():
        print(f"error: no steinpoly package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cases as casegen

    if args.workload not in casegen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup = measure_setup()
    import steinpoly.cli  # noqa: F401  (loads every layer module)
    import mpmath  # noqa: F401  (imported lazily by the Bernoulli reference)
    from client import CACHE_NAMES, find_caches
    from spans import Tracer

    modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("steinpoly.")]
    caches = find_caches(modules)
    root = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        cases = casegen.generate(args.workload, args.seed, root)
        runner = Runner(cases, root, caches)
        # each pass visits the cases in a fresh seeded order, so a case's
        # samples and a group's cases fall at different times of the run
        order_rng = random.Random(f"order:{args.workload}:{args.seed}")

        def order():
            return order_rng.sample(range(len(cases)), len(cases))

        t_start = perf_counter()
        if not args.trace:
            passes = 0
            while not passes or perf_counter() - t_start < args.seconds:
                runner.one_pass(order())
                passes += 1
            metrics, info = end_to_end(runner, setup)
            info["passes"] = passes
        else:
            tracer = Tracer(FOCUS[args.workload])
            plain, traced = [], []
            while not traced or perf_counter() - t_start < args.seconds:
                plain.append(runner.one_pass(order()))
                tracer.install()
                try:
                    traced.append(runner.one_pass(order(), tracer))
                finally:
                    tracer.uninstall()
            # at the reference speed, so that drift of the machine between
            # the two kinds of pass does not read as tracing cost
            overhead = statistics.mean(t[1] for t in traced) - statistics.mean(t[1] for t in plain)
            metrics = per_layer(tracer, traced, overhead)
            info = {"traced_passes": len(traced), "absent_spans": tracer.absent}
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    info.update(
        workload=args.workload,
        seed=args.seed,
        cases=len(cases),
        fail_ratio=len(runner.failures) / runner.attempted,
        failures=runner.failures[:10],
        output_sha256=runner.output_hash(),
        absent_caches=[n for n in CACHE_NAMES if n not in caches],
        other_caches=sorted(set(caches) - set(CACHE_NAMES)),
    )
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
