"""octupolar benchmark: scan, points and tensors workloads.

    python3 bench/run.py --workload {scan,points,tensors} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one client, closed loop: the next op starts when the
previous one has finished and been checked.  ``OCTO_THREADS`` is removed from
the environment so ``region_scan`` runs serially.

``--trace 0`` first runs the workload's probe ops untimed (the edge-band
inputs that fail at the seed commit, counted in ``failed_share``), then
times whole blocks of ops for about ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed op list, each op once untraced and once
with every wrapped library function traced, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object; a fuller report (environment, every failure with its input)
goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 7
TRACE_BLOCKS = {"scan": 1, "points": 20, "tensors": 1}

# the fixed small call a fresh interpreter completes after importing octupolar
SETUP_CALLS = {
    "scan": (
        "import sys\nfrom octupolar import cli\n"
        "sys.exit(cli.main(['scan', '--chi', '-1.2', '--rho-steps', '2', '--k-max', '2',"
        " '--k-steps', '2', '--output', sys.argv[1]]))\n"),
    "points": (
        "import sys\nfrom octupolar import cli\n"
        "sys.exit(cli.main(['eigen', '--rho', '1.2', '--chi', '-1.1', '--K', '0.9']))\n"),
    "tensors": (
        "import numpy as np\nimport octupolar as o\n"
        "a = np.random.default_rng(7).normal(size=(3, 3, 3))\n"
        "a = 0.5 * (a + a.transpose(0, 2, 1))\n"
        "d3 = o.harmonic_decompose(a).d3\n"
        "o.full_topology(o.orient(d3).params)\n"
        "o.oracle_critical_points(d3, samples=1000)\n"
        "o.incremental_rank_one(a, max_terms=2, starts=8)\n"),
}


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(octo_threads_inherited) -> dict:
    import octupolar
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas = None
    head = None
    # only in a git checkout: elsewhere git would search the parent directories
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            head = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    pkg = os.path.dirname(octupolar.__file__)
    src_lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as f:
                src_lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "OCTO_THREADS": os.environ.get("OCTO_THREADS"),
        "OCTO_THREADS_inherited": octo_threads_inherited,
        "git_head": head,
        "src_octupolar_lines": src_lines,
    }


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all order statistics.

    On the 6-20 ops of a scan or tensors run, one order statistic is one
    op's latency, and a burst of host load on that op moves the percentile;
    the weighted mean moves much less.  On thousands of ops it agrees with
    the plain percentile.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def measure_setup(workload: str, workdir: str) -> float:
    """Median wall time of a fresh interpreter importing octupolar and doing one small call."""
    times = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CALLS[workload],
                               os.path.join(workdir, f"setup_{i}.out")],
                              cwd=ROOT, env=subprocess_env(), capture_output=True,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up call failed ({proc.returncode}): {proc.stderr.strip()[-300:]}")
    return statistics.median(times)


class Loop:
    """Runs ops one after another and keeps their latencies and failures."""

    def __init__(self, workload: str, workdir: str):
        import workloads
        self.w = workloads
        self.workload = workload
        self.workdir = workdir
        self.latencies: list[float] = []
        self.ok_latencies: list[float] = []
        self.failures: list[dict] = []

    def run(self, op: dict, tracer=None) -> bool:
        """Run one op, traced if a tracer is given, then check it; True on success."""
        if tracer is None:
            res = self.w.RUNNERS[self.workload](op, self.workdir)
        else:
            with tracer:
                res = self.w.RUNNERS[self.workload](op, self.workdir)
        if res.ok:
            problem = self.w.check(self.workload, res, self.workdir)
            if problem:
                res.ok, res.exit_code, res.step, res.error = False, 0, "check", problem
        self.latencies.append(res.latency_s)
        if res.ok:
            self.ok_latencies.append(res.latency_s)
        else:
            self.failures.append({"input": self.w.describe_input(self.workload, op),
                                  "step": res.step, "exit_code": res.exit_code,
                                  "error": res.error})
        return res.ok

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def warm_up(workload: str, workdir: str) -> None:
    """The set-up call once in this process, so lazy imports finish before timing."""
    code = compile(SETUP_CALLS[workload], "<warm-up>", "exec")
    argv = sys.argv
    sys.argv = ["warm-up", os.path.join(workdir, "warmup.out")]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(code, {"__name__": "__warmup__"})
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise RuntimeError(f"warm-up call exited {exc.code}") from None
    finally:
        sys.argv = argv


def run_untraced(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    import workloads
    setup_s = measure_setup(workload, workdir)
    warm_up(workload, workdir)
    probe = Loop(workload, workdir)
    for op in workloads.PROBES[workload](seed):
        probe.run(op)
    loop = Loop(workload, workdir)
    block_rates = []
    b = 0
    # whole blocks keep the category shares exact; stop at the block count
    # whose end lies nearest to --seconds
    while True:
        wall, n_ok = loop.wall, len(loop.ok_latencies)
        for op in workloads.BLOCKS[workload](seed, b):
            loop.run(op)
        block_rates.append((len(loop.ok_latencies) - n_ok, loop.wall - wall))
        b += 1
        if loop.wall + 0.5 * loop.wall / b >= seconds:
            break
    ok = loop.ok_latencies
    if not ok:
        raise RuntimeError(f"no op succeeded in {loop.attempted}; see the failures in the report")
    # the failure rate of the whole mix: timed and probe ops weighted by
    # their shares of a block, so it does not move with the timed op count
    share = workloads.PROBE_SHARE[workload]
    failed_share = ((1.0 - share) * len(loop.failures) / loop.attempted
                    + share * len(probe.failures) / probe.attempted)
    metrics = {
        "setup_s": (setup_s, "s"),
        # the median block rate: a burst of host load moves one block, not the figure
        "ops_per_s": (statistics.median(n / w for n, w in block_rates), "1/s"),
        "latency_p50_ms": (1e3 * hd_quantile(ok, 0.5), "ms"),
        "latency_p90_ms": (1e3 * hd_quantile(ok, 0.9), "ms"),
        "failed_share": (failed_share, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {"loop": loop, "probe": probe, "blocks": b, "metrics": metrics,
            "notes": {"successful_ops": len(ok), "timed_wall_s": loop.wall,
                      "probe_ops": probe.attempted, "probe_failed": len(probe.failures)}}


def run_traced(workload: str, seed: int, workdir: str, tag: str) -> dict:
    """A fixed op list (timed blocks and probe ops), each op run once untraced and once traced.

    The two runs of an op are adjacent and alternate in order, so drift and
    warm caches fall on both sides of the overhead estimate alike.
    """
    import layers
    import workloads
    warm_up(workload, workdir)
    timed = [op for b in range(TRACE_BLOCKS[workload]) for op in workloads.BLOCKS[workload](seed, b)]
    plain, traced = Loop(workload, workdir), Loop(workload, workdir)
    probe_plain, probe_traced = Loop(workload, workdir), Loop(workload, workdir)
    tracer = layers.Tracer()
    ok_ops = set()
    for i, op in enumerate(timed + workloads.PROBES[workload](seed)):
        p, t = (plain, traced) if i < len(timed) else (probe_plain, probe_traced)
        if i % 2:
            p.run(op)
        tracer.op = i
        if t.run(op, tracer):
            ok_ops.add(i)
        if i % 2 == 0:
            p.run(op)
    spans_path = os.path.join(OUT, f"SPANS_{tag}.jsonl.gz")
    tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics(ok_ops)
    untraced_wall, traced_wall = plain.wall + probe_plain.wall, traced.wall + probe_traced.wall
    metrics["trace.overhead_share"] = (traced_wall / untraced_wall - 1.0, "share")
    return {"loop": traced, "probe": probe_traced, "blocks": TRACE_BLOCKS[workload],
            "metrics": metrics,
            "notes": {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
                      "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT)}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("scan", "points", "tensors"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "octupolar", "__init__.py")):
        print(f"error: no octupolar sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    inherited = os.environ.pop("OCTO_THREADS", None)
    sys.path.insert(0, SRC)

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = os.path.join(OUT, tag)
    os.makedirs(workdir, exist_ok=True)
    env = environment(inherited)
    if args.trace:
        out = run_traced(args.workload, args.seed, workdir, tag)
    else:
        out = run_untraced(args.workload, args.seed, args.seconds, workdir)
    loop, probe = out["loop"], out["probe"]
    failures = loop.failures + probe.failures
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blocks": out["blocks"], "environment": env,
        "attempted": loop.attempted, "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
        "notes": out["notes"], "failures": failures,
    }
    report_path = os.path.join(OUT, f"BENCH_{tag}.json")
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1)

    by_step = Counter(f"{fail['input']['category']}/{fail['step']}" for fail in failures)
    print(f"# {tag}: {loop.attempted} ops, {len(loop.failures)} failed; "
          f"{len(failures)} failures with probe ops {dict(by_step)}; "
          f"report {os.path.relpath(report_path, ROOT)}")
    # `attempted` and `failed` count the measured ops; probe failures are in
    # failed_share and the report.  A wrong answer the program reports as a
    # success, in either, makes the run incorrect.
    correct = not any(fail["step"] == "check" for fail in failures)
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": len(loop.failures), "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
