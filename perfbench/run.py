"""avrc benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload gaussian_sweep --seed 1 --seconds 20 --trace 0

The benchmark imports the program from ``src/`` of the checkout it lives in,
generates the workload's requests from ``--seed``, and sends them one at a
time to ``avrc.cli.main`` in this process (a closed loop with one client) for
``--seconds`` seconds.  Every output is checked against ``reference.json``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

Monte Carlo requests are sent at ``--workers 1`` (timed, primary) for part
of the run, and then all sent again at ``--workers 2`` (for the scaling ratio
and the byte-identity check), so the peak memory read in between is that of
the 1-worker requests.  With ``--trace 1`` each request is also sent once
untraced, so the tracing overhead is measured on the same requests.

``--fresh`` builds the inputs themselves from ``--seed`` instead of from the
recorded pool.  Their outputs have no reference, so only the invariant checks
apply; use it to re-check a claim on inputs nobody tuned on.
"""

import os

# pin native thread pools before numpy loads, in this process and in probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("AVRC_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_PROBES = 4
# share of a Monte Carlo run given to the timed --workers 1 requests; their
# --workers 2 repeats take the rest
MC_W1_SHARE = 0.45
# mean yardstick time on the reference host, a quiet 2-vCPU Xeon VM, with
# and without the pass over a large array
YARDSTICK_REF_S = {True: 2.5e-3, False: 1.0e-3}
# set-up yardstick: a process that imports the program's dependencies, and
# its time on the reference host
SETUP_YARDSTICK = "import numpy, scipy.optimize"
SETUP_YARDSTICK_REF_S = 0.6
clock = time.perf_counter


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------

def import_program():
    """Import avrc from this checkout's src/, or exit 2 when it is absent."""
    if not (SRC / "avrc" / "cli.py").is_file():
        sys.stderr.write(f"error: no avrc sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import avrc.cli

    if not Path(avrc.cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"error: imported avrc from {avrc.cli.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return avrc.cli


def nproc():
    return len(os.sched_getaffinity(0))


def git_sha():
    """HEAD of the checkout read from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_meta():
    import scipy

    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": nproc()}


def run_cli(cli, argv):
    """One request; returns (exit code, seconds, stdout).  Looks `main` up on
    every call so the tracer's wrapper is used while installed."""
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, clock() - t0, out.getvalue()


def yardstick(big_pass):
    """Fixed work owned by the benchmark, shaped like the program: many numpy
    calls on small arrays, then, with big_pass, one pass over a 4 MB array."""
    t0 = clock()
    for _ in range(100):
        corr = _YARD_TABLE @ _YARD_VEC
        k = int(numpy.argmax(corr))
        numpy.stack([_YARD_VEC, _YARD_VEC])
        int((corr == corr[k]).sum())
    if big_pass:
        numpy.abs(_YARD_BIG, out=_YARD_BUF)     # in place: no allocation, so the
        numpy.sqrt(_YARD_BUF, out=_YARD_BUF)    # program's heap state cannot move it
        float(_YARD_BUF.sum())
    return clock() - t0


def host_seconds(big_pass):
    """Current host speed: the mean time of three yardstick runs.

    The shared hosts this benchmark runs on change speed by tens of percent,
    up to a factor of two, over seconds to minutes; they switch between a
    fast and a slow state that each last seconds, and part of the slowdown
    comes as stalls a few milliseconds long.  Timings are therefore also
    reported in reference-host seconds: each request's time is scaled by
    YARDSTICK_REF_S over the mean of the yardstick times sampled just before
    and just after it, so a request is corrected for the state it ran in.
    The mean, not the minimum, is what includes the stalls.  The program
    never runs the yardstick, so a change to the program moves corrected and
    raw timings alike.

    How much the slow state slows work depends on its kind: numpy calls on
    small arrays slow down about 1.5x, a pass over a large array hardly at
    all.  So the yardstick takes the large-array pass only for workloads
    whose requests also work on large arrays (see wl.SMALL_ARRAY_WORKLOADS).
    """
    return statistics.fmean(yardstick(big_pass) for _ in range(3))


_YARD_TABLE = numpy.linspace(-1.0, 1.0, 18 * 128).reshape(18, 128)
_YARD_VEC = numpy.cos(numpy.arange(128.0))
_YARD_BIG = numpy.sin(numpy.arange(float(1 << 19)))
_YARD_BUF = numpy.empty_like(_YARD_BIG)


def timed_process(cmd):
    t0 = clock()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} failed: {proc.stderr.decode().strip()}")
    return clock() - t0


def measure_setup(workload, seed, fresh):
    """Set-up time in reference-host seconds, and raw.

    Each of SETUP_PROBES pairs times a yardstick process, which imports the
    program's dependencies, and then a probe process (probe.py), which
    imports avrc and generates the run's inputs.  Process start and imports
    change speed with the host just as requests do, but the request
    yardstick does not track them, while the yardstick process does: the
    probe/yardstick ratio of a pair spreads about half as much as the probe
    time.  setup_s is SETUP_YARDSTICK_REF_S times the median ratio; the raw
    figure is the median probe time.
    """
    ratios, raw = [], []
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)] + ["--fresh"] * fresh
    for _ in range(SETUP_PROBES):
        yard = timed_process([sys.executable, "-c", SETUP_YARDSTICK])
        probe = timed_process(cmd)
        ratios.append(probe / yard)
        raw.append(probe)
    return SETUP_YARDSTICK_REF_S * statistics.median(ratios), statistics.median(raw)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def load_reference(workload, items, fresh):
    """Reference output per item key; all None for fresh inputs."""
    if fresh:
        return {item.key: None for item in items}
    ref = json.loads((HERE / "reference.json").read_text())
    entries = ref["workloads"][workload]
    for item in items:
        if entries[item.key]["input"] != wl.input_digest(item):
            raise RuntimeError(f"{workload} item {item.key}: input differs from the "
                               "one the reference was recorded for")
    return {item.key: entries[item.key]["output"] for item in items}


def check_item(workload, item, rc, stdout, expected, workdir):
    if rc != 0:
        return [f"exit code {rc}"]
    if workload == "gaussian_sweep":
        return wl.check_gaussian(item, (workdir / item.out).read_text(), expected)
    if workload == "discrete_classify":
        return wl.check_discrete(item, stdout, expected)
    return wl.check_mc((workdir / item.out).read_bytes(), expected)


def check_criterion_02(cli):
    rc, _, stdout = run_cli(cli, wl.CRITERION_02_ARGV)
    if rc != 0:
        return [f"criterion-02 bounds exit code {rc}"]
    value = json.loads(stdout)["random_capacity"]
    if abs(value - wl.CRITERION_02_VALUE) > 5e-9:
        return [f"criterion-02 random capacity {value} != {wl.CRITERION_02_VALUE}"]
    return []


def workers2(argv):
    """The same request at --workers 2 (capped at nproc), writing its own CSV."""
    out = list(argv)
    out[out.index("--workers") + 1] = str(min(2, nproc()))
    out[out.index("--out") + 1] += ".w2"
    return out


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Sends the items in order, one at a time, until the deadline passes."""

    def __init__(self, cli, workload, items, expected, workdir, traced):
        self.cli, self.workload, self.items = cli, workload, items
        self.expected, self.workdir, self.traced = expected, workdir, traced
        self.mc = workload in wl.MC_WORKLOADS
        self.big_pass = workload not in wl.SMALL_ARRAY_WORKLOADS
        self.sent = []             # items in the order sent
        self.latencies = []        # primary (untraced, --workers 1) seconds per item
        self.host = []             # yardstick seconds before each item, and after the last
        self.w1_digests = []       # sha256 of each primary MC CSV
        self.w2_seconds = []       # same requests at --workers 2
        self.traced_seconds = []   # same requests, traced
        self.problems = {}         # index into sent -> problems
        self.peak_rss_mb = 0.0     # after the primary requests, before any --workers 2
        self.tracer = Tracer()

    def _check(self, item, rc, stdout):
        return check_item(self.workload, item, rc, stdout, self.expected[item.key], self.workdir)

    def _fail(self, index, problems):
        if problems:
            self.problems.setdefault(index, []).extend(problems)

    def send(self, item):
        index = len(self.sent)
        self.sent.append(item)
        self.host.append(host_seconds(self.big_pass))
        rc, dt, stdout = run_cli(self.cli, item.argv)
        problems = self._check(item, rc, stdout)
        self.latencies.append(dt if not problems else float("inf"))
        if self.mc:
            self.w1_digests.append(wl.digest((self.workdir / item.out).read_bytes())
                                   if rc == 0 else None)
        if self.traced:
            self.tracer.install()
            try:
                rc, dt_traced, stdout = run_cli(self.cli, item.argv)
            finally:
                self.tracer.uninstall()
            problems += self._check(item, rc, stdout)
            self.traced_seconds.append(dt_traced)
            if self.mc and rc == 0:
                self.tracer.counts["sim.trials"] += wl.csv_trials((self.workdir / item.out).read_bytes())
        self._fail(index, problems)

    def send_w2(self, index):
        """Repeat a sent MC request at --workers 2; its CSV must match byte for byte."""
        argv2 = workers2(self.sent[index].argv)
        rc, dt2, _ = run_cli(self.cli, argv2)
        self.w2_seconds.append(dt2)
        w2 = self.workdir / argv2[argv2.index("--out") + 1]
        if rc != 0 or wl.digest(w2.read_bytes()) != self.w1_digests[index]:
            self._fail(index, [f"--workers 2 CSV differs from --workers 1 (exit {rc})"])

    def run(self, seconds):
        run_cli(self.cli, self.items[0].argv)      # warm-up: lazy imports, caches
        deadline = clock() + seconds * (MC_W1_SHARE if self.mc else 1.0)
        rounds = wl.round_length(self.workload)
        while not self.sent or clock() < deadline or len(self.sent) % rounds:
            self.send(self.items[len(self.sent) % len(self.items)])
        self.host.append(host_seconds(self.big_pass))
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.mc:
            for index in range(len(self.sent)):
                self.send_w2(index)

    def host_scale(self):
        """Factor from this run's seconds to reference-host seconds (see host_seconds)."""
        return YARDSTICK_REF_S[self.big_pass] / statistics.fmean(self.host)

    def corrected_latencies(self):
        """Each primary request's time in reference-host seconds, scaled by the
        yardstick samples on either side of it (see host_seconds)."""
        return [dt * 2.0 * YARDSTICK_REF_S[self.big_pass] / (before + after)
                for dt, before, after in zip(self.latencies, self.host, self.host[1:])]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_index(n):
    """Index of the highest order statistic with at least ten items beyond it."""
    return max(0, n - 11)


def latency_metrics(latencies):
    lat = sorted(latencies)
    ok = [v for v in lat if v != float("inf")]
    k = tail_index(len(lat))
    return {"items_per_s": (len(ok) / sum(ok) if ok else 0.0, "1/s"),
            "item_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "item_tail_ms": (1e3 * lat[k], "ms")}, round(100.0 * (k + 1) / len(lat), 1)


def end_to_end(loop, setup):
    """End-to-end metrics, timings host-corrected; the raw figures go to the
    info line."""
    setup_s, setup_raw_s = setup
    metrics, pct = latency_metrics(loop.corrected_latencies())
    raw, _ = latency_metrics(loop.latencies)
    metrics = {"setup_s": (setup_s, "s"), **metrics, "peak_rss_mb": (loop.peak_rss_mb, "MB")}
    info = {"items": len(loop.latencies), "item_tail_percentile": pct,
            "raw": {"setup_s": setup_raw_s, **{k: v for k, (v, _) in raw.items()}},
            "host_yardstick_ms": 1e3 * statistics.fmean(loop.host)}
    if loop.mc:
        info["scaling_2w"] = scaling_2w(loop)
    return metrics, info


# per-layer metrics of the traced run: (name, unit, better).  `<fn>.calls`,
# `<fn>.s` (inclusive) and `<fn>.self_s` come from the tracer's spans, other
# suffixes from its counters; all are per traced item, times host-corrected.
PER_LAYER = (
    ("cli.main.self_s", "s/item", "lower"),
    ("gaussian.figure_sweep.calls", "calls/item", "lower"),
    ("gaussian.det_code_bounds.calls", "calls/item", "lower"),
    ("gaussian.det_code_bounds.self_s", "s/item", "lower"),
    ("gaussian.objective.self_s", "s/item", "lower"),
    ("optimize.golden_section_max.calls", "calls/item", "lower"),
    ("optimize.golden_section_max.self_s", "s/item", "lower"),
    ("optimize.golden_section_max.evals", "count/item", "lower"),
    ("optimize.search_simplex.calls", "calls/item", "lower"),
    ("optimize.search_simplex.self_s", "s/item", "lower"),
    ("optimize.search_simplex.points", "count/item", "lower"),
    ("discrete.objective.self_s", "s/item", "lower"),
    ("discrete.cutset_bound.calls", "calls/item", "lower"),
    ("discrete.cutset_bound.s", "s/item", "lower"),
    ("discrete.df_bound.calls", "calls/item", "lower"),
    ("discrete.df_bound.s", "s/item", "lower"),
    ("discrete.minimax_receiver_information.calls", "calls/item", "lower"),
    ("discrete.minimax_receiver_information.s", "s/item", "lower"),
    ("discrete.symmetrizability.s", "s/item", "lower"),
    ("discrete.degradedness_classify.s", "s/item", "lower"),
    ("scipy.linprog.calls", "calls/item", "lower"),
    ("scipy.linprog.s", "s/item", "lower"),
    ("sim.run_monte_carlo.calls", "calls/item", "lower"),
    ("sim.run_monte_carlo.self_s", "s/item", "lower"),
    ("sim.trials", "trials/item", "higher"),
    ("codec.build_codebook.calls", "calls/item", "lower"),
    ("codec.build_codebook.s", "s/item", "lower"),
    ("codec.encode.calls", "calls/item", "lower"),
    ("codec.encode.self_s", "s/item", "lower"),
    ("codec.relay_chain.calls", "calls/item", "lower"),
    ("codec.relay_chain.self_s", "s/item", "lower"),
    ("codec.decode_backward.calls", "calls/item", "lower"),
    ("codec.decode_backward.self_s", "s/item", "lower"),
    ("adversary.make_state.calls", "calls/item", "lower"),
    ("adversary.make_state.self_s", "s/item", "lower"),
    ("adversary.impostor_useful_frac", "ratio", "higher"),
    ("sim.scaling_2w", "ratio", "higher"),
    ("trace.untraced_items_per_s", "1/s", "higher"),
    ("trace.traced_items_per_s", "1/s", "higher"),
)


def per_layer(loop):
    t, n, scale = loop.tracer, len(loop.traced_seconds), loop.host_scale()
    draws = t.counts["adversary.impostor_draws"]
    special = {
        "adversary.impostor_useful_frac": t.counts["adversary.impostor_useful"] / draws if draws else 0.0,
        "sim.scaling_2w": scaling_2w(loop),
        "trace.untraced_items_per_s": n / sum(loop.latencies[:n]) if n else 0.0,
        "trace.traced_items_per_s": n / sum(loop.traced_seconds) if n else 0.0,
    }
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            fn, _, what = name.rpartition(".")
            total = {"calls": t.calls, "s": t.seconds, "self_s": t.self_seconds}.get(
                what, lambda _: t.counts[name])(fn)
            value = total / n if n else 0.0
        if unit == "s/item":
            value *= scale
        elif unit == "1/s":
            value /= scale
        metrics[name] = (value, unit)
    return metrics, {"items": n, "host_yardstick_ms": 1e3 * statistics.fmean(loop.host)}


def scaling_2w(loop):
    """items_per_s at --workers 2 over items_per_s at --workers 1, same requests."""
    if not loop.w2_seconds:
        return 0.0
    return sum(loop.latencies[:len(loop.w2_seconds)]) / sum(loop.w2_seconds)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fresh", action="store_true",
                   help="build the inputs from --seed too; checks are the invariants only")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cwd = os.getcwd()
    try:
        setup = measure_setup(args.workload, args.seed, args.fresh)
        items = wl.run_items(args.workload, args.seed, args.fresh)
        wl.write_inputs(items, workdir)
        expected = load_reference(args.workload, items, args.fresh)
        os.chdir(workdir)
        loop = Loop(cli, args.workload, items, expected, workdir, traced=bool(args.trace))
        setup_problems = check_criterion_02(cli) if args.workload == "gaussian_sweep" else []
        loop.run(args.seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(loop.latencies) + (args.workload == "gaussian_sweep")
    failed = len(loop.problems) + bool(setup_problems)
    for line in setup_problems:
        print(f"check failed: {line}")
    for index, problems in sorted(loop.problems.items()):
        print(f"check failed: item {loop.sent[index].key}: " + "; ".join(problems))
    metrics, info = per_layer(loop) if args.trace else end_to_end(loop, setup)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    info["failed_frac"] = failed / attempted
    info["inputs"] = "fresh" if args.fresh else "recorded pool"
    print("info: " + json.dumps(info))
    print("meta: " + json.dumps(host_meta()))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
