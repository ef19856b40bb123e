"""The four benchmark workloads: seeded inputs and output checks.

By default every workload draws its items from a fixed pool, built from
``POOL_SEED``, whose outputs were recorded once (``reference.json``, written
by ``record.py``).  The run seed picks the order in which pool items are
sent, so two seeds send different items while every output stays checkable
against the recorded reference.  With ``fresh=True`` the pool itself is built
from the run seed, so the inputs are new; those outputs have no reference and
are checked by the invariants alone (order of the bounds, the zero region,
df <= cutset, the pipe's cutset, 1-worker against 2-worker bytes).  Pools are
built with the standard library's ``random`` so that the inputs do not depend
on the numpy version under test.

An item is one CLI request: an argv list for ``avrc.cli.main`` plus the
files it reads, written into the run's work directory during set-up.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

POOL_SEED = 20180531

# pool sizes; a 20 s run sends fewer items than any pool holds
GAUSS_POOL = 160
CUTSET_POOL = 48
MINIMAX_POOL = 32
IMPOSTOR_POOL = 512
SWEEP_POOL = 128

# tolerances of the reference comparison (bits)
GAUSS_TOL = 5e-5
DISCRETE_TOL = 1e-3

CRITERION_02_ARGV = ["bounds", "--P", "2", "--P1", "1e4", "--Lambda", "0.4", "--sigma2", "0.5"]
CRITERION_02_VALUE = 1.69701695

# discrete items are sent in this repeating order of kinds, and a run ends
# on a whole cycle (see round_length), so every run has the same mix.  The
# cutset and pipe channels take about twice as long as a minimax channel, so
# a 20 s run holds few of them; the minimax channels make up two thirds of
# the count, and keep the median and the tail order statistic among them in
# every run.
DISCRETE_CYCLE = ("minimax", "minimax", "cutset", "minimax", "minimax", "pipe")

WORKLOADS = ("gaussian_sweep", "discrete_classify", "mc_impostor", "mc_sweep_permuted")
MC_WORKLOADS = ("mc_impostor", "mc_sweep_permuted")
# workloads whose requests are many numpy calls on small arrays (2x2 tables,
# a few hundred simplex points), so the host's slow state slows them as much
# as it slows such calls, and the host yardstick leaves out its large-array
# pass (see run.host_seconds)
SMALL_ARRAY_WORKLOADS = ("discrete_classify", "mc_impostor")


@dataclass
class Item:
    """One CLI request of a workload."""

    key: int                 # index into the workload's pool and reference
    argv: list
    files: dict = field(default_factory=dict)   # relative name -> text
    out: str | None = None   # relative name of the CSV the request writes
    meta: dict = field(default_factory=dict)


def digest(data: bytes):
    return hashlib.sha256(data).hexdigest()


def _g(x):
    """Round to 6 significant digits so CLI arguments read cleanly."""
    return float(f"{x:.6g}")


def _dirichlet(rng, alphas):
    draws = [rng.gammavariate(a, 1.0) for a in alphas]
    total = sum(draws)
    return [d / total for d in draws]


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def _gaussian_pool(pool_seed):
    """P-sweeps with P1 = P crossing the zero, edge and coincident regimes.

    P runs over Lambda * (u, u+h, ..., u+4h) with u < 0.25 (exact zeros since
    4P < Lambda), then points where only the upper region is feasible, where
    the lower region opens, and where the bounds coincide.  Every eighth pool
    item uses the criterion-01 pair (Lambda, sigma2) = (1, 0.5).
    """
    rng = random.Random(f"{pool_seed}:gaussian")
    pool = []
    for k in range(GAUSS_POOL):
        if k % 8 == 0:
            lam, s2 = 1.0, 0.5
        else:
            lam = _g(math.exp(rng.uniform(math.log(0.2), math.log(5.0))))
            s2 = _g(lam * math.exp(rng.uniform(math.log(0.05), math.log(2.0))))
        pmin = _g(lam * rng.uniform(0.08, 0.2))
        step = _g(lam * rng.uniform(0.8, 1.2))
        pmax = _g(pmin + 4.5 * step)    # half a step of slack: exactly 5 points
        pool.append({"Lambda": lam, "sigma2": s2, "pmin": pmin, "pmax": pmax, "step": step})
    return pool


def _cutset_channel(rng):
    """Random 2x2x2x2 kernel: each (x, s) slice a flat Dirichlet over (y, y1)."""
    W = [[[d[:2], d[2:]] for d in (_dirichlet(rng, [1.0] * 4) for _ in range(2))]
         for _ in range(2)]
    return {"X": 2, "S": 2, "Y": 2, "Y1": 2, "C1": _g(rng.uniform(0.0, 1.5)), "W": W}


def _minimax_channel(rng):
    """Reversely strongly degraded: Y1 depends on Y alone, through B[y, y1].

    The input moves Y far more than the state does, so the relay marginal is
    not symmetrizable and classification takes the minimax clause.
    """
    A = [[_dirichlet(rng, [8.0, 1.0, 0.3] if x == 0 else [0.3, 1.0, 8.0]) for _ in range(2)]
         for x in range(2)]
    B = [_dirichlet(rng, a) for a in ([4.0, 1.0], [1.0, 1.0], [1.0, 4.0])]
    W = [[[[A[x][s][y] * B[y][k] for k in range(2)] for y in range(3)] for s in range(2)]
         for x in range(2)]
    return {"X": 2, "S": 2, "Y": 3, "Y1": 2, "C1": _g(rng.uniform(0.5, 1.5)), "W": W}


def _pipe_channel():
    """Y = X + S, Y1 = X(1 - S), unit-rate pipe; its cutset bound is 1."""
    W = [[[[0.0, 0.0] for _ in range(3)] for _ in range(2)] for _ in range(2)]
    for x in range(2):
        for s in range(2):
            W[x][s][x + s][x * (1 - s)] = 1.0
    return {"X": 2, "S": 2, "Y": 3, "Y1": 2, "C1": 1.0, "W": W}


def _discrete_pool(pool_seed):
    rng = random.Random(f"{pool_seed}:discrete")
    pool = [{"kind": "cutset", "channel": _cutset_channel(rng)} for _ in range(CUTSET_POOL)]
    pool += [{"kind": "minimax", "channel": _minimax_channel(rng)} for _ in range(MINIMAX_POOL)]
    pool.append({"kind": "pipe", "channel": _pipe_channel()})
    return pool


def _impostor_pool(pool_seed):
    """The criterion-10 code under the impostor jammer, one master seed each."""
    rng = random.Random(f"{pool_seed}:impostor")
    seeds = rng.sample(range(1 << 30), IMPOSTOR_POOL)
    return [{
        "codebook": {"n": 128, "blocks": 3, "rate_relayed": 1.5 / 128, "rate_direct": 1.5 / 128,
                     "P": 0.2, "P1": 0.2, "Lambda": 1.0, "sigma2": 1e-4,
                     "alpha": 0.5, "rho": 0.0, "delta": None, "seed": 5},
        "strategy": {"kind": "impostor", "Lambda": 1.0, "seed": 9},
        "trials": 200,
        "master_seed": s,
        "relay_mode": "min_distance",
        "permute": False,
    } for s in seeds]


def _sweep_pool(pool_seed):
    """Larger permuted code swept over Lambda x {zero, iid_gaussian, impostor}."""
    rng = random.Random(f"{pool_seed}:sweep")
    pool = []
    for _ in range(SWEEP_POOL):
        pool.append({
            "codebook": {"n": 512, "blocks": 4, "rate_relayed": 4.2 / 512, "rate_direct": 4.2 / 512,
                         "P": 0.02, "P1": 0.02, "Lambda": 1.0, "sigma2": 0.01,
                         "alpha": 0.5, "rho": 0.0, "delta": None,
                         "seed": rng.randrange(1 << 30)},
            "strategy": {"kind": "zero", "Lambda": 1.0},
            "trials": 24,
            "master_seed": rng.randrange(1 << 30),
            "relay_mode": "min_distance",
            "permute": True,
            "sweep": {"lambdas": [0.5, 2.0, 8.0],
                      "strategies": [
                          {"kind": "zero", "Lambda": 1.0},
                          {"kind": "iid_gaussian", "Lambda": 1.0,
                           "variance": _g(rng.uniform(0.5, 2.0)), "seed": rng.randrange(1 << 30)},
                          {"kind": "impostor", "Lambda": 1.0, "seed": rng.randrange(1 << 30)}]},
        })
    return pool


def pool(workload, pool_seed=POOL_SEED):
    return {"gaussian_sweep": _gaussian_pool,
            "discrete_classify": _discrete_pool,
            "mc_impostor": _impostor_pool,
            "mc_sweep_permuted": _sweep_pool}[workload](pool_seed)


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------

def make_item(workload, key, spec):
    if workload == "gaussian_sweep":
        argv = ["figure", "--Lambda", repr(spec["Lambda"]), "--sigma2", repr(spec["sigma2"]),
                "--pmin", repr(spec["pmin"]), "--pmax", repr(spec["pmax"]),
                "--step", repr(spec["step"]), "--out", f"fig{key}.csv"]
        return Item(key, argv, out=f"fig{key}.csv", meta=spec)
    if workload == "discrete_classify":
        name = f"ch{key}.json"
        argv = ["primitive", "--channel", name, "--bound", "classify"]
        return Item(key, argv, files={name: json.dumps(spec["channel"])},
                    meta={"kind": spec["kind"]})
    name = f"sim{key}.json"
    argv = ["simulate", "--config", name, "--out", f"sim{key}.csv", "--workers", "1"]
    return Item(key, argv, files={name: json.dumps(spec)}, out=f"sim{key}.csv")


def input_digest(item):
    """What the reference pins for each item, so a drifted generator is caught."""
    return digest(json.dumps([item.argv, item.files], sort_keys=True).encode())


def run_items(workload, seed, fresh=False):
    """The seed's item order: a permutation of the pool, interleaved by kind
    for the discrete workload.  Gaussian runs start with a criterion-01 item.
    With ``fresh`` the pool is built from the seed instead of POOL_SEED."""
    specs = pool(workload, f"fresh-{seed}" if fresh else POOL_SEED)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "discrete_classify":
        by_kind = {}
        for k, spec in enumerate(specs):
            by_kind.setdefault(spec["kind"], []).append(k)
        for keys in by_kind.values():
            rng.shuffle(keys)
        cursor = {kind: 0 for kind in by_kind}
        order = []
        for _ in range(len(specs) // 2):
            for kind in DISCRETE_CYCLE:
                keys = by_kind[kind]
                order.append(keys[cursor[kind] % len(keys)])
                cursor[kind] += 1
    else:
        order = rng.sample(range(len(specs)), len(specs))
        if workload == "gaussian_sweep":
            first = next(k for k in order if specs[k]["Lambda"] == 1.0 and specs[k]["sigma2"] == 0.5)
            order.remove(first)
            order.insert(0, first)
    return [make_item(workload, k, specs[k]) for k in order]


def round_length(workload):
    """A run sends a whole number of rounds of this many items."""
    return len(DISCRETE_CYCLE) if workload == "discrete_classify" else 1


def write_inputs(items, workdir):
    """Write the files the items read into the run's work directory."""
    workdir.mkdir(parents=True, exist_ok=True)
    for item in items:
        for name, text in item.files.items():
            (workdir / name).write_text(text)


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right.
# A reference of None (fresh inputs) leaves only the invariant checks.
# ---------------------------------------------------------------------------

def parse_gaussian_csv(text):
    lines = text.strip().splitlines()
    if not lines or lines[0] != "P,random_capacity,det_lower,det_upper,direct_transmission":
        raise ValueError("bad figure CSV header")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_gaussian(item, csv_text, ref_rows):
    problems = []
    try:
        rows = parse_gaussian_csv(csv_text)
    except ValueError as exc:
        return [f"unparsable CSV: {exc}"]
    if ref_rows is not None and len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    lam = item.meta["Lambda"]
    for row, ref in zip(rows, ref_rows or [None] * len(rows)):
        P, rc, lo, up, _ = row
        if not lo <= up <= rc:
            problems.append(f"P={P}: order lower <= upper <= random fails ({lo}, {up}, {rc})")
        if (up == 0.0) != (4.0 * P < lam):
            problems.append(f"P={P}: det_upper={up} but 4P<Lambda is {4.0 * P < lam}")
        if ref is None:
            continue
        if abs(P - ref[0]) > 1e-9 * max(1.0, abs(ref[0])):
            problems.append(f"P={P} differs from reference P={ref[0]}")
        for name, v, r in zip(("random_capacity", "det_lower", "det_upper", "direct"),
                              row[1:], ref[1:]):
            if abs(v - r) > GAUSS_TOL:
                problems.append(f"P={P}: {name}={v} vs reference {r} (tol {GAUSS_TOL})")
    return problems


DISCRETE_EXACT = ("verdict", "clause", "relay_marginal_symmetrizable",
                  "joint_output_symmetrizable", "degradedness", "aux_size")
DISCRETE_VALUES = ("df_lower", "cs_upper", "exact_value")


def check_discrete(item, stdout, ref):
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    problems = []
    if ref is not None:
        for k in DISCRETE_EXACT:
            if out.get(k) != ref.get(k):
                problems.append(f"{k}={out.get(k)!r} vs reference {ref.get(k)!r}")
        for k in DISCRETE_VALUES:
            v, r = out.get(k), ref.get(k)
            if (v is None) != (r is None) or (v is not None and abs(v - r) > DISCRETE_TOL):
                problems.append(f"{k}={v} vs reference {r} (tol {DISCRETE_TOL})")
    df, cs = out.get("df_lower"), out.get("cs_upper")
    if df is not None and cs is not None and df > cs + 1e-3:
        problems.append(f"df {df} > cutset {cs} + 1e-3")
    if item.meta["kind"] == "pipe" and (cs is None or abs(cs - 1.0) > 1e-3):
        problems.append(f"pipe cutset {cs} is not 1 +- 1e-3")
    return problems


def check_mc(csv_bytes, ref_digest):
    got = digest(csv_bytes)
    return [] if ref_digest in (None, got) else [f"CSV sha256 {got[:12]} != reference {ref_digest[:12]}"]


def csv_trials(csv_bytes):
    """Total trials over the rows of an attack CSV."""
    lines = csv_bytes.decode().strip().splitlines()[1:]
    return sum(int(line.split(",")[2]) for line in lines)
