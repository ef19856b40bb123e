"""Finite-alphabet jammed relay channels: information quantities and verdicts.

A channel here is a 4-index kernel W[x, s, y, y1]: for each input x and state
s, a joint pmf over the destination output y and the relay observation y1.
The relay talks to the destination over a noiseless link of `relay_rate` bits
per use.  Every information quantity here is a sum of entropies of finite
pmfs, each computed by one primitive (`_negent`, sum m log2 m): I(A;O) of a
joint pmf (`_mi`), and, for a pool of inputs against a pool of averaged
kernels, I(X;O) = H(O) - H(O|X) and I(U;O) = H(U) + H(O) - H(U,O) from output
pmfs that one matrix product builds, without forming a joint per (input,
state) pair.  The module decides symmetrizability by linear programming,
classifies degradedness by factor checks, evaluates the cutset and
decode-forward bounds, and applies the capacity classification rules.  Every
min-max and max-min over state pmfs q and input pmfs p is solved one way: a
fixed pool over the inner simplex steers a simplex search over the outer one,
and the inner optimum is refined once, at the winner.
"""

import reprlib
from dataclasses import dataclass

import numpy as np

from ._fields import int_field, number_field
from .optimize import MAX_GRID_POINTS, refine_batch_size, search_simplex, simplex_grid, start_pool

PMF_TOL = 1e-12
VERDICT_TOL = 1e-9    # the largest residual a verdict still counts as zero
MULTISTART_TOP = 6    # centres per refinement round; the steering searches over p keep 2
SEARCH_SEED = 0       # the seed of each bound's search generator
Q_RESOLUTION = 64     # grid resolution over state pmfs q (up to 3 atoms)
P_RESOLUTION = 128    # grid resolution over input pmfs p (up to 3 atoms)
REFINE_ROUNDS = 8     # refinement rounds of every simplex search
AUX_STARTS = 12       # random starts of df's aux search over p(u,x)
MAX_KERNEL_ENTRIES = 1_000_000   # the largest kernel a bound searches

# scipy.optimize.linprog, bound by the first symmetrizability LP: only the LP
# needs scipy, and importing it costs every other command about 0.45 s.  It is
# a module global, not a local import, so that wrappers installed on this
# module's namespace (tracing) still see the calls.
linprog = None


class ChannelFormatError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    """Requested alphabet sizes exceed the optimization budget."""


def validate_pmf(p):
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ChannelFormatError("pmf must be a nonempty vector")
    # each check is written so that a NaN fails it
    if not ((p >= -PMF_TOL).all() and abs(p.sum() - 1.0) <= PMF_TOL):
        raise ChannelFormatError("pmf entries must be >= 0 and sum to 1")
    return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class Dmc:
    """State-dependent relay channel kernel plus the relay-link rate (bits/use)."""

    kernel: np.ndarray  # shape (X, S, Y, Y1)
    relay_rate: float = 0.0

    def __post_init__(self):
        W = np.asarray(self.kernel, dtype=float)
        if W.ndim != 4:
            raise ChannelFormatError("kernel must have shape (X, S, Y, Y1)")
        # each check is written so that a NaN fails it
        if not (W >= -PMF_TOL).all():
            raise ChannelFormatError("kernel entries must be numbers >= 0")
        sums = W.sum(axis=(2, 3))
        bad = np.argwhere(~(np.abs(sums - 1.0) <= PMF_TOL))
        if bad.size:
            x, s = bad[0]
            raise ChannelFormatError(
                f"slice (x={x}, s={s}) sums to {sums[x, s]!r}, not 1")
        if not self.relay_rate >= 0:
            raise ChannelFormatError(f"relay_rate (C1) must be >= 0, got {self.relay_rate!r}")
        object.__setattr__(self, "kernel", W)

    @property
    def nx(self):
        return self.kernel.shape[0]

    @property
    def ns(self):
        return self.kernel.shape[1]

    @property
    def ny(self):
        return self.kernel.shape[2]

    @property
    def ny1(self):
        return self.kernel.shape[3]

    def receiver_marginal(self):
        """W[x, s, y]: destination-output marginal."""
        return self.kernel.sum(axis=3)

    def relay_marginal(self):
        """W[x, s, y1]: relay-observation marginal."""
        return self.kernel.sum(axis=2)

    def joint_output(self):
        """W[x, s, (y, y1)] flattened over the output pair."""
        X, S, Y, Y1 = self.kernel.shape
        return self.kernel.reshape(X, S, Y * Y1)


def dmc_from_json(obj) -> Dmc:
    """Read a parsed {"X":..,"S":..,"Y":..,"Y1":..,"C1":..,"W":[[[[...]]]]}, W[x][s][y][y1]."""
    if not isinstance(obj, dict):
        # reprlib shortens the echo of a large value, a long list or string
        raise ChannelFormatError(f"channel must be a JSON object, got {reprlib.repr(obj)}")
    try:
        dims = tuple(int_field(obj, k) for k in ("X", "S", "Y", "Y1"))
        c1 = number_field(obj, "C1")
        W = np.asarray(obj["W"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ChannelFormatError(f"malformed channel object: {exc}") from exc
    if W.shape != dims:
        raise ChannelFormatError(f"W has shape {W.shape}, expected {dims}")
    return Dmc(kernel=W, relay_rate=c1)


def dmc_to_json(dmc: Dmc) -> dict:
    return {"X": dmc.nx, "S": dmc.ns, "Y": dmc.ny, "Y1": dmc.ny1,
            "C1": dmc.relay_rate, "W": dmc.kernel.tolist()}


# ---------------------------------------------------------------------------
# mutual information as entropies of marginals (exact, in bits)
# ---------------------------------------------------------------------------

def mutual_information(p, q, channel) -> float:
    """I(X; O) for X ~ p, S ~ q independent, pushed through channel[x, s, o]."""
    W = np.asarray(channel, dtype=float)
    p = validate_pmf(p)
    q = validate_pmf(q)
    if W.ndim != 3 or W.shape[0] != p.size or W.shape[1] != q.size:
        raise ChannelFormatError("channel dimensions do not match the pmfs")
    return float(_mi(p[:, None] * np.einsum("s,xso->xo", q, W)))


def _negent(M):
    """sum m log2 m over the last axis: minus the entropy of each row.  Entries
    that are not positive (0 log 0 = 0, and the tiny negatives PMF_TOL admits)
    contribute 0."""
    L = np.where(M > 0, M, 1.0)
    np.log2(L, out=L)
    L *= M
    return L @ np.ones(M.shape[-1])   # a GEMV: .sum(axis=-1) over 2-4 entries is ~8x slower


def _mi(J):
    """I(A;O) = H(A) + H(O) - H(A,O) in bits from joint pmfs J[..., a, o],
    broadcast over the leading axes."""
    return _negent(J).sum(axis=-1) - _negent(J.sum(axis=-1)) - _negent(J.sum(axis=-2))


def _wq_batch(Q, W3):
    """sum_k Q[c, k] W3[a, k, o] as (C, A, O), one GEMM: averaged kernels
    (N, X, O) for state pmfs Q (N, S) and a kernel W3 (X, S, O), or output
    pmfs (C, N, O) for inputs Q (C, X) through each kernel of W3 (N, X, O)."""
    A, K, O = W3.shape
    return (Q @ W3.transpose(1, 0, 2).reshape(K, A * O)).reshape(-1, A, O)


def _info_xo(P, WQ, h=None):
    """I(X;O) = H(O) - H(O|X) in bits for inputs P (C, X) through each kernel
    of WQ (N, X, O), as (C, N).  h is _negent(WQ), computed here unless the
    caller holds it for a fixed pool."""
    if h is None:
        h = _negent(WQ)
    return P @ h.T - _negent(_wq_batch(P, WQ))


def _info_uo(Pux, WQ):
    """I(U;O) = H(U) + H(O) - H(U,O) in bits for joints Pux (C, U, X) through
    each kernel of WQ (N, X, O), O seeing U only through X, as (C, N).  The
    (U, O) joints come from one GEMM; both marginals come from Pux."""
    C, U, X = Pux.shape
    N, _, O = WQ.shape
    joint = _wq_batch(Pux.reshape(-1, X), WQ).reshape(C, U, N, O)
    return (_negent(joint).sum(axis=1) - _negent(Pux.sum(axis=2))[:, None]
            - _negent(_wq_batch(Pux.sum(axis=1), WQ)))


# ---------------------------------------------------------------------------
# symmetrizability (linear feasibility via an LP on the max residual)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymVerdict:
    symmetrizable: bool
    witness: np.ndarray | None
    max_residual: float


def residual_of_witness(channel, J) -> float:
    """Max absolute defect of the averaging identity for a candidate J(s|x)."""
    W = np.asarray(channel, dtype=float)
    J = np.asarray(J, dtype=float)
    lhs = np.einsum("xso,ts->xto", W, J)   # sum_s W(o|x,s) J(s|t)
    return float(np.abs(lhs - lhs.transpose(1, 0, 2)).max())


def symmetrizability(channel, tol: float = VERDICT_TOL) -> SymVerdict:
    """Decide whether some J(s|x) averages the channel into a symmetric one.

    Minimizes the maximum violation of

        sum_s W(o|x,s) J(s|xt)  ==  sum_s W(o|xt,s) J(s|x)    for all x, xt, o

    over row-stochastic J, and declares symmetrizable iff the optimum is
    within tol.  The returned witness is re-verified independently.
    """
    global linprog
    if not 0 <= tol < np.inf:   # NaN fails too
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    W = np.asarray(channel, dtype=float)
    if W.ndim != 3:
        raise ChannelFormatError("channel must have shape (X, S, O)")
    X, S, O = W.shape
    if X == 1:
        J = np.full((1, S), 1.0 / S)
        return SymVerdict(True, J, residual_of_witness(W, J))

    # one row pair per (x < xt, o): +-(sum_s W(o|x,s) J(s|xt) - sum_s W(o|xt,s) J(s|x)) <= t
    x, xt = np.triu_indices(X, 1)
    pairs = np.arange(x.size)
    D = np.zeros((x.size, O, X, S))
    D[pairs, :, xt] = W[x].transpose(0, 2, 1)
    D[pairs, :, x] = -W[xt].transpose(0, 2, 1)
    D = D.reshape(-1, X * S)
    A_ub = np.column_stack([np.stack([D, -D], axis=1).reshape(-1, X * S),
                            np.full(2 * len(D), -1.0)])
    A_eq = np.column_stack([np.kron(np.eye(X), np.ones(S)), np.zeros(X)])
    c = np.zeros(X * S + 1)   # J entries, then the residual bound t
    c[-1] = 1.0
    if linprog is None:
        from scipy.optimize import linprog
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(len(A_ub)), A_eq=A_eq, b_eq=np.ones(X),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"symmetrizability LP failed: {res.message}")
    J = np.clip(res.x[:-1].reshape(X, S), 0.0, None)
    J /= J.sum(axis=1, keepdims=True)
    resid = residual_of_witness(W, J)
    ok = resid <= tol
    return SymVerdict(ok, J if ok else None, resid)


# ---------------------------------------------------------------------------
# degradedness factor checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegradednessReport:
    label: str            # strongly_degraded | reversely_strongly_degraded |
                          # degraded_only | reversely_degraded_only | neither
    degraded: bool
    reversely_degraded: bool


def _factors_through(W, parent_axis, state_free=False):
    """Whether W[x, s, y, y1] = M(parent | x, s) * K(other | parent, s).

    M is the kernel's marginal over the parent output (axis 2 for Y, 3 for
    Y1).  K is the conditional of the other output given the parent, read off
    the kernel with x mixed uniformly, and s too when state_free (then K does
    not depend on s).  Conditionals of zero-mass parents stay uniform; they
    never enter the residual, since the kernel has no mass there.
    """
    other = 5 - parent_axis
    mixed = (0, 1) if state_free else 0
    M = W.sum(axis=other, keepdims=True)
    den = M.sum(axis=mixed, keepdims=True)
    K = np.where(den > 0, W.sum(axis=mixed, keepdims=True) / np.where(den > 0, den, 1.0),
                 1.0 / W.shape[other])
    return bool(np.abs(M * K - W).max() <= VERDICT_TOL)


def degradedness_classify(dmc: Dmc) -> DegradednessReport:
    """Label the kernel by which factorizations it passes, each up to VERDICT_TOL.

    degraded:            the relay observation Y1 is the parent of Y;
    reversely degraded:  Y is the parent of Y1;
    reversely strongly:  Y is the parent of Y1 through a state-free factor;
    strongly degraded:   degraded, and the relay marginal does not depend on s.
    """
    W = dmc.kernel
    m_relay = dmc.relay_marginal()
    degraded = _factors_through(W, 3)
    reversely = _factors_through(W, 2)
    if degraded and np.abs(m_relay - m_relay.mean(axis=1, keepdims=True)).max() <= VERDICT_TOL:
        label = "strongly_degraded"
    elif _factors_through(W, 2, state_free=True):
        label = "reversely_strongly_degraded"
    elif degraded:
        label = "degraded_only"
    elif reversely:
        label = "reversely_degraded_only"
    else:
        label = "neither"
    return DegradednessReport(label=label, degraded=degraded, reversely_degraded=reversely)


# ---------------------------------------------------------------------------
# cutset and decode-forward bounds
# ---------------------------------------------------------------------------

def _check_budget(dmc, *extra_dims):
    """Refuse a channel before searching it: its kernel must fit, and so must the
    refinement batches of the simplex searches over S, X and any extra_dims."""
    if dmc.kernel.size > MAX_KERNEL_ENTRIES:
        raise ResourceLimitError(
            f"kernel has {dmc.kernel.size} entries, budget {MAX_KERNEL_ENTRIES}")
    for k in (dmc.ns, dmc.nx, *extra_dims):
        size = refine_batch_size(k, MULTISTART_TOP)
        if size > MAX_GRID_POINTS:
            raise ResourceLimitError(f"a search over a {k}-point simplex refines {size} "
                                     f"candidates at once, budget {MAX_GRID_POINTS}")


def _resolution(k, resolution):
    """A k-point search's grid: the resolution up to k = 3, else start_pool's default."""
    return resolution if k <= 3 else None


def _min_over_q(objective_batch, ns, rng):
    """Minimize a batched function of q over the state simplex.  Returns (q*, value)."""
    return search_simplex(objective_batch, ns, minimize=True,
                          resolution=_resolution(ns, Q_RESOLUTION),
                          rounds=REFINE_ROUNDS, top=MULTISTART_TOP, rng=rng)


def _max_over_p(objective_batch, nx, rng, top):
    """Maximize a batched function of p over the input simplex.  Returns (p*, value)."""
    return search_simplex(objective_batch, nx, resolution=_resolution(nx, P_RESOLUTION),
                          rounds=REFINE_ROUNDS, top=top, rng=rng)


# largest batched array (in entries) that a pooled objective builds at once
_BLOCK_ENTRIES = 1 << 22


def _in_blocks(objective_batch, row_entries):
    """Evaluate a batched objective over blocks of candidate rows, each row
    costing row_entries entries, so that no batched array exceeds _BLOCK_ENTRIES."""
    step = max(1, _BLOCK_ENTRIES // row_entries)

    def blocked(P):
        return np.concatenate([objective_batch(P[i:i + step])
                               for i in range(0, P.shape[0], step)])
    return blocked


def _min_q_max_p(combine, kernels, dmc, top):
    """min over q of max over p of combine(I(X;O_1), I(X;O_2), ...), O_k seen
    through kernels[k].  The start pool of the p search steers the q search;
    the max over p is refined once, at the winning q."""
    rng = np.random.default_rng(SEARCH_SEED)
    P0 = start_pool(dmc.nx, _resolution(dmc.nx, P_RESOLUTION), rng)

    def at(P, Q):   # (M, X) inputs x (N, S) states -> (M, N) values
        return combine(*(_info_xo(P, _wq_batch(Q, W)) for W in kernels))

    # a block of q rows builds the (M, N, O) output pmfs
    row_entries = len(P0) * max(W.shape[2] for W in kernels)
    q, _ = _min_over_q(_in_blocks(lambda Q: at(P0, Q).max(axis=0), row_entries), dmc.ns, rng)
    # a rate is >= 0; entropies that cancel can leave rounding noise below it
    return max(float(_max_over_p(lambda P: at(P, q[None])[:, 0], dmc.nx, rng, top)[1]), 0.0)


def cutset_bound(dmc: Dmc) -> float:
    """inf over state pmfs of max over input pmfs of
    min{ I(X;Y) + C1, I(X;Y,Y1) }, reported as the refined max over p at the
    state pmf the search picks."""
    _check_budget(dmc)
    c1 = dmc.relay_rate
    return _min_q_max_p(lambda i_y, i_j: np.minimum(i_y + c1, i_j),
                        [dmc.receiver_marginal(), dmc.joint_output()], dmc, MULTISTART_TOP)


def _q_pool(dmc, rng):
    """Fixed pool of state pmfs used while searching over inputs.

    Final values are always re-evaluated with a refined q-minimization, so
    this pool only steers the search.
    """
    if dmc.ns <= 3:
        return simplex_grid(dmc.ns, Q_RESOLUTION)
    return np.concatenate([np.eye(dmc.ns),
                           np.full((1, dmc.ns), 1.0 / dmc.ns),
                           rng.dirichlet(np.ones(dmc.ns), size=192)])


def _df_value(Pux, dmc, rng):
    """The decode-forward combination at a joint p(u,x), each min over q refined."""
    W_y = dmc.receiver_marginal()
    px = Pux.sum(axis=0)

    def qmin(info):
        return _min_over_q(info, dmc.ns, rng)[1]

    def i_uo(Q, W3):
        return _info_uo(Pux[None], _wq_batch(Q, W3))[0]

    a = qmin(lambda Q: i_uo(Q, W_y))
    b = qmin(lambda Q: _info_xo(px[None], _wq_batch(Q, W_y))[0] - i_uo(Q, W_y))
    c = qmin(lambda Q: i_uo(Q, dmc.relay_marginal()))
    return max(float(min(a + b + dmc.relay_rate, c + b)), 0.0)    # floored as in _min_q_max_p


def df_bound(dmc: Dmc, aux_size: int | None = None, mode: str = "aux") -> float:
    """Partial decode-forward lower bound: the displayed combination

        min{ [min_q I(U;Y)] + [min_q I(X;Y|U)] + C1,
             [min_q I(U;Y1)] + [min_q I(X;Y|U)] }

    at the best joint p(u,x) found, each minimum over q taken separately.  The
    modes search p(u,x) in different embeddings:

    mode "direct": U constant, p(u,x) = p(x) in one row; the value is
                   max_p min_q I(X;Y), the no-relay-help rate.
    mode "full":   U = X, p(u,x) = diag(p(x)); the value is
                   max_p min{min_q I(X;Y) + C1, min_q I(X;Y1)}.
    mode "aux":    free p(u,x) with |U| = aux_size (default |X|+1), searched
                   from the direct optimum and, when aux_size >= |X|, the full
                   one, so it starts no lower than either.

    One fixed pool of state pmfs steers every search over inputs, each mode
    with its own objective; the winner is re-evaluated once, with refined
    minimizations over q.
    """
    if mode not in ("direct", "full", "aux"):
        raise ValueError("mode must be one of direct|full|aux")
    nu = aux_size if aux_size is not None else dmc.nx + 1
    if mode == "aux" and nu < 1:
        raise ChannelFormatError("aux cardinality must be >= 1")
    _check_budget(dmc, *((nu * dmc.nx,) if mode == "aux" else ()))
    rng = np.random.default_rng(SEARCH_SEED)

    nx = dmc.nx
    c1 = dmc.relay_rate
    Q = _q_pool(dmc, rng)
    WQy = _wq_batch(Q, dmc.receiver_marginal())
    WQ1 = _wq_batch(Q, dmc.relay_marginal())
    hy, h1 = _negent(WQy), _negent(WQ1)
    n_out = len(Q) * max(dmc.ny, dmc.ny1)   # per candidate: its (N, O) output pmfs

    def steer(obj_p):
        return _max_over_p(_in_blocks(obj_p, n_out), nx, rng, top=2)[0]

    def direct(P):   # min over the pool of I(X;Y)
        return _info_xo(P, WQy, hy).min(axis=1)

    def full(P):
        return np.minimum(direct(P) + c1, _info_xo(P, WQ1, h1).min(axis=1))

    if mode == "direct":
        return _df_value(steer(direct)[None, :], dmc, rng)
    if mode == "full":
        return _df_value(np.diag(steer(full)), dmc, rng)

    # embed the special modes into the joint p(u,x); U = X only fits when |U| >= |X|
    start_direct = np.zeros((nu, nx))
    start_direct[0, :] = steer(direct)
    starts = [start_direct.ravel()]
    if nu >= nx:
        start_full = np.zeros((nu, nx))
        start_full[:nx, :nx] = np.diag(steer(full))
        starts.append(start_full.ravel())
    dim = nu * nx
    starts.append(np.full(dim, 1.0 / dim))
    starts += [rng.dirichlet(np.ones(dim)) for _ in range(AUX_STARTS)]

    # U - X - O is a Markov chain (O sees U only through X, and the state is
    # independent of (U, X)), so I(X;O|U) = I(X;O) - I(U;O) with p(x) = sum_u p(u,x)
    def batch_obj(Pflat):
        Pb = Pflat.reshape(-1, nu, nx)
        i_xy = _info_xo(Pb.sum(axis=1), WQy, hy)
        i_uy = _info_uo(Pb, WQy)
        i_uy1 = _info_uo(Pb, WQ1)
        term_b = (i_xy - i_uy).min(axis=1)
        return np.minimum(i_uy.min(axis=1) + term_b + c1, i_uy1.min(axis=1) + term_b)

    # per candidate: its (U, N, O) joint pmfs
    p_best, _ = search_simplex(_in_blocks(batch_obj, nu * n_out), dim, resolution=None,
                               rounds=REFINE_ROUNDS, top=MULTISTART_TOP,
                               rng=rng, extra_starts=np.array(starts))
    return _df_value(p_best.reshape(nu, nx), dmc, rng)


def minimax_receiver_information(dmc: Dmc, order: str = "qp") -> float:
    """min-max (order "qp") or max-min (order "pq") of I(X;Y) over q and p.

    The max-min is df_bound's direct mode; the min-max is searched like the
    cutset bound and reported as the refined max over p at its state pmf."""
    if order == "pq":
        return df_bound(dmc, mode="direct")
    if order != "qp":
        raise ValueError("order must be 'qp' or 'pq'")
    _check_budget(dmc)
    return _min_q_max_p(lambda i_y: i_y, [dmc.receiver_marginal()], dmc, top=2)


# ---------------------------------------------------------------------------
# capacity classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityClassification:
    verdict: str                 # equals_random_capacity | zero | undetermined
    clause: int | None           # which classification rule fired (1..4)
    df_lower: float | None
    cs_upper: float | None
    exact_value: float | None
    relay_marginal_symmetrizable: bool
    joint_output_symmetrizable: bool
    degradedness: str
    aux_size: int | None = None


def classify_capacity(dmc: Dmc) -> CapacityClassification:
    """Apply the deterministic-code capacity rules in order of decisiveness,
    every verdict at VERDICT_TOL.

    1. joint-output channel symmetrizable        -> capacity 0
    2. relay marginal non-symmetrizable, C1 > 0  -> capacity equals the
       shared-randomness capacity; if additionally reversely strongly
       degraded or strongly degraded (with distinct relay rows) the value is
       computed in closed form, otherwise the decode-forward / cutset
       sandwich is attached.
    Anything else is undetermined (bounds still attached).
    """
    joint = symmetrizability(dmc.joint_output())
    if joint.symmetrizable:
        return CapacityClassification(
            verdict="zero", clause=4, df_lower=0.0, cs_upper=0.0, exact_value=0.0,
            relay_marginal_symmetrizable=symmetrizability(dmc.relay_marginal()).symmetrizable,
            joint_output_symmetrizable=True,
            degradedness=degradedness_classify(dmc).label)

    relay = symmetrizability(dmc.relay_marginal())
    deg = degradedness_classify(dmc)
    clause_1 = not relay.symmetrizable and dmc.relay_rate > 0
    if clause_1 and deg.label == "reversely_strongly_degraded":
        v = minimax_receiver_information(dmc, "qp")
        return CapacityClassification("equals_random_capacity", 2, v, v, v,
                                      False, False, deg.label)
    if clause_1 and deg.label == "strongly_degraded":
        m1 = dmc.relay_marginal().mean(axis=1)   # (X,Y1), state-free
        if np.abs(m1[:, None, :] - m1[None, :, :]).max() > VERDICT_TOL:   # distinct relay rows
            # the relay term does not depend on q here, so this is
            # max_p min{ min_q I(X;Y) + C1, I(X;Y1) }
            v = df_bound(dmc, mode="full")
            return CapacityClassification("equals_random_capacity", 3, v, v, v,
                                          False, False, deg.label)
    aux = dmc.nx + 1
    return CapacityClassification(
        "equals_random_capacity" if clause_1 else "undetermined", 1 if clause_1 else None,
        df_bound(dmc, aux, "aux"), cutset_bound(dmc), None,
        relay.symmetrizable, False, deg.label, aux_size=aux)


# ---------------------------------------------------------------------------
# the binary illustrative channel and its length-1 zero-error code
# ---------------------------------------------------------------------------

def binary_pipe_dmc(relay_rate: float = 1.0) -> Dmc:
    """Y = X + S over {0,1,2}; Y1 = X(1-S) over {0,1}; noiseless unit-rate pipe."""
    W = np.zeros((2, 2, 3, 2))
    for x in range(2):
        for s in range(2):
            W[x, s, x + s, x * (1 - s)] = 1.0
    return Dmc(kernel=W, relay_rate=relay_rate)


@dataclass(frozen=True)
class SingleUseTrial:
    message: int
    state: int
    y: int
    y1: int
    decoded: int
    error: int


def single_use_code_table():
    """Exhaustive (message, state) table of the length-1 code on binary_pipe_dmc.

    Encoder sends the message bit; the relay forwards its observation over
    the pipe; the decoder maps y=0 -> 0, y=2 -> 1, y=1 -> the forwarded bit.
    All four trials decode correctly, certifying one bit per use with zero
    error against every state choice.
    """
    rows = []
    for m in range(2):
        for s in range(2):
            y = m + s
            y1 = m * (1 - s)
            ell = y1
            decoded = 0 if y == 0 else (1 if y == 2 else ell)
            rows.append(SingleUseTrial(m, s, y, y1, decoded, int(decoded != m)))
    return rows
