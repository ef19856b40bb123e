"""Finite-alphabet jammed relay channels: information quantities and verdicts.

A channel here is a 4-index kernel W[x, s, y, y1]: for each input x and state
s, a joint pmf over the destination output y and the relay observation y1.
The relay talks to the destination over a noiseless link of `relay_rate` bits
per use.  Every information quantity here is a sum of entropies of finite
pmfs, each computed by one primitive (`_negent`, sum m log2 m): for a pool
of inputs against a pool of averaged kernels, I(X;O) = H(O) - H(O|X) and
I(U;O) = H(U) + H(O) - H(U,O) from output pmfs that one matrix product
builds, without forming a joint per (input, state) pair.  The module
decides symmetrizability by a linear program that a short numpy simplex
solves and two certificates checked outside it prove, classifies
degradedness by factor checks, evaluates the cutset and decode-forward
bounds, and applies the capacity classification rules.  Every min-max and
max-min over state pmfs q and input pmfs p is solved one way: a fixed pool
over the inner simplex steers a simplex search over the outer one, and the
inner optimum is refined once, at the winner.
"""

from dataclasses import dataclass

import numpy as np

from ._fields import int_field, number_field, shown
from .optimize import MAX_GRID_POINTS, refine_batch_size, search_simplex, simplex_grid, start_pool

PMF_TOL = 1e-12
VERDICT_TOL = 1e-9    # the largest residual a verdict still counts as zero
MULTISTART_TOP = 6    # centres per refinement round; the steering searches over p keep 2
SEARCH_SEED = 0       # the seed of each bound's search generator
Q_RESOLUTION = 64     # grid resolution over state pmfs q (up to 3 atoms)
P_RESOLUTION = 128    # grid resolution over input pmfs p (up to 3 atoms)
AUX_STARTS = 12       # random starts of df's aux search over p(u,x)
ORBIT_TOL = 1e-9      # how far below the top starts a relabeling orbit of df's aux pool is kept
MAX_KERNEL_ENTRIES = 1_000_000   # the largest kernel a bound searches
MAX_LP_ENTRIES = 10_000_000   # the largest simplex tableau symmetrizability builds
PIVOT_TOL = 1e-7      # the smallest tableau entry the simplex pivots on
FEAS_TOL = 1e-12      # how far the Harris ratio test lets a basic variable go below 0
OPT_TOL = 1e-12       # the largest reduced cost an optimal tableau keeps
STALL_PIVOTS = 50     # pivots without gain after which the simplex prices by Bland's rule


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
        raise ChannelFormatError(f"channel must be a JSON object, got {shown(obj)}")
    try:
        dims = tuple(int_field(obj, k) for k in ("X", "S", "Y", "Y1"))
        c1 = number_field(obj, "C1")
        W = obj["W"]
    except (KeyError, ValueError) as exc:
        raise ChannelFormatError(f"malformed channel object: {exc}") from exc
    try:
        W = np.asarray(W, dtype=float)
    except (TypeError, ValueError) as exc:
        # numpy's message can quote the whole bad value
        raise ChannelFormatError(
            f"W must be nested lists of numbers, got {shown(W)}") from exc
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
    return float(_info_xo(p[None], _wq_batch(q[None], W))[0, 0])


def _negent(M):
    """sum m log2 m over the last axis: minus the entropy of each row.  Entries
    that are not positive (0 log 0 = 0, and the tiny negatives PMF_TOL admits)
    contribute 0."""
    L = np.where(M > 0, M, 1.0)
    np.log2(L, out=L)
    L *= M
    return L @ np.ones(M.shape[-1])   # a GEMV: .sum(axis=-1) over 2-4 entries is ~8x slower


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
# symmetrizability (an LP on the max residual, its verdict certified both ways)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymVerdict:
    symmetrizable: bool
    witness: np.ndarray | None
    max_residual: float    # the residual of the LP's J; the witness's when symmetrizable
    lower_bound: float     # certified: no row-stochastic J has a smaller residual


def residual_of_witness(channel, J) -> float:
    """Max absolute defect of the averaging identity for a candidate J(s|x)."""
    W = np.asarray(channel, dtype=float)
    J = np.asarray(J, dtype=float)
    lhs = np.einsum("xso,ts->xto", W, J)   # sum_s W(o|x,s) J(s|t)
    return float(np.abs(lhs - lhs.transpose(1, 0, 2)).max())


def _defect_rows(W):
    """D (X(X-1)/2 * O, X * S), one row per (x < xt, o): its dot with a
    flattened J is sum_s W(o|x,s) J(s|xt) - sum_s W(o|xt,s) J(s|x)."""
    X, S, O = W.shape
    x, xt = np.triu_indices(X, 1)
    pairs = np.arange(x.size)
    D = np.zeros((x.size, O, X, S))
    D[pairs, :, xt] = W[x].transpose(0, 2, 1)
    D[pairs, :, x] = -W[xt].transpose(0, 2, 1)
    return D.reshape(-1, X * S)


def _refactor(T0, basis):
    """The tableau of a basis, factored afresh from the slack basis's tableau
    T0 = [A | b] over [c | 0]: B^-1 [A | b] over [c | 0] - c_B B^-1 [A | b]."""
    m = len(basis)
    T = np.empty_like(T0)
    try:
        T[:m] = np.linalg.solve(T0[:m, basis], T0[:m])
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"the symmetrizability LP reached a singular basis ({exc})") from exc
    T[m] = T0[m] - T0[m, basis] @ T[:m]
    return T


def _max_dual(D, X, S):
    """Solve max sum_x mu_x s.t. mu_x <= (D^T v)_{x,s} for every s, ||v||_1 <= 1,
    the dual of min_J ||D J||_inf over row-stochastic J, by a dense tableau
    simplex.  Returns (v, y): the optimal basic solution's v and the duals y
    of its X*S + 1 rows, the first X*S of which are J(s|x).

    The columns are v+, v-, mu+, mu- and the slacks, whose basis is feasible
    (b is 0 but for the norm row's 1), so there is no phase 1.  Pricing is
    Dantzig's rule, and Bland's (the lowest index) once STALL_PIVOTS pivots in
    a row have gained nothing.  The ratio test is Harris's two passes
    (Math. Programming 5, 1973): the largest step that leaves every basic
    variable above -FEAS_TOL, then the largest pivot among the rows that bind
    within it; a dual step restores a basic variable that the rounding of
    the pivots left below -FEAS_TOL.  An optimum is only accepted from a
    tableau factored afresh from the original columns (`_refactor`), so v and
    y carry no error that the pivots accumulated.
    """
    R, m = len(D), X * S + 1
    n = 2 * R + 2 * X + m
    T0 = np.zeros((m + 1, n + 1))   # [A | b] over [c | 0]; the slack basis's tableau
    T0[:-2, :R] = -D.T
    T0[:-2, R:2 * R] = D.T
    T0[-2, :2 * R] = 1.0
    T0[-2, -1] = 1.0
    mu = 2 * R + np.arange(X * S) // S
    T0[np.arange(X * S), mu] = 1.0
    T0[np.arange(X * S), mu + X] = -1.0
    T0[np.arange(m), 2 * R + 2 * X + np.arange(m)] = 1.0
    T0[-1, 2 * R:2 * R + X] = 1.0
    T0[-1, 2 * R + X:2 * R + 2 * X] = -1.0
    T = T0.copy()
    basis = np.arange(2 * R + 2 * X, n)
    fresh = True
    best, stalled = 0.0, 0
    for _ in range(50 * n):
        cost, rhs = T[m, :-1], T[:m, -1]
        j = int(cost.argmax())
        r = None
        if cost[j] > OPT_TOL:    # a primal step
            bland = stalled >= STALL_PIVOTS
            if bland:
                j = int((cost > OPT_TOL).argmax())
            col = T[:m, j]
            ok = col > PIVOT_TOL
            np.maximum(rhs, 0.0, out=rhs)   # what the ratio test let dip below 0
            step = np.divide(rhs + FEAS_TOL, col, out=np.full(m, np.inf), where=ok).min()
            if step < np.inf:
                binding = ok & (rhs <= step * col)
                r = int(np.where(binding, basis, n).argmin() if bland
                        else np.where(binding, col, 0.0).argmax())
        elif rhs.min() < -FEAS_TOL:    # a dual step: the most negative basic variable leaves
            r = int(rhs.argmin())
            row = T[r, :-1]
            ok = row < -PIVOT_TOL
            if ok.any():
                j = int(np.divide(cost, row, out=np.full(n, np.inf), where=ok).argmin())
            else:
                r = None
        elif fresh:
            break
        if r is None:
            if fresh:
                raise RuntimeError("the symmetrizability LP found no pivot")
            T = _refactor(T0, basis)
            fresh = True
            continue
        pivot_row = T[r] / T[r, j]
        T -= T[:, j, None] * pivot_row
        T[r] = pivot_row
        basis[r] = j
        fresh = False
        value = -T[m, -1]
        stalled = 0 if value > best + OPT_TOL else stalled + 1
        best = max(best, value)
    else:
        raise RuntimeError("the symmetrizability LP ran out of pivots")
    x = np.zeros(n)
    x[basis] = T[:m, -1]
    return x[:R] - x[R:2 * R], -T[m, 2 * R + 2 * X:n]   # a slack's reduced cost is -y


def symmetrizability(channel, tol: float = VERDICT_TOL) -> SymVerdict:
    """Decide whether some J(s|x) averages the channel into a symmetric one.

    The LP minimizes the largest defect of

        sum_s W(o|x,s) J(s|xt)  ==  sum_s W(o|xt,s) J(s|x)    for all x, xt, o

    over row-stochastic J, a max |(D J)_r| over one defect row r per
    (x < xt, o).  Its dual is max over ||v||_1 <= 1 of sum_x min_s (D^T v)_{x,s}
    (`_max_dual`).  The verdict rests on two certificates computed outside
    the solver: the residual of the solver's J (`residual_of_witness`), an
    upper side, and, from its v scaled to ||v||_1 <= 1, the lower side
    LB = sum_x min_s (D^T v)_{x,s} <= v^T D J <= ||D J||_inf for every
    row-stochastic J.  Symmetrizable when the residual is within tol; not
    symmetrizable when LB > tol; a RuntimeError when neither is proven.
    """
    if not 0 <= tol < np.inf:   # NaN fails too
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    W = np.asarray(channel, dtype=float)
    if W.ndim != 3:
        raise ChannelFormatError("channel must have shape (X, S, O)")
    X, S, O = W.shape
    if X == 1:
        J = np.full((1, S), 1.0 / S)
        return SymVerdict(True, J, residual_of_witness(W, J), 0.0)
    R = X * (X - 1) // 2 * O
    entries = (X * S + 2) * (2 * R + 2 * X + X * S + 2)
    if entries > MAX_LP_ENTRIES:
        raise ResourceLimitError(
            f"the symmetrizability LP of a channel with X={X}, S={S}, O={O} builds a "
            f"{entries}-entry tableau, budget {MAX_LP_ENTRIES}")

    D = _defect_rows(W)
    v, y = _max_dual(D, X, S)
    J = np.clip(y[:-1].reshape(X, S), 0.0, None)   # the optimal duals: each row sums to 1
    J /= J.sum(axis=1, keepdims=True)
    resid = residual_of_witness(W, J)
    v /= max(1.0, float(np.abs(v).sum()))
    lower = float((v @ D).reshape(X, S).min(axis=1).sum())
    if resid <= tol:
        return SymVerdict(True, J, resid, lower)
    if lower > tol:
        return SymVerdict(False, None, resid, lower)
    raise RuntimeError(f"the symmetrizability LP proved no verdict at tol {tol!r}: its witness "
                       f"leaves a residual of {resid!r} and its lower bound is {lower!r}")


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


def _pool(k, resolution, rng):
    """A k-point search's start pool: its grid at the resolution up to k = 3,
    else start_pool's default."""
    return start_pool(k, resolution if k <= 3 else None, rng)


def _min_over_q(objective_batch, ns, rng):
    """Minimize a batched function of q over the state simplex.  Returns (q*, value)."""
    return search_simplex(objective_batch, _pool(ns, Q_RESOLUTION, rng),
                          minimize=True, top=MULTISTART_TOP)


def _max_over_p(objective_batch, nx, rng, top):
    """Maximize a batched function of p over the input simplex.  Returns (p*, value)."""
    return search_simplex(objective_batch, _pool(nx, P_RESOLUTION, rng), top=top)


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
    _check_budget(dmc)
    rng = np.random.default_rng(SEARCH_SEED)
    P0 = _pool(dmc.nx, P_RESOLUTION, rng)

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
    W_y, W_1 = dmc.receiver_marginal(), dmc.relay_marginal()
    px = Pux.sum(axis=0)

    def qmin(info):
        return _min_over_q(info, dmc.ns, rng)[1]

    def i_uo(Q, W3):
        return _info_uo(Pux[None], _wq_batch(Q, W3))[0]

    a = qmin(lambda Q: i_uo(Q, W_y))
    b = qmin(lambda Q: _info_xo(px[None], _wq_batch(Q, W_y))[0] - i_uo(Q, W_y))
    c = qmin(lambda Q: i_uo(Q, W_1))
    return max(float(min(a + b + dmc.relay_rate, c + b)), 0.0)    # floored as in _min_q_max_p


def aux_cardinality(dmc: Dmc, aux_size: int | None = None) -> int:
    """|U| of df's aux mode: aux_size if given, else the cardinality bound |X| + 1."""
    return dmc.nx + 1 if aux_size is None else aux_size


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
    minimizations over q.  The aux objective does not change when the rows
    of p(u,x) are permuted, so its start pool (start_pool's grid, vertices
    and centre, then the starts above) is evaluated once per relabeling
    orbit of U, and only the orbits that can hold a refinement centre are
    kept whole (`_leading_starts`); the result is the one the whole pool
    gives.
    """
    if mode not in ("direct", "full", "aux"):
        raise ValueError("mode must be one of direct|full|aux")
    nu = aux_cardinality(dmc, aux_size)
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
    objective = _in_blocks(batch_obj, nu * n_out)
    pool = _leading_starts(objective, np.vstack([start_pool(dim, None, rng), *starts]), nu)
    p_best, _ = search_simplex(objective, pool, top=MULTISTART_TOP)
    return _df_value(p_best.reshape(nu, nx), dmc, rng)


def _u_orbits(pool, nu):
    """Group the points of a pool over p(u,x), rows (N, nu * nx), by
    relabelings of U: two points share an orbit when the nu rows of one are a
    permutation of the other's.  Returns (first, orbit): first[j] is the pool
    index of orbit j's first point in pool order, and orbit[i] the orbit of
    point i.

    Each row of p(u,x) is read as its bytes, and a point's rows, sorted, key
    its orbit, so equal floats match exactly at any resolution.
    """
    n, dim = pool.shape
    row_bytes = pool.itemsize * (dim // nu)
    rows = np.sort(pool.reshape(n, nu, -1).view(f"V{row_bytes}")[..., 0], axis=1)
    _, first, orbit = np.unique(rows.view(f"V{row_bytes * nu}")[:, 0],
                                return_index=True, return_inverse=True)
    return first, orbit


def _leading_starts(objective, pool, nu):
    """The rows of df's aux start pool that can be among its MULTISTART_TOP
    best, in pool order.

    The objective does not change when the rows of p(u,x) are permuted, so
    only each orbit's first point is evaluated.  An orbit whose value is
    within ORBIT_TOL of the MULTISTART_TOP-th best (its copies can differ from
    it by rounding only) is kept whole; the other orbits are dropped.  The
    stable top MULTISTART_TOP of what is kept are then those of the whole
    pool, so the search from it is the search from the whole pool.
    """
    first, orbit = _u_orbits(pool, nu)
    vals = objective(pool[first])
    cut = np.sort(vals)[-min(MULTISTART_TOP, len(vals))] - ORBIT_TOL
    return pool[vals[orbit] >= cut]


def minimax_receiver_information(dmc: Dmc) -> float:
    """min over q of max over p of I(X;Y), searched like the cutset bound and
    reported as the refined max over p at its state pmf.  The max-min is
    df_bound's direct mode."""
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
    relay = symmetrizability(dmc.relay_marginal())
    deg = degradedness_classify(dmc)
    # a relay defect is the sum over y of |Y| joint defects, so the joint
    # residual of any J is at least relay.lower_bound / |Y|: above
    # VERDICT_TOL, the joint output is proven not symmetrizable without its LP
    if (relay.lower_bound <= dmc.ny * VERDICT_TOL
            and symmetrizability(dmc.joint_output()).symmetrizable):
        return CapacityClassification(
            verdict="zero", clause=4, df_lower=0.0, cs_upper=0.0, exact_value=0.0,
            relay_marginal_symmetrizable=relay.symmetrizable, joint_output_symmetrizable=True,
            degradedness=deg.label)
    clause_1 = not relay.symmetrizable and dmc.relay_rate > 0
    if clause_1 and deg.label == "reversely_strongly_degraded":
        v = minimax_receiver_information(dmc)
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
    return CapacityClassification(
        "equals_random_capacity" if clause_1 else "undetermined", 1 if clause_1 else None,
        df_bound(dmc), cutset_bound(dmc), None,
        relay.symmetrizable, False, deg.label, aux_size=aux_cardinality(dmc))


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
    W = binary_pipe_dmc().kernel
    rows = []
    for m, s in np.ndindex(W.shape[:2]):
        y, y1 = (int(v) for v in np.argwhere(W[m, s])[0])   # the kernel's one output pair
        decoded = 0 if y == 0 else (1 if y == 2 else y1)
        rows.append(SingleUseTrial(m, s, y, y1, decoded, int(decoded != m)))
    return rows
