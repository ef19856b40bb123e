"""A simplex search that evaluates every centre's block, as the reference for
`avrc.optimize.search_simplex`, which evaluates each distinct centre's block
once.

It follows search_simplex's docstring: the start pool is evaluated, then for
REFINE_ROUNDS rounds the fixed pattern is contracted around the best `top`
candidates, to half size and then by 0.35 a round, the best so far leading
the next round's centres; ties go to the earlier candidate.  Here f_batch
sees every centre's block, the copies of an equal centre included.
"""

import numpy as np

from avrc import optimize
from avrc.optimize import REFINE_ROUNDS, simplex_grid


def search_every_block(f_batch, pool, *, minimize=False, top=4, centres=None):
    """Returns (x_best, value_best), as search_simplex does.  When centres is
    a list, each refinement round's (top, k) centres are appended to it."""
    sign = -1.0 if minimize else 1.0
    top = max(1, top)
    k = pool.shape[1]
    vals = sign * f_batch(pool)
    order = np.argsort(-vals, kind="stable")[:top]
    round_centres = pool[order]
    best_x, best_v = pool[order[0]].copy(), float(vals[order[0]])
    pattern = simplex_grid(k, optimize._pattern_resolution(k))
    factor = 0.5
    for _ in range(REFINE_ROUNDS):
        if centres is not None:
            centres.append(round_centres)
        cands = ((pattern[None, :, :] - round_centres[:, None, :]) * factor
                 + round_centres[:, None, :]).reshape(-1, k)
        vals = sign * f_batch(cands)
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_v, best_x = float(vals[j]), cands[j].copy()
        order = np.argsort(-vals, kind="stable")[:top]
        round_centres = np.concatenate([best_x[None, :], cands[order]])[:top]
        factor *= 0.35
    return best_x, sign * best_v
