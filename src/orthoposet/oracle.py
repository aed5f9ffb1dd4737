"""Numerical existence oracle independent of the constructive route."""

import collections
import dataclasses
import itertools
import math

import numpy as np

from .builder import ProjectionFamily, disjoint_union
from .chain import NoRepresentation, predict
from .spectrum import CONTINUOUS, DEFAULT_TOL, Character, membership
from .verify import VERIFY_TOL as ACCEPT_TOL, check_all

PROFILE_SLACK = 1e-6
STALL_WINDOW = 50
STALL_FACTOR = 0.7
ANDERSON_MEMORY = 5
SPECTRUM_TOL = 1e-6
# lanes that run at once in one stacked state
LANE_POOL = 8
# the two limits of _lane_cap: lanes, restarts x surviving profiles, and
# their work per iteration, lanes x |G| n^3; the largest search the tests
# and the benchmark run has 256 lanes, and the largest work the tests run
# is 48,384 (56 lanes of four elements at dimension 6), the README's 27,648
# and the benchmark's 12,096
MAX_LANES = 4096
MAX_LANE_WORK = 2 ** 24
# rows of the rank-prefix grid; the largest grid the tests and the benchmark
# build has 314,154 (eight elements at dimension 8)
MAX_PROFILE_ROWS = 2 ** 22
# float64 entries of the pool's state, LANE_POOL x (5 + 2 ANDERSON_MEMORY)
# x 2|G|n^2 (128 MB), as a lane holds its step history and at most five
# more flat states between sweeps; the largest state the tests and the
# benchmark search with has 36,000 (six elements at dimension 5)
MAX_STATE_ENTRIES = 2 ** 24
_Outcome = collections.namedtuple("_Outcome", "pidx restart exit family report started")


class OracleError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class SearchConfig:
    dimension: int
    restarts: int = 64
    max_iterations: int = 5000
    step_tol: float = 1e-13
    seed: int = 0
    rank_profile: tuple = None

    def __post_init__(self):
        if self.dimension < 1:
            raise OracleError("dimension must be positive")
        if self.restarts < 1 or self.max_iterations < 1:
            raise OracleError("restarts and max_iterations must be positive")
        if self.seed < 0:
            raise OracleError("seed must be non-negative, got %d" % self.seed)
        if self.rank_profile is not None and not all(
                isinstance(r, (int, np.integer)) and 0 <= r <= self.dimension
                for r in self.rank_profile):
            raise OracleError("rank_profile entries must be integers in 0..dimension")


def rank_profiles(p, chi, dimension):
    """Monotone rank profiles with the exact weighted trace, as the rows of
    an (m, k) integer array in scan order: nearest the trace, then by ranks.

    trace(sum alpha_g P_g) = dimension holds exactly for any family, so
    sum alpha_g rank(P_g) must equal the dimension up to verifier noise;
    everything else cannot carry a representation and is pruned. Rank
    prefixes grow one element at a time and are dropped as soon as they
    break monotonicity or can no longer reach the trace. A grid that would
    pass MAX_PROFILE_ROWS raises OracleError before it is allocated.
    """
    els = p.elements
    k = len(els)
    w = np.array([chi[g] for g in els])
    # reach[j]: the most that elements j, j + 1, ... can still add
    reach = dimension * np.append(np.cumsum(w[::-1])[::-1], 0.0)
    values = np.arange(dimension + 1, dtype=np.min_scalar_type(dimension))
    grid = np.zeros((1, 0), dtype=values.dtype)
    partial = np.zeros(1)
    for j, g in enumerate(els):
        rows = len(grid)
        if rows * (dimension + 1) > MAX_PROFILE_ROWS:
            raise OracleError(
                "rank profiles of %d elements at dimension %d need more than "
                "%d grid rows" % (k, dimension, MAX_PROFILE_ROWS))
        grid = np.hstack([np.repeat(grid, dimension + 1, axis=0),
                          np.tile(values, rows)[:, None]])
        partial = np.repeat(partial, dimension + 1) + w[j] * grid[:, j]
        keep = ((partial <= dimension + 2 * PROFILE_SLACK)
                & (partial + reach[j + 1] >= dimension - 2 * PROFILE_SLACK))
        for i in range(j):
            if p.less(els[i], g):
                keep &= grid[:, i] <= grid[:, j]
            elif p.less(g, els[i]):
                keep &= grid[:, j] <= grid[:, i]
        grid, partial = grid[keep], partial[keep]
    slack = np.abs(grid @ w - dimension)
    keep = slack <= PROFILE_SLACK
    grid, slack = grid[keep], slack[keep]
    return grid[np.lexsort((*grid.T[::-1], slack))]


def trace_feasible(p, chi, profiles, dimension):
    """Mask of the rank profiles that pass the trace identity.

    Multiplying sum_h alpha_h P_h = I by P_g and taking traces gives
    r_g = sum_h alpha_h tr(P_g P_h). Here tr(P_g P_h) is r_g if g <= h and
    r_h if h < g, and lies in [max(0, r_g + r_h - n), min(r_g, r_h)] if g
    and h are incomparable. A profile whose interval misses some r_g
    carries no family. Only the axioms are used, no chain theory. Each g
    is one pass over the whole (m, k) profile array, so the working memory
    is a few times that array, where an (m, k, k) broadcast needs k times.
    """
    els = p.elements
    k = len(els)
    r = np.asarray(profiles, dtype=float).reshape(-1, k)
    w = np.array([chi[g] for g in els])
    less = np.array([[p.less(g, h) for h in els] for g in els], dtype=bool)
    comparable = less | less.T | np.eye(k, dtype=bool)
    ok = np.ones(len(r), dtype=bool)
    for i in range(k):
        rg = r[:, i:i + 1]
        fixed = np.where(less[i], rg, r)
        lo = np.where(comparable[i], fixed, np.maximum(rg + r - dimension, 0.0)) @ w
        hi = np.where(comparable[i], fixed, np.minimum(rg, r)) @ w
        ok &= (lo <= r[:, i] + PROFILE_SLACK) & (r[:, i] <= hi + PROFILE_SLACK)
    return ok


def norm_feasible(p, chi, profiles, dimension):
    """Mask of the rank profiles that pass the norm bounds.

    Kernel bound: if sum_T alpha_g < 1, then on the common kernel of the
    P_g outside T, sum_T alpha_g P_g is the identity yet has norm below 1,
    so that kernel is 0 and sum_{g not in T} r_g >= n. Image bound: if
    sum_S alpha_g > 1, then on the common image of the P_g in S the rest of
    the sum would be (1 - sum_S alpha_g) I, negative yet positive
    semidefinite, so that image is 0 and sum_S r_g <= (|S| - 1) n. With U
    the complement of T, both say that a set of small size weighs little:
    a U whose ranks sum to at most n - 1 weighs at most total - 1, and an S
    whose co-ranks n - r_g sum to at most n - 1 weighs at most 1. The
    heaviest such set is a 0/1 knapsack of capacity n - 1 over the integer
    ranks, solved exactly for all the profiles at once, so no subset is
    listed. Only the axioms are used, no chain theory.
    """
    els = p.elements
    w = np.array([chi[g] for g in els])
    r = np.asarray(profiles, dtype=np.intp).reshape(-1, len(els))
    n = dimension
    ok = np.ones(len(r), dtype=bool)
    # flat index of capacity c in each row of a (rows, 2n) table whose
    # first n columns are -inf, so a set that does not fit never wins
    at = 2 * n * np.arange(len(r))[:, None] + n + np.arange(n)
    for sizes, most in ((r, w.sum() - 1.0), (n - r, 1.0)):
        # best[:, n + c]: the most weight of a set whose sizes sum to at most c
        best = np.zeros((len(r), 2 * n))
        best[:, :n] = -np.inf
        for j, wj in enumerate(w):
            took = best.ravel()[at - sizes[:, j:j + 1]] + wj
            np.maximum(best[:, n:], took, out=best[:, n:])
        ok &= best[:, -1] <= most + PROFILE_SLACK
    return ok


def orbit_first(p, chi, profiles, dimension):
    """Mask of the first rank profile, in scan order, of each orbit.

    Twins are elements of equal weight with the same strict up-set and
    down-set, so they are incomparable. Swapping the projections of two
    twins keeps every axiom and irreducibility, and maps the families of a
    profile onto those of the profile with the twins' ranks swapped. On an
    antichain whose weights sum to 2, P_g -> I - P_g does the same for the
    profiles r and dimension - r: the I - P_g are projections with
    sum alpha_g (I - P_g) = 2I - I = I and the same commutant. So one
    profile of each orbit decides whether the orbit carries a family. Ranks
    sorted within each class of twins name a twin orbit, and the least of
    the names of r and dimension - r names a complement pair; the first row
    of each name is kept.
    """
    els = p.elements
    k = len(els)
    r = np.array(profiles, dtype=np.intp).reshape(len(profiles), k)
    # the weights sum to 2 up to their rounding
    mirror = not p.relations and abs(math.fsum(chi[g] for g in els) - 2) <= k * 2 ** -52
    classes = {}
    for i, g in enumerate(els):
        classes.setdefault((chi[g], p.up_set(g), p.down_set(g)), []).append(i)
    twins = [c for c in classes.values() if len(c) > 1]
    if not twins and not mirror:
        return np.ones(len(r), dtype=bool)
    names = [r, dimension - r] if mirror else [r]
    for name, c in itertools.product(names, twins):
        name[:, c] = np.sort(name[:, c], axis=1)
    if mirror:
        # the row-wise lexicographic minimum: the first column that differs decides
        lo, hi = names
        first = (lo != hi).argmax(axis=1)[:, None]
        r = np.where(np.take_along_axis(hi < lo, first, axis=1), hi, lo)
    keep = np.zeros(len(r), dtype=bool)
    keep[np.unique(r, axis=0, return_index=True)[1]] = True
    return keep


def _random_projection(rng, n, rank):
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    if rank == n:
        return np.eye(n, dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(z)[0][:, :rank]
    return q @ q.conj().T


def _lane(cfg, start):
    """One lane of alternating projections with Anderson mixing, from start.

    A coroutine on flat real states: it yields each point it wants swept,
    is sent back (projections, residual) of that point, and returns (exit,
    projections or None). exit is "accepted", "step_tol", "stall" or
    "max_iterations", and projections are those of the accepted point.
    """
    x = start
    # the last `depth` steps of x and of f, newest last, one per column
    steps_x, steps_f = np.zeros((2, len(start), ANDERSON_MEMORY))
    depth, x_prev, f_prev = 0, None, None
    window = np.inf
    kept = None
    for it in range(cfg.max_iterations):
        swept, res = kept if kept is not None else (yield x)
        kept = None
        if res <= ACCEPT_TOL:
            return "accepted", swept
        image = swept.ravel().view(float)
        f = image - x
        if np.abs(f).max() < cfg.step_tol:
            return "step_tol", None
        if (it + 1) % STALL_WINDOW == 0:
            # plateau: projections are cycling around an infeasible profile
            if res > STALL_FACTOR * window:
                return "stall", None
            window = res
        if f_prev is not None:
            steps_x[:, :-1], steps_f[:, :-1] = steps_x[:, 1:], steps_f[:, 1:]
            steps_x[:, -1], steps_f[:, -1] = x - x_prev, f - f_prev
            depth = min(depth + 1, ANDERSON_MEMORY)
        x_prev, f_prev = x, f
        if depth:
            # extrapolate through the recent steps, kept only if it lowers
            # the residual; else the history goes and the image is next
            basis = steps_f[:, -depth:]
            gamma = np.linalg.lstsq(basis, f, rcond=None)[0]
            candidate = image - (steps_x[:, -depth:] + basis) @ gamma
            trial = yield candidate
            if trial[1] < res:
                x, kept = candidate, trial
                continue
            depth, x_prev, f_prev = 0, None, None
        x = image
    return "max_iterations", None


def _run_lanes(p, chi, cfg, lanes, width=1):
    """_lane from random starts, in a pool of width, 2 width, ... up to LANE_POOL lanes.

    lanes lists (pidx, ranks); a lane runs on each, for each restart, in
    (restart, entry) order from the seed [seed, pidx, restart]. Each step
    stacks the points the lanes in the pool ask for and sweeps them at
    once, and a lane that returns makes room for the next. Yields an
    _Outcome per lane in scan order: pidx, restart, exit, family (None
    unless accepted), report (check_all's, run only on a family as it is
    yielded, never on a lane not read) and the lanes started so far. At
    width 1 the first lane runs alone, as a search often stops at it; each
    time the caller resumes past a yielded outcome, the pool doubles, up
    to LANE_POOL, so a search that stops early starts few lanes it never
    reads. A search expected to read every lane starts at width LANE_POOL.
    Every step of the sweep is a stack of per-lane, per-matrix operations,
    so a lane computes the same bits in any pool.
    """
    # no lane, no pool: the state below is allocated before the first lane
    if not lanes:
        return
    els = p.elements
    k, n = len(els), cfg.dimension
    index = {g: i for i, g in enumerate(els)}
    alpha = np.array([chi[g] for g in els])
    scale = (alpha / sum(a * a for a in alpha))[:, None, None]
    alpha = alpha[:, None, None]
    eye = np.eye(n, dtype=complex)
    parents = [[index[h] for h in sorted(h for gg, h in p.hasse if gg == g)]
               for g in els]
    # squeeze step j maps each element with more than j parents through its
    # j-th parent
    squeezes = []
    for j in range(max(map(len, parents))):
        children = [i for i in range(k) if len(parents[i]) > j]
        squeezes.append((children, [parents[i][j] for i in children]))
    # P_g P_h - P_g over every relation g < h
    lo, hi = np.array([(index[g], index[h]) for g, h in p.relations],
                      dtype=np.intp).reshape(-1, 2).T

    def sweep(y, full, mid, groups):
        """Projections after one pass from the flat states y, and their residuals.

        full and mid index the (lane, element) pairs of rank n and of rank
        strictly between 0 and n, mid sorted by rank; groups holds (rank,
        start, stop) for each run of mid.
        """
        m = y.view(complex).reshape(len(y), k, n, n)
        proj = (m + m.conj().transpose(0, 1, 3, 2)) / 2.0
        free = proj - scale * ((alpha * proj).sum(axis=1)[:, None] - eye)
        # every element is squeezed by its parents before any is rounded:
        # a pass from the minimal elements up, children before parents,
        # finds each parent still unrounded; so all roundings share one eigh
        squeezed = free.copy() if squeezes else free
        for children, via in squeezes:
            h = free[:, via]
            squeezed[:, children] = h @ squeezed[:, children] @ h
        out = np.zeros_like(free)
        flat = out.reshape(-1, n, n)
        flat[full] = eye
        if len(mid):
            # nearest projection of the prescribed rank to each Hermitian
            # part; free is Hermitian to the bit, a squeezed part is not
            m = squeezed.reshape(-1, n, n)[mid]
            if squeezes:
                m = (m + m.conj().transpose(0, 2, 1)) / 2.0
            vecs = np.linalg.eigh(m)[1]
            for rank, start, stop in groups:
                v = vecs[start:stop, :, n - rank:]
                m[start:stop] = v @ v.conj().transpose(0, 2, 1)
            flat[mid] = m
        res = np.maximum(
            np.abs((alpha * out).sum(axis=1) - eye).max(axis=(1, 2)),
            np.abs(out @ out - out).max(axis=(1, 2, 3)))
        if len(lo):
            np.maximum(res, np.abs(out[:, lo] @ out[:, hi] - out[:, lo])
                       .max(axis=(1, 2, 3)), out=res)
        return out, res

    pool = []  # (scan index, ranks, lane, the point it asks for)
    done = {}  # exits of lanes that the scan has not reached yet
    source = itertools.product(range(cfg.restarts), lanes)
    started = scanned = 0
    changed = True
    while True:
        while scanned in done:
            reason, fam = done.pop(scanned)
            restart, entry = divmod(scanned, len(lanes))
            yield _Outcome(lanes[entry][0], restart, reason, fam,
                           None if fam is None else check_all(fam, ACCEPT_TOL), started)
            # the caller passed this lane by, so the search goes on
            width = min(2 * width, LANE_POOL)
            scanned += 1
        while len(pool) < width:
            nxt = next(source, None)
            if nxt is None:
                break
            restart, (pidx, ranks) = nxt
            rng = np.random.default_rng([cfg.seed, pidx, restart])
            lane = _lane(cfg, np.stack([_random_projection(rng, n, r)
                                        for r in ranks]).ravel().view(float))
            pool.append((started, ranks, lane, next(lane)))
            started += 1
            changed = True
        if not pool:
            return
        if changed:
            pair_ranks = np.array([ranks for _, ranks, _, _ in pool]).ravel()
            full = np.flatnonzero(pair_ranks == n)
            mid = np.flatnonzero((pair_ranks > 0) & (pair_ranks < n))
            mid = mid[np.argsort(pair_ranks[mid], kind="stable")]
            values, starts = np.unique(pair_ranks[mid], return_index=True)
            groups = list(zip(values.tolist(), starts.tolist(),
                              starts[1:].tolist() + [len(mid)]))
        swept, res = sweep(np.stack([point for *_, point in pool]),
                           full, mid, groups)
        live = []
        for (i, ranks, lane, _), row, r in zip(pool, swept, res):
            try:
                # a copy: a view would keep the whole pool's sweep alive
                live.append((i, ranks, lane, lane.send((row.copy(), r))))
            except StopIteration as stop:
                reason, proj = stop.value
                done[i] = (reason, None if proj is None else
                           ProjectionFamily(p, chi, dict(zip(els, proj))))
        pool, changed = live, len(live) < len(pool)


def _lane_cap(k, n, restarts):
    "kept > cap exactly when restarts x kept > MAX_LANES or x k n^3 > MAX_LANE_WORK"
    return min(MAX_LANES, MAX_LANE_WORK // max(1, k * n ** 3)) // restarts


def _lanes(p, chi, cfg):
    """(profiles listed, profiles that pass trace_feasible, profiles that
    also pass norm_feasible, profiles of those that orbit_first keeps,
    [(pidx, ranks)] of those whose ranks are not all 0 or n at n >= 2).
    The filters run over blocks of the profiles in scan order and raise
    OracleError once the profiles kept pass _lane_cap, or once one is kept
    if the pool state would pass MAX_STATE_ENTRIES; orbit_first and the
    0-or-n drop come after, so they never change a refusal. Ranks all 0
    or n force every P_g to 0 or I, whose commutant is all of M_n, so at
    n >= 2 such a profile carries only reducible families."""
    k, n = len(p.elements), cfg.dimension
    if cfg.rank_profile is None:
        profiles = rank_profiles(p, chi, n)
    elif len(cfg.rank_profile) == k:
        profiles = np.array([cfg.rank_profile])
    else:
        raise OracleError("rank_profile has %d entries for %d elements"
                          % (len(cfg.rank_profile), k))
    cap = _lane_cap(k, n, cfg.restarts)
    state = LANE_POOL * (5 + 2 * ANDERSON_MEMORY) * 2 * k * n * n
    traced, kept = 0, []
    step = max(1, 2 ** 15 // n)  # norm_feasible's tables stay near 2^16 entries
    for start in range(0, len(profiles), step):
        block = profiles[start:start + step]
        passed = np.flatnonzero(trace_feasible(p, chi, block, n))
        traced += len(passed)
        kept += (start + passed[norm_feasible(p, chi, block[passed], n)]).tolist()
        if kept and state > MAX_STATE_ENTRIES:
            raise OracleError(
                "search on %r at dimension %d needs %d pool state entries, more "
                "than the limit of %d" % (list(p.elements), n, state, MAX_STATE_ENTRIES))
        if len(kept) > cap:
            raise OracleError(
                "search at dimension %d keeps more than %d rank profiles past "
                "the trace identity and the norm bounds, the cap at %d restarts "
                "under the limits of %d lanes and %d units of lane work "
                "(restarts x profiles x elements x n^3)"
                % (n, cap, cfg.restarts, MAX_LANES, MAX_LANE_WORK))
    firsts = np.array(kept, dtype=np.intp)[orbit_first(p, chi, profiles[kept], n)]
    ranks = profiles[firsts]
    lanes = firsts[~((ranks == 0) | (ranks == n)).all(axis=1)] if n > 1 else firsts
    return (len(profiles), traced, len(kept), len(firsts),
            [(int(pidx), profiles[pidx]) for pidx in lanes])


def search_numeric(p, chi, cfg, listing=None, expected=True):
    """First family found by rank-profile sweeps of alternating projections.

    The search reads _run_lanes' outcomes over the lanes of _lanes, in
    (restart, profile) order with the seed [seed, pidx, restart], pidx
    indexing the full profile list; profiles that fail trace_feasible or
    norm_feasible, that orbit_first drops, or whose ranks are all 0 or n
    at n >= 2 are skipped without changing any other lane. It returns the
    family of the first outcome that passes check_all and is irreducible.
    A search that _lanes refuses raises OracleError before any lane runs.
    listing is _lanes(p, chi, cfg) if the caller has already made it.
    expected=False says that the caller's theory expects no family, so the
    search will likely read every lane: its pool starts at LANE_POOL
    lanes, not 1. It changes only the schedule, never the answer.
    """
    listed, traced, normed, orbits, lanes = _lanes(p, chi, cfg) if listing is None else listing
    width = 1 if expected else LANE_POOL
    found, started = None, 0
    exits = dict.fromkeys(("accepted", "step_tol", "stall", "max_iterations"), 0)
    for out in _run_lanes(p, chi, cfg, lanes, width):
        exits[out.exit] += 1
        started = out.started
        if out.report is not None and out.report.passed and out.report.irreducible:
            found = out.family
            break
    # imported here: at the top it added 6 ms to every CLI call, solve included
    import logging
    logging.getLogger("orthoposet.oracle").debug(
        "search d=%d: %d profiles listed, %d refuted by the trace identity, "
        "%d by the norm bounds, %d by symmetry, %d as all 0 or n, pool of %d "
        "at first, %d lanes started, %d lanes run (%s), found=%s",
        cfg.dimension, listed, listed - traced, traced - normed, normed - orbits,
        orbits - len(lanes), width, started, sum(exits.values()),
        ", ".join("%d %s" % (v, k) for k, v in exits.items()), found is not None)
    return found


@dataclasses.dataclass
class CrossValidation:
    rows: list
    config: SearchConfig
    agree: bool = dataclasses.field(init=False)

    def __post_init__(self):
        self.agree = all(r["agree"] for r in self.rows)

    def to_dict(self):
        return dataclasses.asdict(self)


def _spectrum_matched(pred, eigs, predicted):
    for spec in predicted:
        if np.allclose(eigs, spec, atol=SPECTRUM_TOL, rtol=0.0):
            return True
    if len(eigs) == 2 and pred.two_point is not None:
        # continuous two-parameter series: a reflection pair inside Delta_1
        ctx = pred.context
        if abs(eigs[0] + eigs[1] - ctx.sigma1) > SPECTRUM_TOL:
            return False
        return all(membership(ctx.delta1, v, ctx.tol) == CONTINUOUS
                   for v in eigs)
    return False


def cross_validate(p1, chi1, p2, chi2, dims, cfg, tol=DEFAULT_TOL):
    """cross_validate_split on the disjoint union of two parts, split between them."""
    weights = {g: chi[g] for part, chi in ((p1, chi1), (p2, chi2))
               for g in part.elements if g in chi}
    return cross_validate_split(disjoint_union(p1, p2), Character(weights),
                                p1.elements, dims, cfg, tol)


def cross_validate_split(p, chi, split, dims, cfg, tol=DEFAULT_TOL):
    """Compare chain predictions with blind numerical search on p, per dimension."""
    # dimension -> sorted layer-one spectra of the predicted families; a key
    # present with an empty list marks the purely continuous series
    spectra = {}
    try:
        pred = predict(p, chi, split, tol)
    except NoRepresentation:
        pred = None
    else:
        for bits in pred.scalar:
            spectra.setdefault(1, []).append(
                [sum(chi[g] * b for g, b in zip(p.elements, bits) if g in split)])
        for ch in pred.chains:
            spectra.setdefault(ch.dimension, []).append(sorted(ch.lambdas))
        if pred.two_point is not None and pred.two_point.c_interval is not None:
            spectra.setdefault(2, [])
    # every dimension's lanes, listed once before the first search, so the
    # lane cap of the whole range is checked up front; the listing stops
    # at the first dimension refused
    searches = []
    for d in dims:
        c = dataclasses.replace(cfg, dimension=d)
        searches.append((d, c, _lanes(p, chi, c)))
    rows = []
    for d, c, listing in searches:
        predicted = spectra.get(d, [])
        theory = d in spectra
        fam = search_numeric(p, chi, c, listing=listing, expected=theory)
        found = fam is not None
        matched = None
        if found and pred is not None:
            eigs = np.sort(np.linalg.eigvalsh(fam.weighted_sum(split)))
            matched = _spectrum_matched(pred, eigs, predicted)
        rows.append({"dimension": d, "theory": theory, "oracle": found,
                     "agree": theory == found, "spectrum_matched": matched})
    return CrossValidation(rows, cfg)
