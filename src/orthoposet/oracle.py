"""Numerical existence oracle independent of the constructive route."""

import dataclasses
import itertools

import numpy as np
from numpy.linalg import _umath_linalg

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
# restarts x surviving profiles; the largest search the tests and the
# benchmark run has 1,024 lanes
MAX_LANES = 4096
# rows of the rank-prefix grid; the largest grid the tests and the benchmark
# build has 314,154 (eight elements at dimension 8)
MAX_PROFILE_ROWS = 2 ** 22


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


def rank_profiles(p, chi, dimension):
    """Monotone rank tuples with the exact weighted trace.

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
    order = np.lexsort(tuple(grid[:, i] for i in range(k - 1, -1, -1))
                       + (slack,))
    return [tuple(int(r) for r in row) for row in grid[order]]


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


def _random_projection(rng, n, rank):
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    if rank == n:
        return np.eye(n, dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(z)[0][:, :rank]
    return q @ q.conj().T


def _svd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(a, b):
    """np.linalg.lstsq(a, b, rcond=None)[0] over stacks a (..., N, m), b (..., N, 1).

    np.linalg.lstsq takes 2-D operands only. The gufunc it calls broadcasts
    over stacks and solves each matrix bit for bit as lstsq does, so the
    lanes of one history depth share one call.
    """
    rcond = np.finfo(float).eps * max(a.shape[-2:])
    with np.errstate(call=_svd_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.lstsq(a, b, rcond, signature="ddd->ddid")[0]


def _run_lanes(p, chi, cfg, lanes):
    """Alternating projections from random starts, LANE_POOL lanes at a time.

    lanes yields (ranks, rng) in scan order. The lanes in the pool share one
    (lanes, |G|, n, n) state, and Anderson mixing works on its flat real
    view, one row per lane. A lane leaves the pool on its own exit and the
    next one enters. Yields (exit, family) for every lane in scan order;
    exit is "accepted", "step_tol", "stall" or "max_iterations", and family
    is None unless accepted. Every step is a stack of per-lane, per-matrix
    operations, so a lane computes the same bits in any pool.
    """
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
    # P_g P_h - P_g over g = h (idempotence) and every relation g < h
    lo, hi = np.array([(i, i) for i in range(k)]
                      + [(index[g], index[h]) for g, h in p.relations]).T

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
            # nearest projection of the prescribed rank to each Hermitian part
            m = squeezed.reshape(-1, n, n)[mid]
            vecs = np.linalg.eigh((m + m.conj().transpose(0, 2, 1)) / 2.0)[1]
            for rank, start, stop in groups:
                v = vecs[start:stop, :, n - rank:]
                m[start:stop] = v @ v.conj().transpose(0, 2, 1)
            flat[mid] = m
        res = np.maximum(
            np.abs((alpha * out).sum(axis=1) - eye).max(axis=(1, 2)),
            np.abs(out[:, lo] @ out[:, hi] - out[:, lo]).max(axis=(1, 2, 3)))
        return out, res

    size, pool, memory = 2 * k * n * n, LANE_POOL, ANDERSON_MEMORY
    # per slot; the lanes in the pool hold slots 0 .. active - 1
    lane = np.zeros(pool, dtype=int)  # scan index
    ranks = np.zeros((pool, k), dtype=int)
    # x is the iterate and y the point the next sweep takes: x itself, or
    # an Anderson trial when trial is set
    x, y, x_prev, f_prev, image = np.zeros((5, pool, size))
    # the last `depth` Anderson steps, newest last; depth -1: no previous step
    steps_x, steps_f = np.zeros((2, pool, memory, size))
    depth = np.zeros(pool, dtype=int)
    trial = np.zeros(pool, dtype=bool)
    res, window = np.zeros(pool), np.zeros(pool)
    iterations = np.zeros(pool, dtype=int)
    slots = (lane, ranks, x, y, x_prev, f_prev, image, steps_x, steps_f,
             depth, trial, res, window, iterations)
    done = {}  # exits of lanes that the scan has not reached yet
    source = iter(lanes)
    active = entered = scanned = 0
    changed = True
    while True:
        while scanned in done:
            yield done.pop(scanned)
            scanned += 1
        while active < pool:
            nxt = next(source, None)
            if nxt is None:
                break
            s, (lane_ranks, rng) = active, nxt
            lane[s], ranks[s] = entered, lane_ranks
            x[s] = y[s] = np.stack([_random_projection(rng, n, r)
                                    for r in lane_ranks]).ravel().view(float)
            depth[s], trial[s], window[s], iterations[s] = -1, False, np.inf, 0
            active, entered, changed = active + 1, entered + 1, True
        if not active:
            return
        if changed:
            pair_ranks = ranks[:active].ravel()
            full = np.flatnonzero(pair_ranks == n)
            mid = np.flatnonzero((pair_ranks > 0) & (pair_ranks < n))
            mid = mid[np.argsort(pair_ranks[mid], kind="stable")]
            values, starts = np.unique(pair_ranks[mid], return_index=True)
            groups = list(zip(values.tolist(), starts.tolist(),
                              starts[1:].tolist() + [len(mid)]))
            changed = False
        swept, r = sweep(y[:active], full, mid, groups)
        # a trial that does not lower the residual is dropped with the
        # history, and the image it extrapolated from is swept next
        worse = trial[:active] & ~(r < res[:active])
        s = np.flatnonzero(~worse)
        if len(s) < active:
            back = np.flatnonzero(worse)
            x[back] = y[back] = image[back]
            depth[back], trial[back] = -1, False
            swept, r = swept[s], r[s]
        # one iteration for the rest; a kept trial becomes the iterate
        x[s] = y[s]
        img = swept.reshape(len(s), k * n * n).view(float)
        f = img - x[s]
        iterations[s] += 1
        accepted = r <= ACCEPT_TOL
        small = np.abs(f).max(axis=1) < cfg.step_tol
        check = iterations[s] % STALL_WINDOW == 0
        # plateau: projections are cycling around an infeasible profile
        stalled = check & (r > STALL_FACTOR * window[s])
        window[s[check]] = r[check]
        maxed = iterations[s] >= cfg.max_iterations
        ended = accepted | small | stalled | maxed
        gone = s[ended]
        if len(gone):
            for j in np.flatnonzero(ended):
                reason = ("accepted" if accepted[j] else "step_tol" if small[j]
                          else "stall" if stalled[j] else "max_iterations")
                # a copy: a view would keep the whole pool's sweep alive
                fam = (ProjectionFamily(p, chi, dict(zip(els, swept[j].copy())))
                       if accepted[j] else None)
                done[int(lane[s[j]])] = (reason, fam)
            s, f, img, r = s[~ended], f[~ended], img[~ended], r[~ended]
        grow = depth[s] >= 0
        g = s[grow]
        new_x, new_f = x[g] - x_prev[g], f[grow] - f_prev[g]
        steps_x[g, :-1], steps_f[g, :-1] = steps_x[g, 1:], steps_f[g, 1:]
        steps_x[g, -1], steps_f[g, -1] = new_x, new_f
        depth[s] = np.minimum(depth[s] + 1, memory)
        x_prev[s], f_prev[s], image[s], res[s] = x[s], f, img, r
        mixing = depth[s] > 0
        trial[s] = mixing
        plain = s[~mixing]
        x[plain] = y[plain] = img[~mixing]
        for m in set(depth[s[mixing]].tolist()):
            # extrapolate through the recent steps, kept only if it helps
            sel = mixing & (depth[s] == m)
            g = s[sel]
            mix = steps_f[g, -m:]
            gamma = _lstsq(mix.transpose(0, 2, 1), f[sel, :, None])
            mix += steps_x[g, -m:]
            # the contiguous copy keeps each product's bits those of one lane
            y[g] = img[sel] - np.matmul(
                np.ascontiguousarray(mix.transpose(0, 2, 1)), gamma)[:, :, 0]
        if len(gone):
            # the last lanes fill the freed slots
            for j in gone[::-1]:
                active -= 1
                if j != active:
                    for a in slots:
                        a[j] = a[active]
            changed = True


def _search_once(p, chi, ranks, rng, cfg):
    """One lane of _run_lanes: the family its start reaches, or None."""
    return next(_run_lanes(p, chi, cfg, [(ranks, rng)]))[1]


def _lanes(p, chi, cfg):
    """(profiles listed, [(pidx, ranks)] that pass trace_feasible); raises
    OracleError on a missing weight or a search over MAX_LANES lanes."""
    for g in p.elements:
        if g not in chi:
            raise OracleError("missing weight for %r" % (g,))
    if cfg.rank_profile is not None:
        profiles = [cfg.rank_profile]
    else:
        profiles = rank_profiles(p, chi, cfg.dimension)
    feasible = trace_feasible(p, chi, profiles, cfg.dimension)
    lanes = [(pidx, ranks) for pidx, ranks in enumerate(profiles) if feasible[pidx]]
    if cfg.restarts * len(lanes) > MAX_LANES:
        raise OracleError(
            "search at dimension %d needs %d lanes (%d restarts x %d rank "
            "profiles left by the trace identity), more than the limit of %d"
            % (cfg.dimension, cfg.restarts * len(lanes), cfg.restarts,
               len(lanes), MAX_LANES))
    return len(profiles), lanes


def search_numeric(p, chi, cfg, require_irreducible=False):
    """First family found by rank-profile sweeps of alternating projections.

    Lanes run in (restart, profile) order with the seed [seed, pidx,
    restart], pidx indexing the full profile list; profiles that fail
    trace_feasible are skipped without changing any other lane. The scan
    takes the first lane whose family passes check_all. A search of more
    than MAX_LANES lanes raises OracleError before any lane runs.
    """
    return _search(p, chi, cfg, _lanes(p, chi, cfg), require_irreducible)


def _search(p, chi, cfg, listing, require_irreducible):
    "search_numeric over listing, the result of _lanes(p, chi, cfg)"
    listed, lanes = listing
    starts = ((ranks, np.random.default_rng([cfg.seed, pidx, restart]))
              for restart, (pidx, ranks)
              in itertools.product(range(cfg.restarts), lanes))
    found, runs = None, 0
    for _, fam in _run_lanes(p, chi, cfg, starts):
        runs += 1
        if fam is None:
            continue
        report = check_all(fam, ACCEPT_TOL)
        if report.passed and (report.irreducible or not require_irreducible):
            found = fam
            break
    # imported here: at the top it added 6 ms to every CLI call, solve included
    import logging
    logging.getLogger("orthoposet.oracle").debug(
        "search d=%d: %d profiles listed, %d refuted by the trace identity, "
        "%d lanes run, found=%s", cfg.dimension, listed,
        listed - len(lanes), runs, found is not None)
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
    # lane budget of the whole range is checked up front
    configs = [dataclasses.replace(cfg, dimension=d) for d in dims]
    listings = [_lanes(p, chi, c) for c in configs]
    rows = []
    for d, c, listing in zip(dims, configs, listings):
        predicted = spectra.get(d, [])
        theory = d in spectra
        fam = _search(p, chi, c, listing, require_irreducible=True)
        found = fam is not None
        matched = None
        if found and pred is not None:
            eigs = np.sort(np.linalg.eigvalsh(fam.weighted_sum(split)))
            matched = _spectrum_matched(pred, eigs, predicted)
        rows.append({"dimension": d, "theory": theory, "oracle": found,
                     "agree": theory == found, "spectrum_matched": matched})
    return CrossValidation(rows, cfg)
