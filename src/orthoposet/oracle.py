"""Numerical existence oracle independent of the constructive route."""

import dataclasses
import itertools
import json

import numpy as np

from .builder import ProjectionFamily, disjoint_union
# enumerate_dim1 lives in chain and is re-exported here
from .chain import NoRepresentation, enumerate_dim1, predict
from .spectrum import CONTINUOUS, DEFAULT_TOL, Character, membership
from .verify import check_all

ACCEPT_TOL = 1e-10
PROFILE_SLACK = 1e-6
STALL_WINDOW = 50
STALL_FACTOR = 0.7
ANDERSON_MEMORY = 5
SPECTRUM_TOL = 1e-6
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


def _round_rank(m, rank):
    # nearest projection of the prescribed rank to a Hermitian matrix
    n = m.shape[0]
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    if rank == n:
        return np.eye(n, dtype=complex)
    v = np.linalg.eigh((m + m.conj().T) / 2.0)[1][:, n - rank:]
    return v @ v.conj().T


def _max_abs(m):
    return float(np.max(np.abs(m)))


def _search_once(p, chi, ranks, rng, cfg):
    """One run of alternating projections from a random start.

    The state is one complex array of shape (|G|, n, n) in element order;
    Anderson mixing works on its flat real view.
    """
    els = p.elements
    n = cfg.dimension
    index = {g: i for i, g in enumerate(els)}
    alpha = np.array([chi[g] for g in els])
    scale = (alpha / sum(a * a for a in alpha))[:, None, None]
    alpha = alpha[:, None, None]
    eye = np.eye(n, dtype=complex)
    parents = [[index[h] for h in sorted(h for gg, h in p.hasse if gg == g)]
               for g in els]
    # maximal elements first so children are squeezed into settled parents
    order = sorted(range(len(els)), key=lambda i: -len(p.up_set(els[i])))
    # P_g P_h - P_g over g = h (idempotence) and every relation g < h
    lo, hi = np.array([(i, i) for i in range(len(els))]
                      + [(index[g], index[h]) for g, h in p.relations]).T

    def sweep(x):
        """Projections after one pass from the flat state x, and their residual."""
        m = x.view(complex).reshape(len(els), n, n)
        proj = (m + m.conj().transpose(0, 2, 1)) / 2.0
        out = proj - scale * ((alpha * proj).sum(axis=0) - eye)
        for i in order:
            m = out[i]
            for h in parents[i]:
                m = out[h] @ m @ out[h]
            out[i] = _round_rank(m, ranks[i])
        res = max(_max_abs((alpha * out).sum(axis=0) - eye),
                  _max_abs(out[lo] @ out[hi] - out[lo]))
        return out, res

    x = np.stack([_random_projection(rng, n, r) for r in ranks]).ravel().view(float)
    steps_x, steps_f, x_prev, f_prev = [], [], None, None
    prev_window = np.inf
    kept = None
    for it in range(cfg.max_iterations):
        swept, res = kept if kept is not None else sweep(x)
        kept = None
        if res <= ACCEPT_TOL:
            break
        image = swept.ravel().view(float)
        f = image - x
        if _max_abs(f) < cfg.step_tol:
            break
        if (it + 1) % STALL_WINDOW == 0:
            if res > STALL_FACTOR * prev_window:
                # plateau: projections are cycling around an infeasible profile
                return None
            prev_window = res
        if f_prev is not None:
            steps_x.append(x - x_prev)
            steps_f.append(f - f_prev)
            if len(steps_x) > ANDERSON_MEMORY:
                steps_x.pop(0)
                steps_f.pop(0)
        x_prev, f_prev = x, f
        if steps_f:
            # extrapolate through the recent steps, keep only if it helps
            basis = np.stack(steps_f, axis=1)
            gamma = np.linalg.lstsq(basis, f, rcond=None)[0]
            candidate = image - (np.stack(steps_x, axis=1) + basis) @ gamma
            trial = sweep(candidate)
            if trial[1] < res:
                x, kept = candidate, trial
                continue
            steps_x, steps_f, x_prev, f_prev = [], [], None, None
        x = image
    if res > ACCEPT_TOL:
        return None
    return ProjectionFamily(p, chi, dict(zip(els, swept)))


def search_numeric(p, chi, cfg, require_irreducible=False):
    """First family found by rank-profile sweeps of alternating projections.

    Lanes run in (restart, profile) order with the seed [seed, pidx,
    restart], pidx indexing the full profile list; profiles that fail
    trace_feasible are skipped without changing any other lane.
    """
    for g in p.elements:
        if g not in chi:
            raise OracleError("missing weight for %r" % (g,))
    if cfg.rank_profile is not None:
        profiles = [cfg.rank_profile]
    else:
        profiles = rank_profiles(p, chi, cfg.dimension)
    feasible = trace_feasible(p, chi, profiles, cfg.dimension)
    lanes = [(pidx, ranks) for pidx, ranks in enumerate(profiles) if feasible[pidx]]
    found, runs = None, 0
    for restart, (pidx, ranks) in itertools.product(range(cfg.restarts), lanes):
        runs += 1
        rng = np.random.default_rng([cfg.seed, pidx, restart])
        fam = _search_once(p, chi, ranks, rng, cfg)
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
        "%d lanes run, found=%s", cfg.dimension, len(profiles),
        len(profiles) - len(lanes), runs, found is not None)
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

    def to_json(self):
        return json.dumps(self.to_dict())


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
    rows = []
    for d in dims:
        predicted = spectra.get(d, [])
        theory = d in spectra
        fam = search_numeric(p, chi, dataclasses.replace(cfg, dimension=d),
                             require_irreducible=True)
        found = fam is not None
        matched = None
        if found and pred is not None:
            eigs = np.sort(np.linalg.eigvalsh(fam.weighted_sum(split)))
            matched = _spectrum_matched(pred, eigs, predicted)
        rows.append({"dimension": d, "theory": theory, "oracle": found,
                     "agree": theory == found, "spectrum_matched": matched})
    return CrossValidation(rows, cfg)
