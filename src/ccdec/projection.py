"""Divergence projection onto a transportation polytope slice.

This module solves the constrained information projection

    minimize   D(mu || base)
    over       mu with mu_X = row,  mu_Y = col,  E_mu[score] >= threshold,

which is the core primitive behind mismatched- and generalized-decoder
achievable rates.  The feasible set is the transportation polytope with the
given marginals, cut by one linear inequality.

Solution structure
------------------
If the unconstrained minimizer (``base`` itself, assuming it carries the
required marginals) already satisfies the expectation constraint, the value
is 0.  Otherwise the constraint is active and Lagrangian duality gives the
minimizer an exponential-family form

    mu(a, b)  proportional to  u(a) * v(b) * base(a, b) * exp(lam * score(a, b))

with multiplier ``lam >= 0``.  For a fixed ``lam`` the potentials ``u, v``
are fitted by iterative proportional fitting (Sinkhorn scaling) so that the
marginals match; after fitting, ``E_mu[score]`` is nondecreasing in ``lam``,
so the active multiplier is bracketed by the probes ``lam = 1, 2, 4, ...``
up to the cap and located by bisection.  A probe within ``CONSTRAINT_TOL``
of the threshold ends the search; a matched metric ``log W0`` has the
multiplier 1 and stops at its first probe.  Otherwise the bisection ends
when the bracket is no wider than ``1e-15 max(1, hi)``, within 50 fits,
and a probe short at the cap leaves no bracket to bisect (``lo == hi``).

Log-domain fitting
------------------
All scaling runs in the log domain.  The kernel is ``base * exp(lam * score)``
with ``lam`` up to the cap ``1e4`` and scores that are log-probabilities, so
its entries span far more than the floating-point exponent range: a direct
kernel would overflow or flush whole rows to zero long before the multiplier
settles.  Each half-step is a log-sum-exp with the row (or column) maximum
shifted out, so the largest term is ``exp(0)`` and nothing overflows.  The
log-sum-exp is written out in numpy because the kernels are tiny (a few
letters a side): there, a general library routine spends several times the
arithmetic on per-call overhead, and the fit makes thousands of calls.

Lockstep fitting
----------------
``kl_projections`` solves many problems together.  Each problem runs its
own search (``_solve``: the checks, the reachability test, the bracket,
the bisection and the landing fit) as a generator that yields each fit it
needs: the kernel on its alive block, the marginals and the budget
``MAX_FIT_ITERS + 12 lam``.  Problems whose alive blocks share a shape take
one slot each of stacked ``(B, |X|, |Y|)`` arrays, and one scaling
iteration advances every unfinished fit at once (``_Slots``).  A finished
fit goes back to its generator, whose next kernel refills the slot in
place, warm-started from the slot's potentials.  Each fit still checks its
residual on its even iterations and on its last.  Every elementwise
operation and every reduction acts on a slot's entries as on a lone
problem's arrays, so each result is bit for bit the one the problem gets
alone, whatever else shares its batch; ``kl_projection`` is the
one-problem call.  The per-call numpy overhead of the tiny kernels is paid
once per iteration of the batch rather than once per problem.

Dead letters
------------
Rows with zero ``row`` mass and columns with zero ``col`` mass carry no mass in
any feasible joint.  They are removed once per call, the fit runs on the
alive block, and the minimizer is scattered back with zeros in the removed
rows and columns.  The fitted log-potentials therefore stay finite, and the
loop needs no special handling of ``-inf`` marginals.

Infeasibility
-------------
A threshold above the maximum of ``E_mu[score]`` over the polytope cannot be
met.  That maximum is a transportation linear program (``_polytope_max``, by
the numpy simplex that also solves the capacity master game); it is ``-inf``
when the support of ``base`` holds no joint with the required marginals.  A
threshold above it by more than ``INFEASIBLE_SLACK`` returns the ``+inf``
sentinel before any fit (not an exception: infima over constrained families
legitimately touch this boundary).  An active projection tests
reachability before any fit.  Where ``base`` has full support on the alive
block, the greedy matrix-maximum coupling (``_greedy_coupling``) is tried
first: it is a joint of the polytope, so when its ``E[score]`` reaches the
threshold, so does the maximum, and the LP is skipped.  Otherwise the LP
decides, and its value is read only when it proves the threshold
unreachable, so the skip changes no result.  ``E_mu[score]`` tends to the
maximum only as ``lam`` grows without bound, so a threshold within the
slack of it can still leave the multiplier at the cap short of the
threshold; that is the sentinel too.  A fit that stalls is a
``SolverError``; in a batch, the first stalled problem's error is raised
once the others finish.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .probability import SUPPORT_FLOOR, Distribution, Joint, _values

LAMBDA_CAP = 1e4
INFEASIBLE_SLACK = 1e-6
# Largest marginal mismatch a fit may return, and the expectation tolerance
# of the bisection.  Read at each call.
MARGINAL_TOL = 1e-10
CONSTRAINT_TOL = 1e-10
# Fit budget at lam = 0; it grows by 12 per unit of lam.
MAX_FIT_ITERS = 5000
_SHIFT_FLOOR = -np.finfo(float).max
# Smallest pivot entry, and reduced cost per unit of the largest cost, the simplex acts on.
_PIVOT_TOL = 1e-13


class SolverError(RuntimeError):
    """Raised when an iterative fit fails to converge."""


@dataclass
class ProjectionResult:
    """Outcome of ``kl_projection``.

    ``value`` is in nats (``math.inf`` when the constraint set is empty);
    ``minimizer`` is the optimal joint (None when infeasible).  The remaining
    fields are solver diagnostics.
    """

    value: float
    minimizer: Joint | None
    multiplier: float
    bisection_steps: int
    fit_iterations: int
    marginal_residual: float
    constraint_gap: float
    feasible: bool


def _simplex(cols, rhs, cost, basis: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Optimal ``y`` and prices of ``max cost.y  s.t.  cols y = rhs, y >= 0``.

    Primal simplex with Bland's rule from the feasible ``basis`` (one column
    per row, updated in place, so a caller can warm-start a later solve).
    The prices are the dual solution of the final basis.
    """
    gain_tol = _PIVOT_TOL * max(1.0, np.abs(cost).max())
    while True:
        basic = cols[:, basis]
        values = np.maximum(np.linalg.solve(basic, rhs), 0.0)
        prices = np.linalg.solve(basic.T, cost[basis])
        improving = np.flatnonzero(cost - prices @ cols > gain_tol)
        if not improving.size:
            break
        entering = improving[0]
        step = np.linalg.solve(basic, cols[:, entering])
        rows = np.flatnonzero(step > _PIVOT_TOL)
        ratios = values[rows] / step[rows]
        tied = rows[ratios <= ratios.min()]
        basis[min(tied, key=basis.__getitem__)] = entering
    y = np.zeros(cols.shape[1])
    y[basis] = values
    return y, prices


@functools.cache
def _transport_constraints(nx: int, ny: int) -> np.ndarray:
    """The transportation LP's constraint matrix: row sums, then every column sum but the last; read-only."""
    cols = np.vstack([np.kron(np.eye(nx), np.ones(ny)), np.kron(np.ones(nx), np.eye(ny))[:-1]])
    cols.flags.writeable = False
    return cols


def _polytope_max(support: np.ndarray, r: np.ndarray, c: np.ndarray, d: np.ndarray) -> float:
    """Maximum of ``E_mu[d]`` over joints with marginals (r, c) on the support.

    The transportation LP (one column per cell, the implied last column sum
    dropped) by ``_simplex`` from the north-west corner.  A cell off the
    support costs less than ``d.min()`` by more than any cycle of support
    cells can gain, so the optimum loads it only when the support holds no
    coupling; the polytope is then empty and its maximum ``-inf``.
    """
    nx, ny = d.shape
    cols = _transport_constraints(nx, ny)
    penalty = d.min() - (1.0 + 2.0 * min(nx, ny) * (d.max() - d.min()))
    cost = np.where(support, d, penalty).ravel()
    # The north-west corner walks from cell (0, 0), stepping down at each row's
    # end and right at each column's end, in the order of their cumulative mass.
    down = np.argsort(np.concatenate([np.cumsum(r)[:-1], np.cumsum(c)[:-1]]), kind="stable") < nx - 1
    basis = np.concatenate([[0], np.cumsum(down) * ny + np.cumsum(~down)]).tolist()
    y, _ = _simplex(cols, np.concatenate([r, c[:-1]]), cost, basis)
    if y[~support.ravel()].sum() > 1e-9:
        return -math.inf
    return float(d.ravel() @ y)


def _greedy_coupling(r: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """A joint with marginals (r, c) by the matrix-maximum rule: cells in decreasing ``d`` take what they can.

    Each cell, ties in row-major order, takes the smaller of the mass its
    row and its column still hold.  The result lies in the full-support
    polytope up to roundoff, so its ``E[d]`` exceeds ``_polytope_max`` by
    roundoff at most, far inside ``INFEASIBLE_SLACK``.
    """
    rows, cols = r.tolist(), c.tolist()
    mu = np.zeros(d.shape)
    for cell in np.argsort(-d, axis=None, kind="stable").tolist():
        i, j = divmod(cell, d.shape[1])
        mass = min(rows[i], cols[j])
        mu[i, j] = mass
        rows[i] -= mass
        cols[j] -= mass
    return mu


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(x), axis))`` with the maximum shifted out.

    A slice of all ``-inf`` gives ``-inf``: its shift is clamped to a finite
    floor, so its terms are exact zeros rather than ``-inf - -inf``.  Every
    other slice sums to at least 1 (its maximum contributes ``exp(0)``), so
    clamping the sum at 1 touches only the empty slices and keeps
    ``log(0)`` out.
    """
    m = np.maximum.reduce(x, axis=axis, keepdims=True)
    s = np.add.reduce(np.exp(x - np.maximum(m, _SHIFT_FLOOR)), axis=axis, keepdims=True)
    return (np.log(np.maximum(s, 1.0)) + m).squeeze(axis)


class _Slots:
    """The fits in flight of solvers whose alive blocks share one shape, one slot each.

    Slot ``s`` holds the current fit of problem ``owners[s]``, whose solver
    is ``solvers[s]``: its log-kernel, marginals and log-potentials, the
    iterations made and the budget.  The potentials stay in the slot from
    one fit of a solver to its next, which is the warm start of the
    multiplier search.
    """

    def __init__(self, owners, waiting):
        solvers, requests = zip(*waiting)
        kernels, rs, cs, budgets = zip(*requests)
        self.owners, self.solvers = list(owners), list(solvers)
        self.kernel = np.stack(kernels)
        self.r, self.c = np.stack(rs), np.stack(cs)
        self.log_r, self.log_c = np.log(self.r), np.log(self.c)
        self.u, self.v = np.zeros_like(self.r), np.zeros_like(self.c)
        self.it = np.zeros(len(budgets), dtype=int)
        self.budget = np.array(budgets)

    def refill(self, s: int, request) -> None:
        self.kernel[s], _, _, self.budget[s] = request
        self.it[s] = 0

    def drop(self, gone) -> None:
        kept = [s for s in range(len(self.owners)) if s not in gone]
        self.owners = [self.owners[s] for s in kept]
        self.solvers = [self.solvers[s] for s in kept]
        for name in ("kernel", "r", "c", "log_r", "log_c", "u", "v", "it", "budget"):
            setattr(self, name, getattr(self, name)[kept])

    def step(self):
        """One scaling iteration of every slot.

        Returns the slots whose fits end, with every slot's joint and
        residual.  A fit checks its residual on its even iterations and on
        its last, as a lone fit would, and ends when the residual is within
        ``MARGINAL_TOL`` or at its last iteration.
        """
        self.it += 1
        self.u = self.log_r - _logsumexp(self.kernel + self.v[:, None, :], axis=2)
        self.v = self.log_c - _logsumexp(self.kernel + self.u[:, :, None], axis=1)
        last = self.it == self.budget
        due = last | (self.it % 2 == 0)
        if not due.any():
            return (), None, None
        mu = np.exp(self.kernel + self.u[:, :, None] + self.v[:, None, :])
        resid = np.maximum(
            np.abs(mu.sum(axis=2) - self.r).max(axis=1),
            np.abs(mu.sum(axis=1) - self.c).max(axis=1),
        )
        return np.flatnonzero((due & (resid <= MARGINAL_TOL)) | last), mu, resid


def _lockstep(waiting: dict, results: list) -> None:
    """Run the fits that the ``waiting`` solvers request until each returns its result.

    ``waiting`` maps a problem's index to its solver and first fit request.
    Solvers whose alive blocks share a shape share one ``_Slots``; a
    finished fit is sent back to its solver, whose next request refills the
    slot in place.  A fit that stalls ends its solver, and after the rest
    finish the first such problem's ``SolverError`` is raised.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (_, request) in waiting.items():
        groups.setdefault(request[0].shape, []).append(i)
    errors = {}
    for members in groups.values():
        slots = _Slots(members, [waiting[i] for i in members])
        while slots.owners:
            ended, mu, resid = slots.step()
            gone = []
            for s in ended:
                if not resid[s] <= MARGINAL_TOL:
                    errors[slots.owners[s]] = SolverError(
                        f"marginal fitting stalled: residual {resid[s]:.3e} after {slots.budget[s]} iterations"
                    )
                    gone.append(s)
                    continue
                try:
                    slots.refill(s, slots.solvers[s].send((mu[s], int(slots.it[s]), resid[s])))
                except StopIteration as done:
                    results[slots.owners[s]] = done.value
                    gone.append(s)
            if gone:
                slots.drop(gone)
    if errors:
        raise errors[min(errors)]


def _solve(base: Joint, row: Distribution | np.ndarray, col: Distribution | np.ndarray, score, threshold: float):
    """One projection as a generator over its fits; see ``kl_projection``.

    It yields each fit it needs as ``(log_kernel, r, c, budget)`` on the
    alive block, is sent back the fitted joint, the fit's iterations and its
    marginal residual, and returns the ``ProjectionResult``.  Inactive and
    LP-unreachable problems return before any fit.
    """
    b = base.matrix
    r = _values(row)
    c = _values(col)
    d = np.asarray(score, dtype=float)
    if d.shape != b.shape:
        raise ValueError(f"score shape {d.shape} does not match base {b.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("score entries must be finite")
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")

    base_expect = float(np.sum(b * d))
    if base_expect >= threshold:
        # Constraint inactive: base itself is optimal.
        return ProjectionResult(
            value=0.0,
            minimizer=base,
            multiplier=0.0,
            bisection_steps=0,
            fit_iterations=0,
            marginal_residual=0.0,
            constraint_gap=base_expect - threshold,
            feasible=True,
        )

    # Dead letters by exact positivity, not the display floor: a tiny-but-alive
    # marginal must keep its kernel row or the scaling equations turn inconsistent.
    rows, cols = r > 0.0, c > 0.0
    alive = np.ix_(rows, cols)
    b, d, r, c = b[alive], d[alive], r[rows], c[cols]
    total_fit_iters = 0

    def infeasible(expect, resid):
        return ProjectionResult(
            value=math.inf,
            minimizer=None,
            multiplier=LAMBDA_CAP,
            bisection_steps=0,
            fit_iterations=total_fit_iters,
            marginal_residual=resid,
            constraint_gap=expect - threshold,
            feasible=False,
        )

    support = b > 0.0
    # A greedy coupling that reaches the threshold proves it reachable; the LP's
    # value is read only when it proves the opposite.
    if not (support.all() and float(np.sum(_greedy_coupling(r, c, d) * d)) >= threshold):
        reachable = _polytope_max(support, r, c, d)
        if threshold > reachable + INFEASIBLE_SLACK:
            # The threshold exceeds the maximum of the functional over the polytope.
            return infeasible(reachable, 0.0)

    with np.errstate(divide="ignore"):
        log_b = np.log(b)

    def fit(lam):
        # The scaling slows down as the kernel concentrates; grow the budget.
        nonlocal total_fit_iters
        mu, its, resid = yield log_b + lam * d, r, c, MAX_FIT_ITERS + int(12.0 * lam)
        total_fit_iters += its
        return mu, float(np.sum(mu * d)), resid

    # Bracket the active multiplier: double it until E(lam) clears the threshold
    # or meets it within the bisection's own tolerance.  A matched metric's first
    # probe, lam = 1, is the exact multiplier up to roundoff.  A probe short at
    # the cap closes the bracket there (lo == hi), so no bisection follows.
    lo, hi = 0.0, 1.0
    while True:
        mu, expect, resid = yield from fit(hi)
        if expect >= threshold - CONSTRAINT_TOL:
            break
        lo = hi
        if hi >= LAMBDA_CAP:
            break
        hi = min(2.0 * hi, LAMBDA_CAP)

    if expect < threshold - INFEASIBLE_SLACK:
        # Short at the cap: within the slack of the maximum, yet out of the multiplier's reach.
        return infeasible(expect, resid)

    # Bisection on the monotone map lam -> E(lam); ``steps`` counts its fits.  The
    # width rule ends it within 50: the bracket starts no wider than max(1, lo).
    steps = 0
    lam = hi
    while abs(expect - threshold) > CONSTRAINT_TOL and hi - lo > 1e-15 * max(1.0, hi):
        steps += 1
        lam = 0.5 * (lo + hi)
        mu, expect, resid = yield from fit(lam)
        if expect >= threshold:
            hi = lam
        else:
            lo = lam
    if lam < hi:
        # The last fit fell short: land on the feasible side of the bracket.
        mu, expect, resid = yield from fit(hi)
        lam = hi

    on = mu > SUPPORT_FLOOR
    log_ratio = np.log(np.where(on, mu, 1.0)) - np.where(on, log_b, 0.0)
    value = max(0.0, float(np.sum(np.where(on, mu * log_ratio, 0.0))))
    full = np.zeros_like(base.matrix)
    full[alive] = np.maximum(mu, 0.0) / mu.sum()
    minimizer = Joint(full)
    return ProjectionResult(
        value=value,
        minimizer=minimizer,
        multiplier=lam,
        bisection_steps=steps,
        fit_iterations=total_fit_iters,
        marginal_residual=resid,
        constraint_gap=float(expect - threshold),
        feasible=True,
    )


def kl_projections(problems) -> list[ProjectionResult]:
    """``kl_projection`` of each ``(base, row, col, score, threshold)`` in ``problems``, fitted in lockstep.

    Each result is the one a lone ``kl_projection`` call returns, bit for
    bit: a problem keeps its own multiplier search, and only the scaling
    iterations of its fits share stacked arrays with the other problems'.
    """
    results: list = []
    waiting = {}
    for i, problem in enumerate(problems):
        solver = _solve(*problem)
        try:
            waiting[i] = (solver, next(solver))
            results.append(None)
        except StopIteration as done:
            results.append(done.value)
    if waiting:
        _lockstep(waiting, results)
    return results


def kl_projection(
    base: Joint,
    row: Distribution | np.ndarray,
    col: Distribution | np.ndarray,
    score,
    threshold: float,
) -> ProjectionResult:
    """Project ``base`` onto {mu : mu_X = row, mu_Y = col, E_mu[score] >= threshold}.

    Parameters
    ----------
    base : Joint
        Reference joint; the caller normally passes the product distribution
        ``mu0^p`` whose marginals are exactly (row, col).
    row, col : Distribution or array_like
        Required X and Y marginals of the feasible joints.
    score : array_like
        |X| x |Y| score matrix (finite entries).
    threshold : float
        Lower bound on ``E_mu[score]``.

    Returns
    -------
    ProjectionResult
        ``value = inf D(mu || base)`` with a minimizer, or the ``+inf``
        sentinel when the constraint set is empty.  The one-problem case of
        ``kl_projections``.
    """
    return kl_projections([(base, row, col, score, threshold)])[0]
