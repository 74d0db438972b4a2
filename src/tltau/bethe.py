"""On-shell root finding for the eigenvalue's pole-cancellation conditions.

Lambda(v) has simple pole candidates at v = u_j from the dressing
denominators.  `chain.lambda_residue` gives the residue at v = u_j from the
eigenvalue formula itself; it carries the overall factor

    -(u_j / 2) w(u_j^2 q^2) w(u_j^2) / w(u_j^2 q)^2,

and a root vector is on shell exactly when every residue vanishes.  The
solver runs damped Newton iteration on the residue vector in float mode
with a finite-difference Jacobian.  For a single root the condition is
solvable in closed form: u^2 = (1 - zeta q) / (q (q - zeta)) with zeta any
2N-th root of unity other than +-1 (those two make w(u^2 q) vanish and are
spurious).
"""

from mpmath import mp

from .chain import PoleError, lambda_residue, w_eval, _vals


class BetheSolution:
    """Outcome of a Newton run: roots, final residuals, and bookkeeping."""

    __slots__ = ("roots", "residuals", "converged", "iterations", "message")

    def __init__(self, roots, residuals, converged, iterations, message):
        self.roots = tuple(roots)
        self.residuals = tuple(residuals)
        self.converged = converged
        self.iterations = iterations
        self.message = message

    def max_residual(self):
        return max((abs(r) for r in self.residuals), default=mp.mpf(0))

    def __repr__(self):
        return "BetheSolution(converged=%s, iterations=%d, max_residual=%s)" % (
            self.converged,
            self.iterations,
            mp.nstr(self.max_residual(), 6) if self.residuals else "0",
        )


def residue_vector(p, u):
    uu = _vals(u)
    return [lambda_residue(p, uu, j) for j in range(len(uu))]


def closed_form_single_roots(p):
    """All on-shell values for one root: u^2 = (1 - zeta q)/(q (q - zeta))
    over the 2N-th roots of unity zeta != +-1, normalized to the half-plane
    re u > 0 (or re u = 0, im u > 0); the sign partner is equivalent."""
    if p.ctx.mode != "float":
        raise ValueError("closed-form roots are produced in float mode")
    q = p.q
    out = []
    for k in range(1, 2 * p.N):
        if k == p.N:
            continue
        zeta = mp.expjpi(mp.mpf(k) / p.N)
        out.append(_half_plane(mp.sqrt((1 - zeta * q) / (q * (q - zeta)))))
    dedup = []
    for r in out:
        if all(abs(r - s) > mp.mpf("1e-30") for s in dedup):
            dedup.append(r)
    return dedup


def solve_bethe(p, guess, tol=None, maxiter=80):
    """Damped Newton iteration on the residue vector, float mode only.

    The Jacobian is a forward finite difference; steps are halved when the
    residual norm fails to drop or when roots threaten to collide.  Returns
    a BetheSolution whether or not the run converged.
    """
    if p.ctx.mode != "float":
        raise ValueError("the root solver runs in float mode")
    if len(guess) != p.M:
        raise ValueError("need exactly M starting roots")
    tol = mp.mpf("1e-12") if tol is None else mp.mpf(tol)
    roots = [mp.mpc(x) for x in guess]
    if _min_separation(roots) < mp.mpf("1e-12"):
        raise ValueError("starting roots must be pairwise distinct")
    if not roots:
        return BetheSolution([], [], True, 0, "nothing to solve")

    def residual_or_none(vec):
        try:
            return residue_vector(p, vec)
        except (PoleError, ZeroDivisionError):
            return None

    res = residual_or_none(roots)
    if res is None:
        raise ValueError("starting roots sit on a pole of the residue map")
    err = max(abs(r) for r in res)
    M = p.M
    for it in range(1, maxiter + 1):
        if err < tol:
            return BetheSolution(roots, res, True, it - 1, "converged")
        jac = mp.matrix(M, M)
        for jcol in range(M):
            h = mp.mpf("1e-20") * max(1, abs(roots[jcol]))
            bumped = list(roots)
            bumped[jcol] = bumped[jcol] + h
            resb = residual_or_none(bumped)
            if resb is None:
                resb = res
            for irow in range(M):
                jac[irow, jcol] = (resb[irow] - res[irow]) / h
        try:
            delta = mp.lu_solve(jac, mp.matrix(res))
        except (ZeroDivisionError, ValueError):
            return BetheSolution(roots, res, False, it, "singular jacobian")
        lam = mp.mpf(1)
        moved = False
        while lam >= mp.mpf(1) / 512:
            trial = [roots[i] - lam * delta[i] for i in range(M)]
            if _min_separation(trial) < mp.mpf("1e-12") or any(
                abs(x) < mp.mpf("1e-12") for x in trial
            ):
                lam /= 2
                continue
            rest = residual_or_none(trial)
            if rest is None:
                lam /= 2
                continue
            errt = max(abs(r) for r in rest)
            if errt < err or lam <= mp.mpf(1) / 256:
                roots, res, err = trial, rest, errt
                moved = True
                break
            lam /= 2
        if not moved:
            return BetheSolution(roots, res, False, it, "step stalled (roots colliding or on a pole)")
    converged = err < tol
    return BetheSolution(roots, res, converged, maxiter, "converged" if converged else "iteration limit")


def is_regular(p, roots):
    """True when no root sits on a spurious zero of the residue prefactor.

    The residue carries the overall factor w(u_j^2) w(u_j^2 q^2) / w(u_j^2 q)^2,
    so Newton can converge to points with u_j^2 in {+-1, +-1/q^2} where the
    residue vanishes without the bracket doing so.  Those are excluded
    points of the model, not on-shell roots; "sits on" means within 1e-8.
    """
    floor = mp.mpf("1e-8")
    q = p.q
    for r in roots:
        r = mp.mpc(r)
        u2 = r * r
        if abs(w_eval(u2)) < floor or abs(w_eval(u2 * q * q)) < floor:
            return False
    return True


def _min_separation(roots):
    best = mp.mpf("inf")
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            d = abs(roots[i] - roots[j])
            if d < best:
                best = d
    return best


_PALETTE = (
    mp.mpc("0.45", "0.35"),
    mp.mpc("0.85", "0.55"),
    mp.mpc("1.25", "0.2"),
    mp.mpc("0.3", "-0.85"),
    mp.mpc("1.6", "0.75"),
    mp.mpc("0.2", "1.3"),
    mp.mpc("0.7", "-0.3"),
    mp.mpc("1.1", "-0.9"),
    mp.mpc("0.55", "0.95"),
    mp.mpc("1.45", "-0.4"),
    mp.mpc("0.35", "0.6"),
    mp.mpc("0.95", "0.15"),
)


def solve_bethe_grid(p, tol=None, maxiter=80):
    """Run the solver from at most 64 starting sets drawn from a deterministic
    palette and return the distinct converged solutions (roots normalized to
    the right half-plane, solutions deduplicated as sets)."""
    from itertools import combinations

    if p.M == 0:
        return [BetheSolution([], [], True, 0, "nothing to solve")]
    if p.M == 1:
        guesses = [[z] for z in _PALETTE]
    else:
        guesses = [list(c) for c in combinations(_PALETTE, p.M)]
    found = []
    for g in guesses[:64]:
        try:
            sol = solve_bethe(p, g, tol=tol, maxiter=maxiter)
        except ValueError:
            continue
        if not sol.converged:
            continue
        canon = _canonical_roots(sol.roots)
        if all(_root_set_distance(canon, other) > mp.mpf("1e-9") for other, _ in found):
            found.append((canon, sol))
    return [sol for _, sol in found]


def _half_plane(r):
    """The one of +-r with re > 0, or re = 0 and im >= 0."""
    if mp.re(r) < 0 or (mp.re(r) == 0 and mp.im(r) < 0):
        return -r
    return r


def _canonical_roots(roots):
    return sorted(map(_half_plane, roots), key=lambda z: (mp.re(z), mp.im(z)))


def _root_set_distance(a, b):
    if len(a) != len(b):
        return mp.mpf("inf")
    return max((abs(x - y) for x, y in zip(a, b)), default=mp.mpf("inf"))
