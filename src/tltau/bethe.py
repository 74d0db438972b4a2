"""On-shell root finding for the eigenvalue's pole-cancellation conditions.

Lambda(v) has simple pole candidates at v = u_j from the dressing
denominators.  Its residues there, `residue_vector`, are w(u_j^2)
w(q^2 u_j^2) times the pole brackets `chain.pole_brackets`, and a root vector
is on shell exactly when every bracket vanishes.  The prefactor's zeros,
u_j^2 in {+-1, +-1/q^2}, are excluded points of the model, and the bracket
does not vanish there.  The solver drives the brackets to zero by damped
Newton iteration, in two stages of one loop: a search in complex doubles,
then a refinement at working precision on `_Complex` (two Decimal parts) that
starts there with chord steps on a central-difference Jacobian in doubles.
Each stage reads q and its powers from a stand-in for the params, formed once
on the stage's carrier, and the refinement hands its roots and brackets back
to the context's mpmath context, exactly rounded.  Both stages keep to the
regular set (`is_regular`, in complex doubles): a run ends where it leaves
it, so a converged solution is regular.
For a single root the condition is solvable in closed form:
u^2 = (1 - zeta q) / (q (q - zeta)) with zeta any 2N-th root of unity other
than +-1 (those two make w(u^2 q) vanish and are spurious).
"""

import math
from collections import namedtuple
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from itertools import combinations, islice

from .algebra import power, solve_linear
from .chain import PoleError, pole_brackets, w_eval, _q_powers

_MAXITER = 80  # Newton steps allowed to each stage (search, refinement) of a solve


class BetheSolution:
    """Outcome of a solver run: roots, their pole brackets, and bookkeeping.

    `iterations` counts the working-precision steps, `search_iterations`
    the complex-double steps before them.
    """

    __slots__ = ("roots", "residuals", "converged", "iterations", "message",
                 "search_iterations")

    def __init__(self, roots, residuals, converged, iterations, message, search_iterations=0):
        self.roots = tuple(roots)
        self.residuals = tuple(residuals)
        self.converged = converged
        self.iterations = iterations
        self.message = message
        self.search_iterations = search_iterations

    def max_residual(self):
        return max((abs(r) for r in self.residuals), default=0)

    def __repr__(self):
        r = self.max_residual()
        return "BetheSolution(converged=%s, iterations=%d, max_residual=%s)" % (
            self.converged,
            self.iterations,
            r.context.nstr(r, 6) if self.residuals else "0",
        )


def residue_vector(p, u):
    """The residues of Lambda at v = u_j, in any field mode: every pole
    bracket from one `pole_brackets` pass, times w(y) w(q^2 y), y = u_j^2."""
    ys = [x * x for x in u]
    return [b * w_eval(y) * w_eval(p.q * p.q * y) for b, y in zip(pole_brackets(p, u), ys)]


def closed_form_single_roots(p):
    """All on-shell values for one root: u^2 = (1 - zeta q)/(q (q - zeta))
    over the 2N-th roots of unity zeta != +-1, normalized to the half-plane
    re u > 0 (or re u = 0, im u > 0); the sign partner is equivalent.  The
    2(N - 1) values are pairwise distinct: zeta -> u^2 is a Moebius map of
    determinant -q (q^2 - 1) != 0, so it is one-to-one."""
    if p.ctx.mode != "float":
        raise ValueError("closed-form roots are produced in float mode")
    q, m = p.q, p.ctx.mp
    out = []
    for k in range(1, 2 * p.N):
        if k == p.N:
            continue
        zeta = m.expjpi(m.mpf(k) / p.N)
        out.append(_half_plane(m.sqrt((1 - zeta * q) / (q * (q - zeta)))))
    return out


def solve_bethe(p, guess, tol=None, known=()):
    """Drive the pole brackets to zero from one start, float mode only.

    The search runs the damped Newton loop in complex doubles until the
    brackets fall below 1e-12 or the Newton step below 1e-12 of the roots
    (where rounding in doubles can keep the brackets above 1e-12 at a
    root); a start that stalls or runs out of steps there ends with
    converged False.  The refinement runs the same loop at working precision
    from the search's root (from the guess itself when the search took no
    step) until the brackets fall below `tol`, 2^(-prec/2) by default.  Its
    chord steps use a central difference in complex doubles at the search's
    root (step 2^-17 max(1, |u_j|), good to about 1e-10, so two steps reach
    2^-96); when a central bump lands on a pole it runs plain Newton steps.
    It runs in a fresh decimal context of ceil(prec log10 2) + 6 digits, and
    hands each root and bracket back as the mpc of p.ctx.mp nearest to it.
    `iterations` counts the refinement's steps and `search_iterations`
    the search's; the reported roots and brackets are the refinement's.
    A stage whose start or step lands outside the regular set (`is_regular`)
    ends there with converged False and the message "ran off to an irregular
    set"; a search root within 1e-9 of a set in `known` (each as
    _canonical_roots gives it) is not refined: it ends with converged False
    and no steps.
    """
    if p.ctx.mode != "float":
        raise ValueError("the root solver runs in float mode")
    if len(guess) != p.M:
        raise ValueError("need exactly M starting roots")
    m = p.ctx.mp
    starts = [complex(x) for x in guess]
    if _min_separation(starts) < 1e-12:
        raise ValueError("starting roots must be pairwise distinct")
    if not starts:
        return BetheSolution([], [], True, 0, "nothing to solve")
    double = _stand_in(p.N, complex(p.q))
    found, res, converged, steps, message = _newton(double, starts, 1e-12, 1e-12, 2.0**-26, None)
    canon = _canonical_roots(found)
    if converged and any(max(abs(x - y) for x, y in zip(canon, k)) <= 1e-9 for k in known):
        converged, message = False, "repeats a root set already found"
    if not converged:
        return BetheSolution(map(m.mpc, found), map(m.mpc, res), False, 0, message, steps)
    chord = _central_jacobian(double, found, 2.0**-17)
    with localcontext(Context(math.ceil(p.ctx.prec * math.log10(2)) + 6, ROUND_HALF_EVEN)):
        half = Decimal(2) ** -(p.ctx.prec // 2)
        roots, res, converged, iterations, message = _newton(
            _stand_in(p.N, _Complex.of(p.q)),
            [_Complex.of(x) for x in (found if steps else map(m.mpc, guess))],
            half if tol is None else _Complex.of(m.mpf(tol)).re, 0, half,
            chord and [[_Complex.of(x) for x in row] for row in chord])
    return BetheSolution((_mpc(z, m) for z in roots), (_mpc(z, m) for z in res), converged,
                         iterations, message, steps)


_StandIn = namedtuple("_StandIn", "N q iq q3 iq3")


def _stand_in(N, q):
    """Each stage's stand-in for ChainParams: what `_brackets` reads, with q
    and its `_q_powers` formed once on the stage's carrier (a complex double,
    then a `_Complex`)."""
    return _StandIn(N, q, *_q_powers(q))


def _mpc(z, m):
    """A `_Complex` as the mpc of the mpmath context m nearest to it, each
    part its exact integer ratio p/q as one division rounded at m.prec bits."""
    parts = (x.as_integer_ratio() for x in (z.re, z.im))
    return m.make_mpc(tuple((m.convert(p) / q)._mpf_ for p, q in parts))


def _part_operators(op):
    """Forward and reflected methods running op on the Decimal parts of the
    operands; an int, float or Decimal operand enters exactly."""

    def forward(x, y):
        y = y if type(y) is _Complex else _Complex(Decimal(y))
        return _Complex(*op(x.re, x.im, y.re, y.im))

    return forward, lambda x, y: forward(_Complex(Decimal(y)), x)


def _quotient(a, b, c, d):
    n = c * c + d * d
    if not n:
        raise ZeroDivisionError("division by a zero _Complex")
    return (a * c + b * d) / n, (b * c - a * d) / n


class _Complex:
    """Two Decimal parts, rounded in the current decimal context; a zero
    divisor raises ZeroDivisionError, which `_brackets` maps to a pole.  A
    real operand (int, float or Decimal) scales both parts directly."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=Decimal(0)):
        self.re, self.im = re, im

    @classmethod
    def of(cls, z):
        """An int, float, complex, Decimal, or mpf or mpc of any context,
        exactly."""
        parts = []
        for x in (z.real, z.imag):
            if not isinstance(x, (int, float, Decimal)):  # an mpf
                man, exp = x.man_exp
                man = -man if x < 0 else man
                x = Decimal(man << exp) if exp >= 0 else Decimal("%dE%d" % (man * 5**-exp, exp))
            parts.append(Decimal(x))
        return cls(*parts)

    __add__, __radd__ = _part_operators(lambda a, b, c, d: (a + c, b + d))
    __sub__, __rsub__ = _part_operators(lambda a, b, c, d: (a - c, b - d))
    __truediv__, __rtruediv__ = _part_operators(_quotient)

    def __mul__(self, y):
        a, b = self.re, self.im
        if type(y) is not _Complex:
            y = Decimal(y)
            return _Complex(a * y, b * y)
        c, d = y.re, y.im
        return _Complex(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __neg__(self):
        return _Complex(-self.re, -self.im)

    def __pow__(self, n):
        # x ** 1 is x rounded to the decimal context, as 1 * 1 * x would be
        return power(self, n, _Complex(+self.re, +self.im)) if n else _Complex(Decimal(1))

    def __eq__(self, o):
        o = o if type(o) is _Complex else _Complex(Decimal(o))
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re or self.im)

    def __abs__(self):
        return (self.re * self.re + self.im * self.im).sqrt()

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _newton(p, roots, tol, xtol, step, chord):
    """Damped Newton iteration on the brackets, in the carrier of p.q and roots.

    Converged means the largest bracket is below `tol`, or every Newton
    correction below `xtol` times max(1, |u_j|) (a zero `xtol` skips that
    test).  Each Jacobian is a forward difference with step `step` times
    max(1, |u_j|); a given `chord` Jacobian (in `solve_bethe`, the
    central-difference handoff) is used instead until a step fails to cut
    the error tenfold.
    Steps are halved when the error fails to drop or when roots threaten to
    collide.  The start and every accepted iterate must be regular
    (`is_regular`): a run that leaves the regular set ends there, unconverged,
    with the message "ran off to an irregular set".  The error and the trial
    guards compare magnitudes in complex doubles, `abs(complex(x))`, on
    either carrier.
    Returns (roots, brackets, converged, steps, message).
    """
    res = _brackets(p, roots)
    if res is None:
        raise ValueError("starting roots sit on a pole of the bracket map")
    err = max(abs(complex(r)) for r in res)
    jac = chord
    for it in range(_MAXITER + 1):
        if not is_regular(p, roots):
            return roots, res, False, it, "ran off to an irregular set"
        if err < tol:
            return roots, res, True, it, "converged"
        if it == _MAXITER:
            return roots, res, False, it, "iteration limit"
        if chord is None:
            jac = _jacobian(p, roots, res, step)
        try:
            delta = solve_linear(jac, res)
        except (ZeroDivisionError, ValueError):
            return roots, res, False, it + 1, "singular jacobian"
        if xtol and all(abs(d) < xtol * max(1, abs(x)) for d, x in zip(delta, roots)):
            return roots, res, True, it, "converged"
        lam = 1.0
        moved = False
        while lam >= 1 / 512:
            trial = [r - lam * d for r, d in zip(roots, delta)]
            if _min_separation(trial) < 1e-12 or any(abs(complex(x)) < 1e-12 for x in trial):
                lam /= 2
                continue
            rest = _brackets(p, trial)
            if rest is None:
                lam /= 2
                continue
            errt = max(abs(complex(r)) for r in rest)
            if errt < err or lam <= 1 / 256:
                if chord is not None and errt * 10 > err:
                    chord = None
                roots, res, err = trial, rest, errt
                moved = True
                break
            lam /= 2
        if not moved:
            return roots, res, False, it + 1, "step stalled (roots colliding or on a pole)"


def _brackets(p, u):
    """chain.pole_brackets on any carrier of p.q and u, or None on a pole."""
    try:
        return pole_brackets(p, u)
    except (PoleError, ZeroDivisionError):
        return None


def _jacobian(p, roots, res, step):
    """Rows d bracket_i / d u_j by forward differences; a bump onto a pole
    leaves its column zero."""
    jac = [[0] * len(roots) for _ in roots]
    for jcol, x in enumerate(roots):
        h = step * max(1, abs(x))
        bumped = list(roots)
        bumped[jcol] = x + h
        resb = _brackets(p, bumped) or res
        for irow, (b, r) in enumerate(zip(resb, res)):
            jac[irow][jcol] = (b - r) / h
    return jac


def _central_jacobian(p, roots, step):
    """_jacobian by central differences, or None when a bump lands on a pole."""
    cols = []
    for jcol, x in enumerate(roots):
        h = step * max(1, abs(x))
        up, down = (_brackets(p, roots[:jcol] + [x + e] + roots[jcol + 1:]) for e in (h, -h))
        if up is None or down is None:
            return None
        cols.append([(b - a) / (2 * h) for b, a in zip(up, down)])
    return [list(row) for row in zip(*cols)]


def is_regular(p, roots):
    """True when every |u_j^2| is in [1e-8, 1e8] and no root is within 1e-8
    of an excluded point, u_j^2 in {+-1, +-1/q^2}, where the residue vanishes
    through its factor w(u_j^2) w(q^2 u_j^2) and not through the pole bracket.
    The brackets decay as u_j runs off to 0 or infinity, where a set can pass
    the step test far from any finite root.  `_newton` asks it of its start
    and of every step it takes.  Runs in complex doubles: the floor sits
    eight orders above their rounding."""
    q = complex(p.q)
    for r in roots:
        r = complex(r)
        u2 = r * r
        if not 1e-8 <= abs(u2) <= 1e8 or min(abs(w_eval(u2)), abs(w_eval(u2 * q * q))) < 1e-8:
            return False
    return True


def _min_separation(roots):
    return min((abs(complex(a - b)) for a, b in combinations(roots, 2)), default=float("inf"))


# Starting roots as complex doubles, exact whatever mpmath's precision.
_PALETTE = (0.45 + 0.35j, 0.85 + 0.55j, 1.25 + 0.2j, 0.3 - 0.85j, 1.6 + 0.75j, 0.2 + 1.3j,
            0.7 - 0.3j, 1.1 - 0.9j, 0.55 + 0.95j, 1.45 - 0.4j, 0.35 + 0.6j, 0.95 + 0.15j)


def solve_bethe_grid(p, tol=None):
    """Run the solver from the first 64 M-subsets of a 12-start palette and
    return the distinct converged, hence regular, solutions (roots in the
    right half-plane, sets deduplicated); M = 0 gives the empty solution."""
    known, found = [], []
    for g in islice(combinations(_PALETTE, p.M), 64):
        try:
            sol = solve_bethe(p, g, tol=tol, known=known)
        except ValueError:
            continue
        if sol.converged:
            known.append(_canonical_roots(sol.roots))
            found.append(sol)
    return found


def _half_plane(r):
    """The one of +-r with re > 0, or re = 0 and im >= 0."""
    if r.real < 0 or (r.real == 0 and r.imag < 0):
        return -r
    return r


def _canonical_roots(roots):
    """The roots as complex doubles in the half-plane, sorted."""
    return sorted((complex(_half_plane(z)) for z in roots), key=lambda z: (z.real, z.imag))

