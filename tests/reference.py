"""Reference routes that the engine no longer carries, kept for the tests.

Each reads the engine's helpers as attributes of their module at call time
(`chain.pole_brackets`, `chain._cleared`, ...), so a test that monkeypatches
one of them reaches these routes too.  pytest's default import mode puts this
directory on sys.path; the tests import it as `reference`.
"""

from tltau import chain, schur


def lambda_residue(p, u, j):
    """Residue of Lambda at v = u_j, in any field mode: the pole bracket times
    w(u_j^2) w(q^2 u_j^2)."""
    if not 0 <= j < len(u):
        raise ValueError("index j=%d outside the %d roots" % (j, len(u)))
    y = u[j] * u[j]
    return chain.pole_brackets(p, u)[j] * chain.w_eval(y) * chain.w_eval(p.q * p.q * y)


def lambda_series(p, u, order=None):
    """Laurent expansion of Lambda about v = 0, known through z**order.

    The series is even and starts at z**(-2N) with coefficient
    -(1 + q^{2(N-2M+1)}) / q^{2(N-M)+1}, independent of u.
    """
    if order is None:
        order = 2 * p.N + 10
    y = chain._y_series(p.ctx, order // 2 + p.N)
    ys = chain._cleared(p, y, chain._root_data(p, u)[0])[0]
    return chain._z_series(ys, -2 * p.N, order)


def parity_admissible(lam, M):
    """True when the partition, padded to M rows, has every shifted label
    lam_j - j + M even (hence nonnegative and strictly decreasing)."""
    if M < 1:
        raise ValueError("need at least one row")
    parts = schur.partition_normalize(lam)
    if len(parts) > M:
        return False
    padded = parts + (0,) * (M - len(parts))
    return all((padded[j] - (j + 1) + M) % 2 == 0 for j in range(M))


def schur_sum_eval(cmap, points, ctx):
    """sum_lam c_lam s_lam on a point set: `schur.schur_sum_e` in
    n = len(points) variables at the points' elementary symmetric functions."""
    pts = list(points)
    return schur.schur_sum_e(cmap, len(pts)).evaluate(schur.elementary_symmetric(pts))
