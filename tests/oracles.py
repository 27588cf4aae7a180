"""Independent reference implementations used as test oracles.

Everything here is written from the eliminated closed-form chain directly,
separate from the production code paths, so solver and oracle cannot share
a bug.  The CSV reference writes a table one value at a time, row by row,
where ``datafiles.write_csv`` formats whole columns.  The bordered steady
bubble system imposes Tr rho = 1 by replacing a row, where the solve
deflates the trace mode instead.
"""

from pathlib import Path

import numpy as np

from conftest import make_params


def _oracle_constants(params, delta_p):
    """(D_e, D_r, D_c, kappa, 2 gamma_c gamma_e C) at one probe detuning."""
    from rydcav.interactions import blockade_volume, c6_coefficient, kappa

    ge = params.ensemble.gamma_e
    gc = params.cavity.gamma_c
    gr = params.rydberg.gamma_r
    om = params.drive.omega_cf
    D_e = complex(delta_p, ge)
    D_r = complex(delta_p + params.drive.delta_cf, gr)
    D_c = complex(delta_p - params.cavity.delta_bg, gc)
    c6 = c6_coefficient(params.rydberg)
    if c6 == 0:
        kap = 0j
    else:
        v_b = blockade_volume(D_e, D_r, om, c6)
        kap = kappa(D_e, D_r, om, v_b, params.ensemble.cloud_volume)
    return D_e, D_r, D_c, kap, 2 * gc * ge * params.ensemble.cooperativity


def _oracle_chain(params, delta_p):
    """(A, B, K^2) with |<c>|^2 = K^2 / |A + B x|^2, from the eliminated chain."""
    D_e, D_r, D_c, kap, coop2 = _oracle_constants(params, delta_p)
    om = params.drive.omega_cf
    m = D_e * D_c - coop2
    k_const = (om / 2.0) * np.sqrt(coop2) * params.drive.alpha
    return D_r * m - om**2 * D_c / 4.0, -kap * m, k_const**2


def dynamical_residual(params, sol, delta_p):
    """Norm of the three zeroed dynamical equations at a mean-field solution:
    D_c a = gN b + alpha, D_e b = gN a + (Omega/2) c and
    (D_r - kappa |c|^2) c = (Omega/2) b, with gN = g sqrt(N)."""
    D_e, D_r, D_c, kap, coop2 = _oracle_constants(params, delta_p)
    g_root_n, om = np.sqrt(coop2), params.drive.omega_cf
    a, b, c = sol.a, sol.b, sol.c
    r1 = D_c * a - g_root_n * b - params.drive.alpha
    r2 = D_e * b - g_root_n * a - 0.5 * om * c
    r3 = D_r * c - 0.5 * om * b - kap * abs(c) ** 2 * c
    return float(np.sqrt(abs(r1) ** 2 + abs(r2) ** 2 + abs(r3) ** 2))


def oracle_excitation(params, delta_p, x):
    """|<c>|^2 as a function of x, via the linear-in-x polynomial form."""
    A, B, k2 = _oracle_chain(params, delta_p)
    return k2 / np.abs(A + B * np.asarray(x)) ** 2


def oracle_cubic(params, delta_p):
    """Steady-state cubic and its number of distinct real roots.

    x = |<c>|^2 is the cubic |B|^2 x^3 + 2 Re(A B*) x^2 + |A|^2 x - K^2 = 0;
    returns its coefficients (a, b, c, d) and the root count from the sign
    of the discriminant.
    """
    A, B, k2 = _oracle_chain(params, delta_p)
    a, b, c, d = abs(B) ** 2, 2.0 * (A * B.conjugate()).real, abs(A) ** 2, -k2
    disc = (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3
            - 27 * a * a * d * d)
    return (a, b, c, d), (3 if disc > 0 else 1)


def oracle_roots(params, delta_p, npoints=100_000, bisect_iters=90):
    """All steady-state roots by dense sign scan plus bisection."""
    f0 = float(oracle_excitation(params, delta_p, 0.0))
    if f0 == 0.0:
        return [0.0]
    x_max = 10.0 * f0
    for _ in range(10):
        grid = np.linspace(0.0, x_max, npoints)
        res = oracle_excitation(params, delta_p, grid) - grid
        idx = np.nonzero(np.sign(res[:-1]) * np.sign(res[1:]) < 0)[0]
        if idx.size:
            break
        x_max *= 4.0
    roots = []
    for i in idx:
        lo, hi = grid[i], grid[i + 1]
        flo = oracle_excitation(params, delta_p, lo) - lo
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            fmid = oracle_excitation(params, delta_p, mid) - mid
            if flo * fmid <= 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    return roots


def random_paper_scale_params(rng, series="S", **fixed):
    kw = dict(
        gamma_c=rng.uniform(5.0, 15.0),
        gamma_e=rng.uniform(1.0, 5.0),
        gamma_r=rng.uniform(0.05, 0.5),
        omega_cf=rng.uniform(1.0, 8.0),
        cooperativity=rng.uniform(1.0, 10.0),
        n=int(rng.integers(50, 90)),
        series=series,
        cloud_volume=rng.uniform(2e5, 2e6),
        alpha=rng.uniform(0.1, 10.0),
    )
    kw.update(fixed)
    return make_params(**kw)


def follow_branch_loop(roots, residual, singular, x_seed, flag_failures):
    """The continuation of ``meanfield._follow_branch``, one point at a time.

    A one-root point takes its root.  A three-root point takes the outer
    root (index 0 or 2) its run of consecutive three-root points took; the
    run's first point takes the one nearest the last solved x, starting
    from ``x_seed``.  A picked root that is singular or whose residual
    exceeds 1e-10 max(1, x) fails the point: it raises, or, with
    ``flag_failures``, gets index -1 and leaves the seed as it was.
    """
    from rydcav.errors import SingularParameterError, SolverError

    seed, run, picks = x_seed, None, []
    for r, res, sing in zip(roots.tolist(), residual.tolist(), singular.tolist()):
        if r[1] != r[1]:   # one root; the padding is NaN
            j, run = 0, None
        else:
            if run is None:
                run = 2 if abs(r[2] - seed) < abs(r[0] - seed) else 0
            j = run
        try:
            if sing[j]:
                raise SingularParameterError(
                    "singular denominator in the steady-state chain")
            if not res[j] <= 1e-10 * max(1.0, r[j]):
                raise SolverError(f"root refinement stalled: residual {res[j]:g} "
                                  f"at x={r[j]:g}")
        except (SolverError, SingularParameterError):
            if not flag_failures:
                raise
            picks.append(-1)
            continue
        picks.append(j)
        seed = r[j]
    return np.array(picks, dtype=int)


def format_number(v) -> str:
    """One table value as text: an integer as an integer, anything else
    (a bool included) as the repr of its float."""
    from rydcav.params import is_integer

    if is_integer(v):
        return str(v)
    return repr(float(v))


def write_csv_rows(path, header, rows, meta=None) -> None:
    """The row-wise CSV writer: each value through ``format_number``."""
    from rydcav.datafiles import meta_lines

    lines = meta_lines(meta or {})
    lines.append(header)
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def bordered_residual(model, y):
    """f(y) of a bubble model with row 0 replaced by Tr rho - 1.

    The population rows of f sum to zero, so one of them is redundant and
    the trace condition takes its place."""
    f = model.rhs_flat(0.0, y)
    f[0] = model.trace(y) - 1.0
    return f


def bordered_matrix(model, y, shift):
    """J - shift I at y with row 0 replaced by the trace functional (ones on
    the populations, no shift): the step of (shift I - J) d = f on rows
    1..n keeps Tr(rho + d) = 1."""
    mat = model.jacobian(y)
    mat[0] = 0.0
    mat[0, :model.npop] = 1.0
    diag = np.arange(1, model.size)
    mat[diag, diag] -= shift
    return mat


def restricted_jacobian(model, y):
    """J at y restricted to the trace-free hyperplane u . v = 0, u the ones
    on the populations, in the coordinates after the first: with v_0 = -sum
    of the other populations it is J[1:, 1:] - J[1:, 0] u[1:]^T.  It has
    every eigenvalue of J but the trace mode's."""
    jac = model.jacobian(y)
    restricted = jac[1:, 1:]
    restricted[:, :model.npop - 1] -= jac[1:, :1]
    return restricted
