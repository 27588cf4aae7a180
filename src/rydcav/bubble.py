"""Semi-classical Rydberg-bubble dynamics with dark-state decay.

The cloud is split into N/n_b independent bubbles of n_b atoms sharing at
most one Rydberg excitation.  Each bubble lives on the truncated product
space {|m>, m = 0..N_max} x {|G>, |R>, |S>}: a bosonic mode for the
intermediate-state excitation (collective lowering operator beta) and the
three collective internal states (ground, bright Rydberg, dark Rydberg).
The bubble density matrix rho is driven by the classical cavity amplitude
<a>, which in turn sees the polarization of all bubbles:

    drho/dt = -i [H, rho] + D_l(rho) + D_nl(rho),
    H = -Delta_r sRR - Delta_e beta+ beta
        + {(Omega_cf/2 sRG + g sqrt(n_b) <a>*) beta + h.c.},
    D_l  = gamma_e D[beta] + gamma_r D[sGR] + gamma_s D[sGS],
    D_nl = xi <sRR> D[sSR]              (rate proportional to the
                                         instantaneous bright population),
    d<a>/dt = i (Delta_c + i gamma_c) <a>
              - i (N/n_b) g sqrt(n_b) <beta> - i alpha,

with D[L] rho = 2 L rho L+ - L+L rho - rho L+L and g sqrt(n_b) =
sqrt(2 gamma_e gamma_c C n_b / N).  All rates are converted to angular
units (rad/us) for the time integration; transmission is
T = gamma_c^2 |<a>|^2 / alpha^2.

Internally rho is propagated as its coefficient vector in a real
orthonormal basis of Hermitian matrices, which enforces the Hermitization
rho <- (rho + rho+)/2 exactly at every step (the state simply cannot leave
the Hermitian subspace) and halves the integration cost.  Only the basis
elements the dynamics can reach from the initial state are kept (see
:class:`BubbleModel`): from the empty cavity with all atoms in |G, 0> the
dark state S never gains a coherence with G or R, and with xi = 0 it stays
empty.  Each quadrature of <a> is reached on its own: on resonance
(Delta_e = Delta_r = Delta_c = 0) the drive only moves Im<a>, so Re<a> and
the coordinates only it would drive stay 0.  At nmax = 6 the state vector
y = [r, Re<a>, Im<a>] has 135 coordinates on resonance (107 at xi = 0) and
247 (198) detuned, instead of 21^2 + 2 = 443.  The populations lead r, so
Tr rho is the sum of its first entries.

Everything but six rates and detunings, g sqrt(n_b) and xi is the same
for every model at one nmax: the operators, the Hermitian basis, the
trace rows and the generator's nine unit blocks in that basis (L0 per
unit of each rate and detuning, the cavity-coupling blocks per unit of
g sqrt(n_b), the dark-state block).  :func:`_structure` builds them once
per nmax from the operators' nonzeros, keeps the blocks as sparse (rows,
cols, values) triplets and marks every array read-only.  Which
coordinates a model keeps, and where each unit entry lands in its
triplets, depend on its structure alone: which unit blocks it switches
on, the support of its initial state and where its terms go.
:func:`_layout` derives them once per structure and caches them the same
way, so a build only weights the laid-out unit entries, sums them with one
``np.bincount`` and drops the sums that are exactly 0.

On request the forward sensitivities s_k = dy/dtheta_k of that state
vector with respect to named parameters theta_k are integrated next to it
(ds_k/dt = J s_k + df/dtheta_k, J the exact Jacobian of the right-hand
side, built from the same generator blocks), which gives the exact
derivatives dT/dtheta_k of the sampled transmission from one run.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import interactions
from .errors import IntegrationError, SolverError
from .ode import integrate
from .params import (PhysicalParams, is_integer, params_to_dict,
                     require_float_paths, require_positive, to_angular)

_log = logging.getLogger(__name__)

_G, _R, _S = 0, 1, 2
DEFAULT_NMAX = 4


@dataclass(frozen=True)
class BubbleOperators:
    """Collective bubble operators on the truncated boson x {G,R,S} space."""

    nmax: int
    dim: int
    beta: np.ndarray
    sigma_GR: np.ndarray
    sigma_RG: np.ndarray
    sigma_RR: np.ndarray
    sigma_GS: np.ndarray
    sigma_SG: np.ndarray
    sigma_SS: np.ndarray
    sigma_SR: np.ndarray
    sigma_RS: np.ndarray


def _check_nmax(nmax) -> int:
    """``nmax`` as an int if it is an integer >= 1 (numpy integers included,
    bools not; :func:`rydcav.params.is_integer`), else ValueError."""
    if not is_integer(nmax) or nmax < 1:
        raise ValueError(f"nmax must be an int >= 1, got {nmax!r}")
    return int(nmax)


def build_operators(nmax: int) -> BubbleOperators:
    """Operator matrices of dimension 3 (nmax + 1), basis |m> x |s>."""
    dim = 3 * (_check_nmax(nmax) + 1)
    k = np.arange(dim)                         # k = 3 m + s

    def internal(i, j):
        m = np.zeros((dim, dim))
        m[k[i::3], k[j::3]] = 1.0
        return m

    beta = np.zeros((dim, dim))
    beta[k[:-3], k[3:]] = np.sqrt(k[3:] // 3)  # |m-1, s> <m, s| sqrt(m)
    return BubbleOperators(
        nmax=nmax,
        dim=dim,
        beta=beta,
        sigma_GR=internal(_G, _R),
        sigma_RG=internal(_R, _G),
        sigma_RR=internal(_R, _R),
        sigma_GS=internal(_G, _S),
        sigma_SG=internal(_S, _G),
        sigma_SS=internal(_S, _S),
        sigma_SR=internal(_S, _R),
        sigma_RS=internal(_R, _S),
    )


@dataclass
class BubbleState:
    """Bubble density matrix plus the classical cavity amplitude."""

    rho: np.ndarray
    a: complex
    t: float = 0.0

    @property
    def trace_error(self) -> float:
        tr = np.trace(self.rho)
        return abs(tr.real - 1.0) + abs(tr.imag)

    @property
    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    @property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min())


class _Basis(NamedTuple):
    """An orthonormal Hermitian basis of d x d matrices, by its entries.

    Column c of the basis (as vec of a matrix) holds a[c] at row p[c] of
    vec(rho) and b[c] at row q[c]; b[c] = 0 on the d diagonal elements,
    which come first and where p[c] = q[c].  Each off-diagonal pair i < j
    gives (E_ij + E_ji)/sqrt 2 and then i (E_ij - E_ji)/sqrt 2.
    """

    p: np.ndarray
    q: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _hermitian_basis(d: int) -> _Basis:
    """The Hermitian basis of d x d matrices (diagonals first)."""
    i, j = np.triu_indices(d, 1)
    diag = np.arange(d) * (d + 1)
    s = 1.0 / math.sqrt(2.0)
    return _Basis(
        p=np.concatenate((diag, np.repeat(i * d + j, 2))),
        q=np.concatenate((diag, np.repeat(j * d + i, 2))),
        a=np.concatenate((np.ones(d), np.tile([s, 1j * s], i.size))),
        b=np.concatenate((np.zeros(d), np.tile([s, -1j * s], i.size))))


class _Scalars(NamedTuple):
    """Every number the bubble right-hand side depends on, in rad/us.

    The generator L0 is linear in its first six fields (the weights of its
    unit blocks, :func:`_unit_blocks`); the cavity-coupling blocks L1, L2
    are fixed matrices times ``g_nb`` and the dark-state block L3 is
    multiplied by ``xi``; the cavity rows and the transmission gain
    gamma_c^2 / alpha^2 are scalars too.  ``n_b`` is the number of atoms
    per bubble.  The same tuple of (p,) rows holds the derivatives of the
    scalars in p parameters (:func:`_scalar_rows`).
    """

    delta_r: float
    delta_e: float
    omega: float
    gamma_e: float
    gamma_r: float
    gamma_s: float
    g_nb: float
    xi: float
    gamma_c: float
    delta_c: float
    prefactor: float
    alpha: float
    gain: float
    n_b: float


def _scalars(params: PhysicalParams, n_b: float | None) -> _Scalars:
    """The model's scalars; n_b comes from the blockade volume unless given."""
    ens, ryd, drv, cav = (params.ensemble, params.rydberg, params.drive,
                          params.cavity)
    if n_b is None:
        n_b = interactions.atoms_per_bubble(
            ens.atom_number, interactions.blockade(params)[0], ens.cloud_volume)
    n_b = require_positive("n_b", n_b)
    ge_a = to_angular(ens.gamma_e)
    gc_a = to_angular(cav.gamma_c)
    de_a, dr_a, dc_a = (to_angular(v) for v in params.detunings())
    alpha_a = to_angular(drv.alpha)
    # collective couplings: one bubble feels g sqrt(n_b); the cavity
    # sums the polarization of all N/n_b bubbles
    g_nb_a = math.sqrt(2.0 * ge_a * gc_a * ens.cooperativity
                       * n_b / ens.atom_number)
    return _Scalars(
        delta_r=dr_a, delta_e=de_a, omega=to_angular(drv.omega_cf),
        gamma_e=ge_a, gamma_r=to_angular(ryd.gamma_r),
        gamma_s=to_angular(ryd.gamma_s_eff), g_nb=g_nb_a,
        xi=to_angular(ryd.xi), gamma_c=gc_a, delta_c=dc_a,
        prefactor=(ens.atom_number / n_b) * g_nb_a, alpha=alpha_a,
        gain=0.0 if alpha_a == 0.0 else gc_a**2 / alpha_a**2, n_b=n_b)


def _scalar_rows(params: PhysicalParams, n_b: float | None, sc: _Scalars,
                 paths) -> _Scalars:
    """d(model scalars)/d(parameter) for every path at once, in closed form.

    ``sc`` are the model's scalars at ``params``.  Each field becomes a (p,)
    row whose entry k is its derivative per unit of the parameter at
    ``paths[k]``.  The detunings, rates, Omega, xi, gamma_c and alpha are
    2 pi times unit rows (gamma_s takes gamma_r's row when it follows
    gamma_r); (g sqrt(n_b))^2 = 2 gamma_e gamma_c C n_b / N moves by
    (2/N) d(gamma_e gamma_c C n_b); the prefactor is (N / n_b) g sqrt(n_b)
    and the gain gamma_c^2 / alpha^2, whose row is 0 at alpha = 0, as the
    gain is.  n_b = N |V_b| / V moves by
    dn_b = n_b (Re(conj(V_b) dV_b) / |V_b|^2 - dV / V), with dV_b from
    :func:`rydcav.interactions.blockade_derivative`, unless it is given,
    clamped to [1, N] or no path moves an input of the blockade chain.
    ``paths`` pass :func:`rydcav.params.require_float_paths` (ValueError
    naming a path that is not a float parameter or whose value is None,
    KeyError for an unknown one); a path that moves (g sqrt(n_b))^2 where g sqrt(n_b) = 0, which goes there as
    the square root of the parameter, raises SolverError naming it.
    """
    if not paths:
        return _Scalars(*np.zeros((len(_Scalars._fields), 0)))
    require_float_paths(params, paths, "the bubble model")

    def unit(name):
        return np.array([float(path == name) for path in paths])

    ens, zero = params.ensemble, np.zeros(len(paths))
    d_dp, d_dcf = unit("drive.delta_p"), unit("drive.delta_cf")
    d_om, d_alpha = unit("drive.omega_cf"), unit("drive.alpha")
    d_ge, d_gc = unit("ensemble.gamma_e"), unit("cavity.gamma_c")
    d_gr, d_volume = unit("rydberg.gamma_r"), unit("ensemble.cloud_volume")
    d_c6 = unit("rydberg.c6_override")
    dn_b = zero
    if n_b is None and np.any((d_dp, d_dcf, d_ge, d_gr, d_om, d_c6, d_volume)):
        v_b, kap = interactions.blockade(params)
        if sc.n_b == ens.atom_number * abs(v_b) / ens.cloud_volume:   # not clamped
            D_e, D_r, _ = params.complex_detunings()
            dv_b, _ = interactions.blockade_derivative(
                params, D_e, D_r, params.drive.omega_cf, v_b, kap,
                d_dp + 1j * d_ge, d_dp + d_dcf + 1j * d_gr, d_om, d_c6, d_volume)
            dn_b = sc.n_b * ((v_b.conjugate() * dv_b).real / abs(v_b) ** 2
                             - d_volume / ens.cloud_volume)
    # (g sqrt(n_b))^2 = 2 gamma_e gamma_c C n_b / N, in rad/us
    d_g2 = (2.0 / ens.atom_number) * (
        to_angular(d_ge * sc.gamma_c + sc.gamma_e * d_gc) * ens.cooperativity * sc.n_b
        + sc.gamma_e * sc.gamma_c * (unit("ensemble.cooperativity") * sc.n_b
                                     + ens.cooperativity * dn_b))
    if sc.g_nb == 0.0:
        moving = [p for p, d in zip(paths, d_g2) if d != 0.0]
        if moving:
            raise SolverError(f"dT/d{moving[0]} has no value at g sqrt(n_b) = 0, "
                              f"where it goes as the square root of {moving[0]}")
        d_g = zero
    else:
        d_g = 0.5 * d_g2 / sc.g_nb
    d_gs = d_gr if params.rydberg.gamma_s is None else unit("rydberg.gamma_s")
    d_gain = zero
    if sc.alpha != 0.0:
        d_gain = 2.0 * sc.gain * to_angular(d_gc / sc.gamma_c - d_alpha / sc.alpha)
    return _Scalars(
        delta_r=to_angular(d_dp + d_dcf), delta_e=to_angular(d_dp),
        omega=to_angular(d_om), gamma_e=to_angular(d_ge),
        gamma_r=to_angular(d_gr), gamma_s=to_angular(d_gs), g_nb=d_g,
        xi=to_angular(unit("rydberg.xi")), gamma_c=to_angular(d_gc),
        delta_c=to_angular(d_dp - unit("cavity.delta_bg")),
        prefactor=(ens.atom_number / sc.n_b) * (d_g - sc.g_nb * dn_b / sc.n_b),
        alpha=to_angular(d_alpha), gain=d_gain, n_b=dn_b)


def _merged(keys, vals, n: int):
    """(rows, cols, values) of the nonzero sums of ``vals`` at each key =
    row * n + col, sorted by key; each sum adds its values in array order."""
    keys, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, vals.real, keys.size)
    if np.iscomplexobj(vals):
        sums = sums + 1j * np.bincount(inverse, vals.imag, keys.size)
    keep = sums != 0.0
    return keys[keep] // n, keys[keep] % n, sums[keep]


def _unit_blocks(ops: BubbleOperators, basis: _Basis):
    """The generator's nine unit blocks in the Hermitian basis as their
    nonzero entries (rows, cols, values): L0 at a unit value of each of
    delta_r, delta_e, omega, gamma_e, gamma_r and gamma_s, L1 and L2 (of
    Re<a> and Im<a>) at g sqrt(n_b) = 1, and the dark-state block L3.

    A term w A rho B of a block is w (A x B^T) on row-major vec(rho), with
    w A[i, k] B[l, j] at (i d + j, k d + l), so S, the sum of the terms,
    comes from the nonzeros of A and B, and basis^H S basis from the two
    basis entries of each vec index.  Every sum adds its terms in the
    order of the dense products: the entries are the dense projection's
    bit for bit, and no d^2 x d^2 array is made.
    """
    d = ops.dim
    n = d * d
    eye = np.eye(d)
    b, bd = ops.beta, ops.beta.conj().T

    def commutator(h):                      # -i [h, rho]
        return [(-1j, h, eye), (1j, eye, h)]

    def dissipator(L):                      # 2 L rho L+ - L+L rho - rho L+L
        ldl = L.conj().T @ L
        return [(2.0, L, L.conj().T), (-1.0, ldl, eye), (-1.0, eye, ldl)]

    # vec index x is in basis columns at[x] with coefficients coef[x]; a
    # diagonal's second entry is its own column with coefficient 0
    order = np.argsort(np.concatenate((basis.p, basis.q)), kind="stable")
    at = np.tile(np.arange(n), 2)[order].reshape(n, 2)
    coef = np.concatenate((basis.a, basis.b))[order].reshape(n, 2)

    def in_basis(terms):
        keys, vals = [], []
        for w, A, B in terms:
            i, k = np.nonzero(A)
            l, j = np.nonzero(B)
            keys.append(((i * d)[:, None] + j) * n + (k * d)[:, None] + l)
            vals.append((w * A[i, k])[:, None] * B[l, j])
        x, y, s = _merged(np.concatenate(keys, axis=None),
                          np.concatenate(vals, axis=None), n)   # S, by row
        r, y, s = _merged((at[x] * n + y[:, None]).ravel(),     # basis^H S
                          (coef[x].conj() * s[:, None]).ravel(), n)
        r, c, m = _merged((r[:, None] * n + at[y]).ravel(),     # ... basis
                          (s[:, None] * coef[y]).ravel(), n)
        if np.abs(m.imag).max() > 1e-9 * max(np.abs(m.real).max(), 1.0):
            raise AssertionError("generator block is not Hermiticity-preserving")
        keep = m.real != 0.0
        return r[keep], c[keep], m.real[keep]

    return tuple(in_basis(terms) for terms in (
        commutator(-ops.sigma_RR), commutator(-(bd @ b)),
        commutator(0.5 * (ops.sigma_RG @ b + bd @ ops.sigma_GR)),
        dissipator(b), dissipator(ops.sigma_GR), dissipator(ops.sigma_GS),
        commutator(b + bd), commutator(1j * (bd - b)),
        dissipator(ops.sigma_SR)))


#: indices of L1, L2 and L3 among the unit blocks; L0's six come first
_L1, _L2, _L3 = 6, 7, 8


class _Structure(NamedTuple):
    """What every bubble model at one nmax shares; see :func:`_structure`.

    ``w_rows`` holds the rows w_RR, Re w_beta and Im w_beta with
    Tr(X rho) = w_X . r for the basis coefficients r of rho, ``w_ss`` the
    row of sigma_SS, and ``units`` the nine unit blocks of
    :func:`_unit_blocks` in the Hermitian basis as their nonzero entries
    (rows, cols, values), sorted by row and then column.
    """

    ops: BubbleOperators
    basis: _Basis
    w_rows: np.ndarray
    w_ss: np.ndarray
    units: tuple


@functools.cache
def _structure(nmax: int) -> _Structure:
    """The operator algebra of every bubble model at ``nmax``, built once.

    Every unit block is built from the operators' nonzeros as sparse
    triplets (:func:`_unit_blocks`), so the build never holds a d^2 x d^2
    array; at nmax 6 the cache takes 0.2 MB.  Every array is read-only.
    """
    ops = build_operators(nmax)
    basis = _hermitian_basis(ops.dim)

    # Tr(X rho) = vec(X^T) . vec(rho) = (vec(X^T) @ basis) . r
    def row(op):
        v = op.T.reshape(-1)
        return v[basis.p] * basis.a + v[basis.q] * basis.b

    w_beta = row(ops.beta)
    st = _Structure(
        ops=ops, basis=basis,
        w_rows=np.vstack((row(ops.sigma_RR).real, w_beta.real, w_beta.imag)),
        w_ss=row(ops.sigma_SS).real,
        units=_unit_blocks(ops, basis))
    operators = [v for v in vars(ops).values() if isinstance(v, np.ndarray)]
    triplets = [arr for unit in st.units for arr in unit]
    for arr in operators + [*basis, st.w_rows, st.w_ss] + triplets:
        arr.setflags(write=False)
    return st


def _closure(units, live: np.ndarray) -> np.ndarray:
    """Smallest superset of the mask ``live`` that no entry of the blocks
    ``units`` leads out of (an entry at (i, k) moves coordinate k into i)."""
    rows = np.concatenate([u[0] for u in units])
    cols = np.concatenate([u[1] for u in units])
    while True:
        grown = live.copy()
        grown[rows[live[cols]]] = True
        if np.array_equal(grown, live):
            return live
        live = grown


class _Sum(NamedTuple):
    """The layout of a weighted sum of unit blocks on the kept coordinates.

    Term t adds ``counts[t]`` entries: ``values`` holds every term's kept
    unit entries in order, and entry e goes to sum ``inverse[e]``, which
    lies at (``rows``, ``cols``) of the sum, sorted by row and then column.
    """

    values: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    def sums(self, coefs) -> np.ndarray:
        """The sum at each position for term weights ``coefs``; each adds
        its terms' products in term order, as :func:`_merged` does."""
        return np.bincount(self.inverse, np.repeat(coefs, self.counts) * self.values,
                           self.rows.size)


class _Layout(NamedTuple):
    """What a model's structure alone fixes; see :func:`_layout`.

    ``keep`` are the kept basis coordinates, ``npop`` how many of them are
    populations, ``rho_index`` and ``rho_coef`` their entries in vec(rho),
    ``w_rr`` and ``w_ss`` the rows of sigma_RR and sigma_SS on them and
    ``rr_cols`` where w_RR is nonzero.  ``stack`` lays out the stacked
    generator and the three trace rows (its last term, at weight 1), with
    ``blocks`` and ``jac_index`` per position (:meth:`BubbleModel.jacobian`),
    and ``dl0`` dL0 for each moved path, or is None when none moves.
    """

    keep: np.ndarray
    npop: int
    rho_index: np.ndarray
    rho_coef: np.ndarray
    w_rr: np.ndarray
    rr_cols: np.ndarray
    w_ss: np.ndarray
    stack: _Sum
    blocks: np.ndarray
    jac_index: np.ndarray
    dl0: _Sum | None


#: the layouts cached per process.  A key is one structure, and a run
#: uses few; an entry takes 0.01-0.2 MB at nmax 2-6
_LAYOUT_CACHE = 32


@functools.lru_cache(maxsize=_LAYOUT_CACHE)
def _layout(nmax: int, switched: tuple, driven: bool, coupled: bool,
            a0_re: bool, a0_im: bool, support: bytes, dark: bool,
            nmoved: int) -> _Layout:
    """The coordinates a model reaches and the layout of its triplets.

    They depend on the structure alone: the unit blocks ``switched`` on,
    whether alpha (``driven``) and Delta_c (``coupled``) can move <a>,
    whether a0 has a real and an imaginary part, the support of the
    initial rho (``support``, packed bits of r0 != 0), whether the stack
    keeps the dark-state block L3 (``dark``) and how many paths move L0
    (``nmoved``); see :class:`BubbleModel`.  A build weights the unit
    entries laid out here and drops the sums that are exactly 0, which
    depend on the values.  Every array is read-only.
    """
    st = _structure(nmax)
    d = st.ops.dim
    live = np.unpackbits(np.frombuffer(support, np.uint8), count=d * d).astype(bool)
    cavity = None
    while True:   # can Re<a>, Im<a> leave 0 on what the chain reaches?
        beta_re, beta_im = np.any(st.w_rows[1:, live] != 0.0, axis=1)
        re = bool(a0_re or beta_im)
        im = bool(driven or a0_im or beta_re)
        if coupled:   # Delta_c turns each quadrature into the other
            re = im = re or im
        if (re, im) == cavity:
            break
        cavity = re, im
        live = _closure([st.units[k] for k in switched
                         if {_L1: re, _L2: im}.get(k, True)], live)

    keep = np.flatnonzero(live)
    n = keep.size
    pos = np.zeros(d * d, dtype=int)
    pos[keep] = np.arange(n)
    # each unit's entries on the kept coordinates
    kept = []
    for rows, cols, v in st.units:
        sel = live[rows] & live[cols]
        kept.append((pos[rows[sel]], pos[cols[sel]], v[sel]))

    def summed(terms, extra=()):
        """The _Sum of unit ``k`` at row offset ``block`` * n for each
        (block, k) of ``terms``, then the (keys, values) of ``extra``."""
        parts = [((block * n + kept[k][0]) * n + kept[k][1], kept[k][2])
                 for block, k in terms] + list(extra)
        keys, inverse = np.unique(np.concatenate([p[0] for p in parts]),
                                  return_inverse=True)
        return _Sum(np.concatenate([p[1] for p in parts]),
                    np.array([p[0].size for p in parts]),
                    inverse, keys // n, keys % n)

    # the stacked generator [L0; L1; L2; L3] and after it the rows w_RR,
    # Re w_beta, Im w_beta
    nb = 4 if dark else 3
    w_rows = st.w_rows[:, keep]
    wr, wc = np.nonzero(w_rows)
    stack = summed([(0, k) for k in range(6)] + [(1, _L1), (2, _L2)]
                   + [(3, _L3)] * dark,
                   [((nb * n + wr) * n + wc, w_rows[wr, wc])])
    rows, cols = stack.rows, stack.cols
    gen = rows < nb * n
    # the Jacobian weighs block b by coef[b] and the trace rows by 0,
    # -prefactor and +prefactor into its cavity rows n, n + 1 and n
    lay = _Layout(
        keep=keep, npop=int(np.count_nonzero(live[:d])),   # populations lead
        # the kept basis columns' entries: coordinate k adds a[k] y[k] at
        # p[k] of vec(rho) and b[k] y[k] at q[k]
        rho_index=np.concatenate((st.basis.p[keep], st.basis.q[keep])),
        rho_coef=np.concatenate((st.basis.a[keep], st.basis.b[keep])),
        w_rr=w_rows[0], rr_cols=np.flatnonzero(w_rows[0]), w_ss=st.w_ss[keep],
        stack=stack, blocks=np.where(gen, rows // n, rows - nb * n + nb),
        jac_index=np.where(gen, rows % n, n + (rows == nb * n + 1)) * (n + 2) + cols,
        dl0=summed([(j, k) for j in range(nmoved) for k in range(6)])
        if nmoved else None)
    for arr in [lay.keep, lay.rho_index, lay.rho_coef, lay.w_rr, lay.rr_cols,
                lay.w_ss, *stack, lay.blocks, lay.jac_index, *(lay.dl0 or ())]:
        arr.setflags(write=False)
    return lay


def _coefficient_map(sc: _Scalars, derivs, nb: int, moved) -> tuple:
    """(B, b0): :meth:`BubbleModel.rhs_sensitivity`'s coefficients are
    B @ tail + b0, for the tail of its ``bincount``.

    Row j of the stacked state z = [y, s_1, ..., s_p] is a combination of
    the bincount's rows of length n + 2: the ``nb`` block products of each
    row of z, the dL0 products of the ``moved`` paths, and the two unit
    rows that carry the cavity rows.  Every coefficient is affine in the
    tail, the values <sigma_RR>, Re w_beta . r, Im w_beta . r, Re<a> and
    Im<a> of each row of z, with constants from the scalars ``sc`` and
    their derivatives ``derivs``.  Row j takes its own blocks at the
    state's (1, Re<a>, Im<a>, xi <sigma_RR>) and the cavity rows of its own
    values.  A sensitivity row also takes the blocks of r at J's cross
    terms plus df/dtheta's, (s_ar + dg Re<a>, s_ai + dg Im<a>,
    xi s_RR + dxi <sigma_RR>) with dg the relative derivative of
    g sqrt(n_b), its own dL0 product at weight 1 if its path moved L0,
    and the cavity rows' derivative at the state's values, -dalpha
    included.  B is (1 + p) ncol x 5 (1 + p), ncol the bincount's rows.
    """
    q = len(derivs) + 1
    ncol = q * nb + len(moved) + 2
    B = np.zeros((q, ncol, q, 5))
    b0 = np.zeros((q, ncol))
    rr, b_re, b_im, a_re, a_im = range(5)
    # the weights of blocks 1.. of the stack: L1, L2 and, when kept, L3
    for j in range(q):
        b0[j, j * nb] = 1.0
        for col, value, w in [(1, a_re, 1.0), (2, a_im, 1.0), (3, rr, sc.xi)][:nb - 1]:
            B[j, j * nb + col, 0, value] = w
        B[j, -2, j, [a_re, a_im, b_im]] = -sc.gamma_c, -sc.delta_c, sc.prefactor
        B[j, -1, j, [a_re, a_im, b_re]] = sc.delta_c, -sc.gamma_c, -sc.prefactor
    b0[0, -1] = -sc.alpha
    for j, ds in enumerate(derivs, 1):
        dg = ds.g_nb / sc.g_nb if ds.g_nb else 0.0     # L1, L2 scale with g sqrt(n_b)
        for col, value, w, dw in [(1, a_re, 1.0, dg), (2, a_im, 1.0, dg),
                                  (3, rr, sc.xi, ds.xi)][:nb - 1]:
            B[j, col, j, value] = w
            B[j, col, 0, value] = dw
        B[j, -2, 0, [a_re, a_im, b_im]] = -ds.gamma_c, -ds.delta_c, ds.prefactor
        B[j, -1, 0, [a_re, a_im, b_re]] = ds.delta_c, -ds.gamma_c, -ds.prefactor
        b0[j, -1] = -ds.alpha
        if j - 1 in moved:
            b0[j, q * nb + moved.index(j - 1)] = 1.0
    return B.reshape(q * ncol, 5 * q), b0.reshape(-1)


class BubbleModel:
    """Precompiled right-hand side for one parameter set and initial state.

    The Lindblad generator is the stack [L0; L1; L2; L3] of real blocks in
    the Hermitian basis, followed by the three trace rows w_RR, Re w_beta
    and Im w_beta, all kept as one set of (rows, cols, values) triplets
    with one entry per nonzero and no dense copy.  An evaluation is one
    ``np.bincount`` of the entries times the state: its head holds the
    block products, which the cavity-coupling blocks scaled by Re<a>,
    Im<a> and the nonlinear dark-state block by xi <sigma_RR> combine
    into drho/dt, and its tail <sigma_RR> and <beta>.  The triplets are
    weighted sums of the sparse unit blocks that :func:`_structure` caches
    once per nmax: L0 is the sum of its six units weighted by the rates
    and detunings, L1 and L2 are theirs times g sqrt(n_b), and L3 is its
    own.  The kept coordinates and the layout of those sums come from
    :func:`_layout`, cached once per structure (the reachable set below
    and the placement of the terms); a build weights the laid-out entries,
    adds them in one ``np.bincount`` and keeps the nonzero sums, so an
    entry that cancels at the model's values (Delta_r = -Delta_e) is
    dropped, and it copies every array it keeps.  ``sensitivity`` names
    the parameter paths whose forward sensitivities :meth:`rhs_sensitivity`
    integrates; such a model also keeps the same triplets once per row of
    the stacked state, with dL0's entries for the paths that move a rate
    or detuning, and the affine map that gives every coefficient of its
    product (:func:`_coefficient_map`).  The dark-state block is kept
    when xi != 0 or when one of those parameters moves xi.  The only dense rows kept are those of sigma_RR
    and sigma_SS, for the Jacobian's rank-1 xi term and the sampled
    populations.

    The model lives on the coordinates the run can reach from its initial
    state (``rho0``, default |G, m=0><G, m=0|, and ``a0``): those a chain
    of nonzero generator entries leads to from the initial state's support.
    The chain may pass through every unit block the run can switch on: the
    units of L0 with a nonzero rate or detuning, the dark-state block when
    it is kept, the units that the derivative of L0 for a sensitivity
    weights, and each quadrature's cavity-coupling block, L1 for Re<a> and
    L2 for Im<a>, once that quadrature can leave 0.  Re<a> can when a0 has
    a real part, when Im<beta> is nonzero on what the chain reaches, or
    through Delta_c from Im<a>; Im<a> can when alpha != 0, when a0 has an
    imaginary part, when Re<beta> is nonzero on what the chain reaches, or
    through Delta_c from Re<a>.  A sensitivity that moves alpha or Delta_c
    counts as alpha or Delta_c does.  The closure and the two tests repeat
    until neither changes.  No entry leads out of that set, so every other
    coordinate stays zero along the run and is dropped; from the empty
    cavity the dark state S has no coherence with G or R, with xi = 0 it
    stays empty, and on resonance Re<a> (which keeps its place in y) stays
    0, with every coordinate only L1 would reach.
    """

    def __init__(self, params: PhysicalParams, nmax: int = DEFAULT_NMAX,
                 n_b: float | None = None, sensitivity=(),
                 rho0: np.ndarray | None = None, a0: complex = 0.0):
        self.nmax = nmax = _check_nmax(nmax)
        self.sensitivity = require_float_paths(params, sensitivity,
                                               "the bubble model")
        st = _structure(nmax)
        self.params = params
        d = self.dim = st.ops.dim
        sc = _scalars(params, n_b)
        self.n_b = sc.n_b
        self.xi_a = sc.xi
        self.alpha_a = sc.alpha
        self.gamma_c_a = sc.gamma_c
        self.dc_a = sc.delta_c
        self.g_nb_a = sc.g_nb
        self.prefactor_a = sc.prefactor
        derivs = [_Scalars(*ds) for ds in               # one per path
                  zip(*_scalar_rows(params, n_b, sc, self.sensitivity))]

        # the weights of the stack's terms, (block, unit) as in _layout,
        # and of the trace rows; dL0 is L0 at the rows of the rates and
        # detunings, so only parameters that move one of them need its
        # product
        dark = bool(self.xi_a != 0.0 or any(ds.xi != 0.0 for ds in derivs))
        coefs = [*sc[:6], sc.g_nb, sc.g_nb] + [1.0] * dark + [1.0]
        nb = self._nblocks = 3 + dark
        moved = [k for k, ds in enumerate(derivs) if any(ds[:6])]
        dl0_coefs = [derivs[m][k] for m in moved for k in range(6)]

        basis = st.basis
        if rho0 is None:
            r0 = np.zeros(d * d)
            r0[0] = 1.0                            # |G, m=0>
        else:
            rho0 = np.asarray(rho0, complex).reshape(-1)
            r0 = (basis.a.conj() * rho0[basis.p]
                  + basis.b.conj() * rho0[basis.q]).real
        a0 = complex(a0)
        term_units = [*range(6), _L1, _L2, _L3][:nb + 5]
        switched = {k for k, c in zip(term_units, coefs) if c != 0.0}
        switched.update(k for m in moved for k in range(6) if derivs[m][k] != 0.0)
        lay = _layout(
            nmax, tuple(sorted(switched)),
            bool(self.alpha_a != 0.0 or any(ds.alpha for ds in derivs)),
            bool(self.dc_a != 0.0 or any(ds.delta_c for ds in derivs)),
            a0.real != 0.0, a0.imag != 0.0, np.packbits(r0 != 0.0).tobytes(),
            dark, len(moved))

        n = self.nrho = lay.keep.size              # rho coordinates
        self.npop = lay.npop                       # populations lead
        self.size = n + 2                          # state-vector length
        self._rho_index = lay.rho_index.copy()
        self._rho_coef = lay.rho_coef.copy()
        # the stacked generator [L0; L1; L2; L3] and after it the rows w_RR,
        # Re w_beta, Im w_beta, as triplets, one per nonzero
        sums = lay.stack.sums(coefs)
        nonzero = sums != 0.0
        self._rows, self._cols = lay.stack.rows[nonzero], lay.stack.cols[nonzero]
        self._vals = sums[nonzero]
        self._blocks = lay.blocks[nonzero]
        self._jac_index = lay.jac_index[nonzero]
        self._w_rr = lay.w_rr.copy()
        self._rr_cols = lay.rr_cols.copy()
        self._w_ss = lay.w_ss.copy()
        self._y0 = np.concatenate((r0[lay.keep], [a0.real, a0.imag]))
        if derivs:
            # rhs_sensitivity gathers the triplets once per row j of z, their
            # columns shifted into that row.  Its bincount, read as rows of
            # length n + 2, holds row j's block b in row j * nb + b, then
            # dL0 r of each moved path, then two unit rows that carry the
            # cavity rows through the coefficient product; after them come
            # each z row's three trace values and, at weight 1, its <a>
            q, m, blocks = len(derivs) + 1, n + 2, self._blocks
            rows, cols = self._rows, self._cols
            gen = rows < nb * n
            units = q * nb + len(moved) + np.arange(2)
            self._z_units = units * m + [n, n + 1]
            tail = self._z_tail = (units[-1] + 1) * m
            self._z_len = tail + 5 * q
            copies = np.arange(q)[:, None]
            z_rows = [np.where(gen, (nb * copies + blocks) * m + rows % n,
                               tail + 5 * copies + blocks - nb),
                      tail + 5 * copies + [3, 4]]
            z_cols = [cols + m * copies, m * copies + [n, n + 1]]
            z_vals = [np.tile(self._vals, q), np.ones(2 * q)]
            if moved:
                dv = lay.dl0.sums(dl0_coefs)
                nonzero = dv != 0.0
                dr = lay.dl0.rows[nonzero]
                z_rows.append((q * nb + dr // n) * m + dr % n)
                z_cols.append(lay.dl0.cols[nonzero])
                z_vals.append(dv[nonzero])
            self._z_rows, self._z_cols, self._z_vals = (
                np.concatenate(a, axis=None) for a in (z_rows, z_cols, z_vals))
            self._gain = sc.gain
            self._dgain = np.array([ds.gain for ds in derivs])
            self._B, self._b0 = _coefficient_map(sc, derivs, nb, moved)

    # --- state layout: y[:nrho] = coefficients of rho on the model's
    #     Hermitian basis elements (its npop populations first),
    #     y[nrho] = Re<a>, y[nrho+1] = Im<a> --------------------------------

    def initial_flat(self) -> np.ndarray:
        """The model's initial state vector (``rho0`` and ``a0``)."""
        return self._y0.copy()

    def _products(self, y) -> np.ndarray:
        """The block products L_b r, then w_RR . r, Re w_beta . r and
        Im w_beta . r: one ``np.bincount`` of the triplets."""
        return np.bincount(self._rows, self._vals * y[self._cols],
                           minlength=self._nblocks * self.nrho + 3)

    def rhs_flat(self, t, y):
        n, nb = self.nrho, self._nblocks
        prods = self._products(y)
        ar, ai = y[n:].tolist()
        rr, beta_re, beta_im = prods[nb * n:].tolist()
        out = np.empty(n + 2)
        out[:n] = [1.0, ar, ai, self.xi_a * rr][:nb] @ prods[:nb * n].reshape(nb, n)
        out[n] = -self.gamma_c_a * ar - self.dc_a * ai + self.prefactor_a * beta_im
        out[n + 1] = (self.dc_a * ar - self.gamma_c_a * ai
                      - self.prefactor_a * beta_re - self.alpha_a)
        return out

    def rhs_sensitivity(self, t, z):
        """Right-hand side of the stacked state z = [y, s_1, ..., s_p].

        s_k = dy/dtheta_k for the k-th path of ``sensitivity``, and
        ds_k/dt = J s_k + df/dtheta_k.  J s_k collects the block products
        of s_r, the cavity columns s_ar L1 r and s_ai L2 r, the rank-1 term
        xi (w_RR . s_r) L3 r and the cavity rows applied to s_k.  In
        df/dtheta_k the L1, L2 and L3 parts only rescale products of r the
        state row has anyway, dL0 r is one more product (only for a
        parameter that moves a rate or detuning), and the cavity part is a
        map of the state's cavity values.  One ``np.bincount`` over the
        triplets gathered once per row of z gives every block product, the
        dL0 products, and each row's trace values and cavity amplitude.
        Every coefficient that combines those products is affine in these
        5 (1 + p) tail values, so the model builds the map once
        (:func:`_coefficient_map`) and a call reads the coefficients as
        B @ tail + b0.  Read as rows of length n + 2, the products end in
        two unit rows, so one coefficient product assembles every row of
        the output, its cavity values included.
        """
        prods = np.bincount(self._z_rows, self._z_vals * z[self._z_cols],
                            minlength=self._z_len)
        prods[self._z_units] = 1.0
        coef = self._B @ prods[self._z_tail:] + self._b0
        return np.dot(coef.reshape(len(self.sensitivity) + 1, -1),
                      prods[:self._z_tail].reshape(-1, self.nrho + 2)).reshape(-1)

    def jacobian(self, y) -> np.ndarray:
        """Exact Jacobian df/dy of :meth:`rhs_flat` at y, ``size`` square.

        J_rr = L0 + Re<a> L1 + Im<a> L2 + xi (w_RR . r) L3 + xi (L3 r) w_RR^T,
        the columns L1 r and L2 r for (Re, Im)<a>, the cavity rows
        +-prefactor w_beta and the 2 x 2 cavity map.  One ``bincount`` of
        the weighted triplets gives J_rr's blocks and the cavity rows.
        """
        n, nb, size = self.nrho, self._nblocks, self.size
        prods = self._products(y)
        pf = self.prefactor_a
        coef = np.array([1.0, y[n], y[n + 1], self.xi_a * prods[nb * n]][:nb]
                        + [0.0, -pf, pf])
        # astype: bincount counts in ints when there is no entry at all
        jac = np.bincount(self._jac_index, coef[self._blocks] * self._vals,
                          minlength=size * size).reshape(size, size).astype(
                              float, copy=False)
        if self.xi_a != 0.0:   # w_RR is nonzero on the R populations only
            jac[:n, self._rr_cols] += np.outer(self.xi_a * prods[3 * n:4 * n],
                                               self._w_rr[self._rr_cols])
        jac[:n, n] = prods[n:2 * n]
        jac[:n, n + 1] = prods[2 * n:3 * n]
        jac[n:, n:] = [[-self.gamma_c_a, -self.dc_a],
                       [self.dc_a, -self.gamma_c_a]]
        return jac

    def transmission_gradient(self, z) -> np.ndarray:
        """dT/dtheta_k of stacked states z (one per row), shape (rows, p).

        T = gain |<a>|^2 with gain = gamma_c^2 / alpha^2, so dT/dtheta_k =
        2 gain (Re<a> s_ar + Im<a> s_ai) + |<a>|^2 dgain/dtheta_k.  Needs a
        model built with ``sensitivity``.
        """
        cav = np.asarray(z).reshape(len(z), -1, self.size)[:, :, self.nrho:]
        a = cav[:, 0]
        return (2.0 * self._gain * np.einsum("ik,ijk->ij", a, cav[:, 1:])
                + np.sum(a * a, axis=1)[:, None] * self._dgain)

    def cavity_amplitude(self, y) -> complex:
        return complex(y[self.nrho], y[self.nrho + 1])

    def transmission(self, y) -> np.ndarray:
        """gamma_c^2 |<a>|^2 / alpha^2 (0 at alpha = 0) of the state y, or
        of each row of a matrix of states."""
        y = np.asarray(y)
        if self.alpha_a == 0.0:
            return np.zeros(y.shape[:-1])
        return (self.gamma_c_a**2 * np.hypot(y[..., self.nrho], y[..., self.nrho + 1])**2
                / self.alpha_a**2)

    def trace(self, y) -> float:
        return float(y[: self.npop].sum())  # the populations lead

    def rho_matrix(self, y) -> np.ndarray:
        r = self._rho_coef * np.tile(y[: self.nrho], 2)
        d2 = self.dim * self.dim
        rho = np.empty(d2, dtype=complex)
        rho.real = np.bincount(self._rho_index, r.real, minlength=d2)
        rho.imag = np.bincount(self._rho_index, r.imag, minlength=d2)
        return rho.reshape(self.dim, self.dim)

    def state_from_flat(self, y, t: float) -> BubbleState:
        return BubbleState(rho=self.rho_matrix(y), a=self.cavity_amplitude(y),
                           t=t)


@dataclass
class TimeSeries:
    """Sampled bubble evolution: transmission plus state diagnostics."""

    t: np.ndarray
    transmission: np.ndarray
    pop_R: np.ndarray
    pop_S: np.ndarray
    trace_error: np.ndarray
    metadata: dict = field(default_factory=dict)
    states: list[BubbleState] | None = None
    dT_dtheta: np.ndarray | None = None  # (samples, p); evolve(sensitivity=paths)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("sample times must be strictly increasing")

    header = "t_us,transmission,pop_R,pop_S,trace_error"


_TRACE_DRIFT_LIMIT = 1e-6
#: evolve integrates at this fraction of its rtol and atol.  At the full
#: tolerances the stiff run's global error in T is 2-4 rtol of the peak
#: (nmax 2, rtol 1e-6, xi 0-2.3; scipy's BDF gives the same), so two runs
#: with different step sequences differ by as much; at a quarter it is
#: 0.8-1.6 rtol of the peak
_STIFF_TOL_SCALE = 0.25


def evolve(params: PhysicalParams, t_end: float, dt: float = 0.5,
           nmax: int = DEFAULT_NMAX, rtol: float = 1e-8, atol: float = 1e-10,
           n_b: float | None = None, sample_times=None,
           keep_states: bool = False, sensitivity=()) -> TimeSeries:
    """Integrate the bubble model and sample transmission and populations.

    Starts at t = 0 from the empty cavity with all atoms in the ground
    state.  The Hermitian-basis parametrization keeps rho exactly
    Hermitian; a trace drift beyond 1e-6 at a sample raises
    IntegrationError after the run, naming the first such sample's time.
    The model is stiff once its fast oscillating start has passed, so
    :func:`rydcav.ode.integrate` gets the exact Jacobian
    (:meth:`BubbleModel.jacobian`): the explicit pair takes the start and
    the NDF/BDF the stiff rest (it hands back where its steps stay short),
    at a quarter of ``rtol`` and ``atol`` (``_STIFF_TOL_SCALE``).  NDF
    samples are interpolated from its backward-difference polynomial, which
    keeps Tr rho at every sample as the steps do.  Without ``sample_times``
    the samples are 0, dt, ..., t_end, so ``t_end`` must be a whole
    multiple of ``dt``.  ``rtol`` and ``atol`` must be finite and > 0,
    else ValueError with the value given.

    ``sensitivity`` names parameter paths theta_k (``"rydberg.xi"``,
    ``"drive.alpha"``, ...).  Their forward sensitivities s_k = dy/dtheta_k
    (zero at t = 0) are integrated in the same run, under the same error
    control, and ``dT_dtheta[:, k]`` holds dT/dtheta_k at each sample, per
    unit of the parameter.  The step's error is the larger of the state's
    and each sensitivity's own RMS norm, so the sensitivities never loosen
    the control of the state.  One inverse of W = I - c J, J of the state
    alone, serves the state and every sensitivity (the simultaneous
    corrector of CVODES).  The source terms df/dtheta_k are exact
    (:func:`_scalar_rows`).  Before any step, a bare string, a path given
    twice, or a path that is not a float parameter
    (:data:`rydcav.params.FLOAT_PATHS`) or whose value is None raises
    ValueError, an unknown path KeyError
    (:func:`rydcav.params.require_float_paths`), and a path that moves the
    coupling where g sqrt(n_b) = 0 (the cooperativity at C = 0) raises
    SolverError.

    ``metadata["solver"]`` records the run's work: the model's
    ``coordinates`` (the length of y), the right-hand-side evaluations
    ``nfev``, the ``accepted_steps`` and ``rejected_steps``, and the
    ``jacobian_evals`` and ``inversions`` of W; and how well it kept the
    trace, ``max_trace_drift``, the largest |Tr rho - 1| over the samples.
    Each call logs the counts in one DEBUG record on the ``rydcav`` logger.
    """
    rtol = require_positive("rtol", rtol)
    atol = require_positive("atol", atol)
    if sample_times is None:
        t_end = require_positive("t_end", t_end)
        dt = require_positive("dt", dt)
        nsteps = int(round(t_end / dt))
        if abs(nsteps * dt - t_end) > 1e-9 * t_end:
            raise ValueError(f"t_end={t_end:g} is not a whole multiple of dt={dt:g}")
        sample_times = np.linspace(0.0, nsteps * dt, nsteps + 1)
    else:
        sample_times = np.asarray(sample_times, dtype=float)

    model = BubbleModel(params, nmax=nmax, n_b=n_b, sensitivity=sensitivity)

    rhs, y0 = model.rhs_flat, model.initial_flat()
    if model.sensitivity:   # samples are [y, s_1..]; y leads
        rhs = model.rhs_sensitivity
        y0 = np.concatenate((y0, np.zeros(len(model.sensitivity) * y0.size)))
    samples, stats = integrate(rhs, 0.0, y0, sample_times,
                               rtol=_STIFF_TOL_SCALE * rtol,
                               atol=_STIFF_TOL_SCALE * atol,
                               parts=1 + len(model.sensitivity),
                               jac=lambda t, y: model.jacobian(y))

    ys = samples[:, :model.size].real
    r = ys[:, :model.nrho]
    terr = np.abs(ys[:, :model.npop].sum(axis=1) - 1.0)
    if terr.max() > _TRACE_DRIFT_LIMIT:
        i = np.argmax(terr > _TRACE_DRIFT_LIMIT)   # the first such sample
        raise IntegrationError(f"trace drift {terr[i]:g} exceeds "
                               f"{_TRACE_DRIFT_LIMIT:g} at t={sample_times[i]:g} us")
    states = ([model.state_from_flat(y, float(t)) for y, t in zip(ys, sample_times)]
              if keep_states else None)

    dT_dtheta = model.transmission_gradient(samples) if model.sensitivity else None
    solver = {"coordinates": model.size, **stats._asdict(),
              "max_trace_drift": float(terr.max())}
    _log.debug("bubble evolve (nmax %d, %d coordinates) to t = %g us: "
               "%d rhs evaluations, %d accepted and %d rejected steps, "
               "%d Jacobian evaluations, %d inversions",
               model.nmax, model.size, sample_times[-1], *stats)
    meta = {"params": params_to_dict(params), "nmax": model.nmax, "rtol": rtol,
            "n_b": model.n_b, "solver": solver}
    return TimeSeries(sample_times, model.transmission(ys), r @ model._w_rr,
                      r @ model._w_ss, terr, metadata=meta, states=states,
                      dT_dtheta=dT_dtheta)


@dataclass
class SteadyBubbleResult:
    """Steady bubble-model transmission and how the solve ended.

    ``t_final`` is the pseudo-time (us) the continuation reached, at most
    ``t_max``; ``newton_iterations`` counts its iterations; ``residual`` is
    the max-norm of the bordered residual (f(y) with its first row replaced
    by Tr rho - 1) at the state whose transmission is reported; ``verdict``
    says how the solve ended (``"stable"`` for an accepted root);
    ``coordinates`` is the length of the model's state vector, the
    coordinates the solve and its verdict cover.
    """

    transmission: float
    converged: bool
    t_final: float
    newton_iterations: int
    residual: float
    verdict: str
    coordinates: int


#: absolute tolerance of the steady solve's steps
_STEADY_ATOL = 1e-10
#: first pseudo-time step (us) of the continuation
_PTC_DT0 = 0.05
#: largest growth of the pseudo-time step in one iteration
_PTC_GROWTH = 10.0
#: iterations after which the continuation counts as failed
_PTC_MAXITER = 100
#: a root whose rho has an eigenvalue below -_PSD_TOL is not a state
_PSD_TOL = 1e-8
#: a root with a non-trace eigenvalue of Re >= -_MARGINAL (rad/us) is not
#: accepted as stable
_MARGINAL = 1e-9
#: pseudo-time (us) after which the stability certificate stops squaring
#: its Crank-Nicolson propagator: it stops at 2^13 steps of _PTC_DT0,
#: 410 us, within the default t_max
_CERT_HORIZON = 400.0
#: a certificate power with a larger 1-norm is not squared (its square
#: could overflow)
_CERT_BLOWUP = 1e150


def _bordered_residual(model: BubbleModel, y) -> np.ndarray:
    """f(y) with its first row replaced by Tr rho - 1.

    The population rows of f sum to zero (the trace is conserved), so one
    of them is redundant; the trace condition takes its place.  On the
    model's coordinates, which leave out any sector nothing enters (S when
    xi = 0, Re<a> and its sector on resonance), Tr rho is the one conserved
    quantity, so the fixed point is isolated.
    """
    f = model.rhs_flat(0.0, y)
    f[0] = model.trace(y) - 1.0
    return f


def _ptc_step(model: BubbleModel, y, res, shift: float):
    """The step d of (shift I - J) d = f(y) on the bordered system, or None
    if its matrix is singular.

    Row 0 is the trace condition Tr(rho + d) = 1 instead (``res`` is the
    bordered residual at y); J is the exact Jacobian.  shift = 1/dt makes
    the step one implicit-Euler step of length dt, shift = 0 a Newton step.
    """
    mat = model.jacobian(y)
    mat[0] = 0.0
    mat[0, :model.npop] = 1.0
    diag = np.arange(1, model.size)
    mat[diag, diag] -= shift
    try:
        return np.linalg.solve(mat, -res)
    except np.linalg.LinAlgError:
        return None


def _restricted_jacobian(model: BubbleModel, y) -> np.ndarray:
    """J at y restricted to the hyperplane u . v = 0 of the trace functional.

    u (ones on the populations) is a left null vector of J, so the
    hyperplane is invariant and carries every eigenvalue but the trace
    mode's.  In the coordinates after the first, with v_0 = -sum of the
    other populations, the restriction is J[1:, 1:] - J[1:, 0] u[1:]^T.
    """
    jac = model.jacobian(y)
    restricted = jac[1:, 1:]
    restricted[:, :model.npop - 1] -= jac[1:, :1]
    return restricted


def _certify_stable(restricted) -> tuple[bool, int]:
    """(proved, squarings): whether every eigenvalue of ``restricted`` is
    shown to have Re < -_MARGINAL, and how many squarings that took.

    C = 2 (I - (h/2) R)^-1 - I with R = restricted + _MARGINAL I and
    h = _PTC_DT0 is the Crank-Nicolson propagator of R over one step h; it
    maps Re mu < 0 exactly onto |c| < 1.  As rho(C)^(2^k) <= ||C^(2^k)||,
    a power with 1-norm at most 1/2 proves rho(C) < 1.  C is squared until
    one does, or until the powers span _CERT_HORIZON or their norm passes
    _CERT_BLOWUP or is not finite; then nothing is proved.  So a marginal
    or unstable mode is never certified, nor is a stable one that does not
    halve within the horizon.
    """
    diag = np.diag_indices(len(restricted))
    shifted = (-0.5 * _PTC_DT0) * restricted
    shifted[diag] += 1.0 - 0.5 * _PTC_DT0 * _MARGINAL
    try:
        power = 2.0 * np.linalg.inv(shifted)
    except np.linalg.LinAlgError:
        return False, 0
    power[diag] -= 1.0
    squarings = 0
    while True:
        norm = np.abs(power).sum(axis=0).max()
        if norm <= 0.5:
            return True, squarings
        if not norm <= _CERT_BLOWUP or _PTC_DT0 * 2**squarings >= _CERT_HORIZON:
            return False, squarings
        power = power @ power
        squarings += 1


def _verdict(model: BubbleModel, y) -> tuple[bool, str, str]:
    """(accepted, verdict, what decided the stability) for the root y.

    The root must be a state (no eigenvalue of rho below -_PSD_TOL) and
    stable: every eigenvalue of the restricted Jacobian
    (:func:`_restricted_jacobian`) must have Re < -_MARGINAL.  The
    certificate of :func:`_certify_stable` shows this for a stable root in
    a few matrix products; only when it proves nothing are the eigenvalues
    computed.  A root with an eigenvalue within _MARGINAL of the imaginary
    axis or beyond it is rejected.
    """
    lowest = float(np.linalg.eigvalsh(model.rho_matrix(y)).min())
    if lowest < -_PSD_TOL:
        return (False, f"not a state (min eigenvalue of rho = {lowest:.3g})",
                "stability not tested")
    restricted = _restricted_jacobian(model, y)
    certified, squarings = _certify_stable(restricted)
    if certified:
        return True, "stable", f"stability certified in {squarings} squarings"
    decided = f"stability from the eigenvalues after {squarings} squarings"
    growth = float(np.linalg.eigvals(restricted).real.max())
    if growth < -_MARGINAL:
        return True, "stable", decided
    kind = "unstable" if growth > _MARGINAL else "marginal"
    return False, f"{kind} (max Re = {growth:.3g} rad/us)", decided


def steady_transmission_bubble(params: PhysicalParams, *, t_max: float = 500.0,
                               nmax: int = DEFAULT_NMAX, rtol: float = 1e-8,
                               n_b: float | None = None) -> SteadyBubbleResult:
    """Steady transmission: the fixed point of the model that pseudo-transient
    continuation reaches from the empty cavity with all atoms in the ground
    state.

    Each iteration solves (I/dt - J) d = f(y), with the first row replaced
    by Tr rho = 1 and J the exact Jacobian, on the coordinates the model
    keeps (the dark state S is dropped when xi = 0, Re<a> and its sector on
    resonance; :class:`BubbleModel`), which leaves Tr rho as the one
    conserved quantity (Kelley & Keyes, SIAM J. Numer. Anal. 35, 508,
    1998).  dt starts at 0.05 us and grows by switched evolution
    relaxation, dt <- dt |f_old| / |f_new| on the rows after the first, at
    most tenfold per step, so the first steps follow an implicit-Euler
    trajectory of the dynamics and the last ones are Newton steps.  Once the
    summed pseudo-time reaches ``t_max`` (us) the I/dt term is dropped:
    the remaining iterations are plain Newton.  The solve stops at a step
    below 1e-10 + ``rtol`` |y| in every component.  Nothing proves that
    the root is the fixed point the evolution would settle on if the model
    had several; the tests compare it with long evolutions at weak and
    strong drive.

    The result is ``converged`` only when that root is a density matrix
    (no eigenvalue below -1e-8) and stable: every eigenvalue of the
    Jacobian except the trace mode has Re < -1e-9 rad/us.  The verdict
    covers the model's coordinates (``coordinates`` of the result): a
    perturbation into a sector the model drops is not tested.  A stable
    root is usually shown so by a few squarings of the Crank-Nicolson
    propagator of that Jacobian (:func:`_certify_stable`); the eigenvalues
    are computed only when they prove nothing.  A root with an eigenvalue
    within 1e-9 rad/us of the imaginary axis is rejected as marginal, one
    beyond it as unstable; the solve never integrates the dynamics.
    ``rtol`` must be finite and >= 0, else ValueError before any work.  A
    rejected root, a singular matrix, a non-finite step or 100 iterations
    without a root end the solve with converged=False and the transmission
    of the last finite iterate; the loop is deterministic and a root is a
    fixed point of every later step, so there is nothing to retry.

    Each call logs one DEBUG record on the ``rydcav`` logger: the model's
    coordinates, the iterations, pseudo-time and residual, whether the
    certificate or the eigenvalues decided the stability and after how many
    squarings, and the verdict.
    """
    require_positive("t_max", t_max)
    require_positive("rtol", rtol, allow_zero=True)
    model = BubbleModel(params, nmax=nmax, n_b=n_b)
    y = model.initial_flat()
    res = _bordered_residual(model, y)
    t, dt = 0.0, _PTC_DT0
    converged = False
    verdict = f"no root in {_PTC_MAXITER} iterations"
    decided = "stability not tested"
    for iterations in range(1, _PTC_MAXITER + 1):
        step = _ptc_step(model, y, res, 1.0 / dt if t < t_max else 0.0)
        if step is None or not np.isfinite(step).all():
            verdict = "singular matrix" if step is None else "non-finite step"
            break
        t = min(t + dt, t_max)
        y = y + step
        old, res = np.linalg.norm(res[1:]), _bordered_residual(model, y)
        if np.all(np.abs(step) <= _STEADY_ATOL + rtol * np.abs(y)):
            converged, verdict, decided = _verdict(model, y)
            break
        new = np.linalg.norm(res[1:])
        dt *= _PTC_GROWTH if _PTC_GROWTH * new <= old else old / new
    result = SteadyBubbleResult(float(model.transmission(y)), converged, float(t),
                                iterations, float(np.abs(res).max()), verdict,
                                model.size)
    _log.debug("bubble steady solve (nmax %d, %d coordinates): %d iteration(s) "
               "to pseudo-time %g us, residual %.3g, %s, %s, converged=%s", nmax,
               model.size, iterations, t, result.residual, decided, verdict,
               converged)
    return result
