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
247 (198) detuned, instead of 21^2 + 2 = 443.  r is ordered by the
excitation-difference sector |N_ket - N_bra| of each basis element
(N = m + [s != G]): sector 0 first, its populations leading, so Tr rho is
the sum of the first entries of r, then |k| = 2, 3, ..., and |k| = 1 last,
next to the cavity pair.  At the empty cavity the Newton matrix of the
steady solve is then block diagonal in contiguous slices, one per sector.

Everything but six rates and detunings, g sqrt(n_b) and xi is the same
for every model at one nmax: the operators, the Hermitian basis, the
trace rows and the generator's nine unit blocks in that basis (L0 per
unit of each rate and detuning, the cavity-coupling blocks per unit of
g sqrt(n_b), the dark-state block).  :func:`_structure` builds them once
per nmax from the operators' nonzeros, keeps the blocks as sparse (rows,
cols, values) triplets and marks every array read-only.

A model integrates the stacked state z = [y, s_1, ..., s_p]: the state
vector y and its forward sensitivities s_k = dy/dtheta_k with respect to
named parameters theta_k (ds_k/dt = J s_k + df/dtheta_k, J the exact
Jacobian of the right-hand side, built from the same generator blocks),
which give the exact derivatives dT/dtheta_k of the sampled transmission
from one run.  A plain model is the case p = 0, so one right-hand side,
:meth:`BubbleModel.rhs_flat`, serves every run.  Which coordinates a
model keeps, where each unit entry lands in its gather and where each
scalar lands in its coefficient map depend on its structure alone: which
unit blocks it switches on, the support of its initial state, which
parameters move L0 and how many rows z has.  :func:`_layout` derives
them once per structure and caches them the same way, so a build only
weights the laid-out unit entries, sums them with one ``np.bincount``,
drops the sums that are exactly 0 and copies what it keeps.
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
    nmax = _check_nmax(nmax)
    dim = 3 * (nmax + 1)
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
    per bubble and ``v_b`` the blockade volume it comes from (NaN where
    n_b is given).  The same tuple of (p,) rows holds the derivatives of the
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
    v_b: complex


def _scalars(params: PhysicalParams, n_b: float | None) -> _Scalars:
    """The model's scalars; n_b comes from the blockade volume unless given.

    Only V_b is needed for n_b, so kappa, which the bubble model never
    reads, is not computed (nor can its V = V_b singularity fail here).
    Where the blockade chain is singular V_b is NaN, and
    :func:`rydcav.interactions.atoms_per_bubble` raises
    SingularParameterError.  A given n_b must lie in [1, N], the range a
    computed one is clamped to; ValueError otherwise.
    """
    ens, ryd, drv, cav = (params.ensemble, params.rydberg, params.drive,
                          params.cavity)
    v_b = complex("nan")
    if n_b is None:
        D_e, D_r, _ = params.complex_detunings()
        v_b = interactions.blockade_volume(D_e, D_r, drv.omega_cf,
                                           interactions.c6_coefficient(ryd))
        n_b = interactions.atoms_per_bubble(ens.atom_number, v_b, ens.cloud_volume)
    n_b = require_positive("n_b", n_b)
    if not 1.0 <= n_b <= ens.atom_number:
        raise ValueError(f"n_b must lie in [1, N] = [1, {ens.atom_number}] "
                         f"atoms per bubble, got {n_b:g}")
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
        gain=0.0 if alpha_a == 0.0 else gc_a**2 / alpha_a**2, n_b=n_b, v_b=v_b)


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
    clamped to a bound of [1, N] or no path moves an input of the blockade
    chain.
    ``paths`` pass :func:`rydcav.params.require_float_paths` (ValueError
    naming a path that is not a float parameter or whose value is None,
    KeyError for an unknown one); a path that moves (g sqrt(n_b))^2 where
    g sqrt(n_b) = 0, which goes there as the square root of the parameter,
    raises SolverError naming it.
    """
    if not paths:
        return _Scalars(*[np.zeros(0)] * len(_Scalars._fields))
    require_float_paths(params, paths, "the bubble model")

    def unit(name):
        return np.array([float(path == name) for path in paths])

    ens, zero = params.ensemble, np.zeros(len(paths))
    d_dp, d_dcf = unit("drive.delta_p"), unit("drive.delta_cf")
    d_om, d_alpha = unit("drive.omega_cf"), unit("drive.alpha")
    d_ge, d_gc = unit("ensemble.gamma_e"), unit("cavity.gamma_c")
    d_gr, d_volume = unit("rydberg.gamma_r"), unit("ensemble.cloud_volume")
    d_c6 = unit("rydberg.c6_override")
    dn_b, dv_b = zero, 0j * zero
    if (n_b is None and 1.0 < sc.n_b < ens.atom_number   # computed, not clamped
            and np.any((d_dp, d_dcf, d_ge, d_gr, d_om, d_c6, d_volume))):
        D_e, D_r, _ = params.complex_detunings()
        dv_b, *_ = interactions.blockade_derivative(
            params, D_e, D_r, params.drive.omega_cf, sc.v_b,
            d_dp + 1j * d_ge, d_dp + d_dcf + 1j * d_gr, d_om, d_c6)
        dn_b = sc.n_b * ((sc.v_b.conjugate() * dv_b).real / abs(sc.v_b) ** 2
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
        alpha=to_angular(d_alpha), gain=d_gain, n_b=dn_b, v_b=dv_b)


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
    """A weighted sum of unit entries into ``size`` positions: entry e
    holds ``values[e]``, takes the weight at ``weight[e]`` and goes to
    position ``inverse[e]``; the entries come term by term."""

    values: np.ndarray
    weight: np.ndarray
    inverse: np.ndarray
    size: int

    def sums(self, weights) -> np.ndarray:
        """The sum at each position for the array ``weights``; each adds
        its terms' products in term order, as :func:`_merged` does."""
        return np.bincount(self.inverse, weights[self.weight] * self.values, self.size)


class _Layout(NamedTuple):
    """What a model's structure alone fixes; see :func:`_layout`.

    ``keep`` are the kept basis coordinates, ``npop`` how many of them are
    populations, ``rho_index`` and ``rho_coef`` their entries in vec(rho),
    ``w_rr`` and ``w_ss`` the rows of sigma_RR and sigma_SS on them and
    ``rr_cols`` where w_RR is nonzero.  ``gather`` sums the unit entries
    into the entries of :meth:`BubbleModel.rhs_flat`'s ``bincount``, which
    lie at (``z_rows``, ``z_cols``).  Row 0's stack comes first, with
    ``blocks`` and ``jac_index`` per entry (:meth:`BubbleModel.jacobian`);
    ``units`` are the bincount's two unit entries, ``tail`` where its tail
    values start, and ``coefficients`` the slots of the coefficient map
    (:func:`_coefficient_map`).  ``keep`` runs by sector |N_ket - N_bra|,
    the difference of the excitation numbers N = m + [s != G] of its basis
    element's ket and bra (:func:`_layout`), and y's slice of sector i
    spans ``edges[i]:edges[i + 1]``; the last slice, |k| = 1, ends with the
    two cavity coordinates.  The steady solve's Newton matrix at the empty
    cavity (:func:`_deflated_jacobian`) is block diagonal in these slices,
    its rank-1 trace term on the populations included, as they lead the
    k = 0 slice (:func:`_block_inverse`).
    """

    keep: np.ndarray
    npop: int
    rho_index: np.ndarray
    rho_coef: np.ndarray
    w_rr: np.ndarray
    rr_cols: np.ndarray
    w_ss: np.ndarray
    gather: _Sum
    z_rows: np.ndarray
    z_cols: np.ndarray
    blocks: np.ndarray
    jac_index: np.ndarray
    units: np.ndarray
    tail: int
    coefficients: tuple
    edges: tuple


#: the layouts cached per process.  A key is one structure, and a run uses
#: few; an entry takes 0.01-0.2 MB for a plain model at nmax 2-6 and up to
#: 0.5 MB with two sensitivity paths
_LAYOUT_CACHE = 32


@functools.lru_cache(maxsize=_LAYOUT_CACHE)
def _layout(nmax: int, switched: tuple, driven: bool, coupled: bool,
            a0_re: bool, a0_im: bool, support: bytes, moved: tuple,
            q: int) -> _Layout:
    """The coordinates a model reaches and the layout of its gather.

    They depend on the structure alone: the unit blocks ``switched`` on,
    whether alpha (``driven``) and Delta_c (``coupled``) can move <a>,
    whether a0 has a real and an imaginary part, the support of the
    initial rho (``support``, the bytes of r0 != 0), which paths move L0
    (``moved``) and the rows q = 1 + p of the stacked state; see
    :class:`BubbleModel`.  The stack keeps the unit blocks switched on,
    the dark-state block L3 among them when the model keeps it.  A build
    weights the unit entries laid out here and drops the entries whose
    sums are exactly 0, which depend on the values.  Every array is
    read-only.

    The kept coordinates come in order of their sector |k| = |N_ket -
    N_bra|, in basis order within one: k = 0, led by the populations,
    then |k| = 2, 3, ..., and |k| = 1 last, so that the cavity pair at
    y[n], y[n + 1] closes its slice.  Every term of L0 conserves N, and at
    the empty cavity the rest of the Jacobian couples only the cavity
    pair and |k| = 1 (:func:`_block_inverse`), so there the Newton matrix
    is block diagonal in these contiguous slices.
    """
    st = _structure(nmax)
    d = st.ops.dim
    live = np.frombuffer(support, bool)
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

    # each basis element's sector |N_ket - N_bra| as its rank in y, with
    # |k| = 1 ranked last (see above)
    ket, bra = (i // 3 + (i % 3 != _G) for i in np.divmod(st.basis.p, d))
    rank = np.abs(ket - bra)
    rank[rank == 1] = d
    keep = np.flatnonzero(live)
    keep = keep[np.argsort(rank[keep], kind="stable")]
    n = keep.size
    m = n + 2
    pos = np.zeros(d * d, dtype=int)
    pos[keep] = np.arange(n)
    nb = 4 if _L3 in switched else 3
    top = nb * n + 5                       # the stack's rows
    w_rows = st.w_rows[:, keep]
    wr, wc = np.nonzero(w_rows)

    def unit(row, k):
        """Unit k's entries on the kept coordinates from row ``row`` on, as
        (keys row * m + col, values)."""
        rows, cols, v = st.units[k]
        sel = live[rows] & live[cols]
        return (row + pos[rows[sel]]) * m + pos[cols[sel]], v[sel]

    # the stack: the generator [L0; L1; L2; L3] of the units switched on
    # and its five tail rows w_RR, Re w_beta, Im w_beta and the unit rows
    # that read Re<a>, Im<a>.  The gather holds it once per row j of z,
    # from row j * top on, and then dL0 of each moved path; one term per
    # part, in this order, with the index of its weight in the build's
    # weights: unit k's k, the tail rows' 9, path i's dL0 unit k's
    # 10 + 6 i + k
    stack = ([(*unit({_L1: n, _L2: 2 * n, _L3: 3 * n}.get(k, 0), k), k)
              for k in switched]
             + [(np.concatenate(((nb * n + wr) * m + wc,
                                 (top - 2 + np.arange(2)) * m + [n, n + 1])),
                 np.concatenate((w_rows[wr, wc], [1.0, 1.0])), 9)])
    parts = ([(j * top * m + keys, v, w) for j in range(q) for keys, v, w in stack]
             + [(*unit(q * top + i * n, k), 10 + 6 * i + k)
                for i in range(len(moved)) for k in range(6)])
    keys, inverse = np.unique(np.concatenate([p[0] for p in parts]),
                              return_inverse=True)
    rows, c = keys // m, keys % m
    j, r = np.divmod(rows, top)            # row j of z, row r of its stack
    dl0 = rows - q * top                   # path i's row r of dL0 at i * n + r
    gen = r < nb * n
    # read as rows of length m, the bincount holds row j's block b in row
    # j * nb + b, then dL0 r of each moved path, then two unit rows that
    # carry the cavity rows through the coefficient product; after them,
    # from ``tail`` on, each z row's five tail values
    units = q * nb + len(moved) + np.arange(2)
    tail = int(units[-1] + 1) * m
    nstack = int(np.searchsorted(rows, top))
    r0, c0, gen0 = r[:nstack], c[:nstack], gen[:nstack]
    # the Jacobian weighs block b by coef[b] and the tail rows by 0,
    # -prefactor, +prefactor, 0 and 0 into its cavity row n, n + 1, n, n, n
    lay = _Layout(
        keep=keep, npop=int(np.count_nonzero(live[:d])),   # populations lead
        # the kept basis columns' entries: coordinate k adds a[k] y[k] at
        # p[k] of vec(rho) and b[k] y[k] at q[k]
        rho_index=np.concatenate((st.basis.p[keep], st.basis.q[keep])),
        rho_coef=np.concatenate((st.basis.a[keep], st.basis.b[keep])),
        w_rr=w_rows[0], rr_cols=np.flatnonzero(w_rows[0]), w_ss=st.w_ss[keep],
        gather=_Sum(np.concatenate([p[1] for p in parts]),
                    np.repeat([p[2] for p in parts], [p[0].size for p in parts]),
                    inverse, keys.size),
        z_rows=np.where(dl0 >= 0, (q * nb + dl0 // n) * m + dl0 % n,
                        np.where(gen, (nb * j + r // n) * m + r % n,
                                 tail + 5 * j + r - nb * n)),
        z_cols=np.where(dl0 >= 0, c, c + m * j),
        blocks=np.where(gen0, r0 // n, r0 - nb * n + nb),
        jac_index=np.where(gen0, r0 % n, n + (r0 == nb * n + 1)) * m + c0,
        units=units * m + [n, n + 1], tail=tail,
        coefficients=_coefficient_map(q, nb, moved),
        edges=(0, *(np.flatnonzero(np.diff(rank[keep], append=d)) + 1).tolist(),
               n + 2))
    for arr in (*lay, *lay.gather, *lay.coefficients):
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return lay


def _coefficient_map(q: int, nb: int, moved: tuple) -> tuple:
    """(B, b0) as slots of :func:`_coefficient_values`: with each entry the
    value at its slot, :meth:`BubbleModel.rhs_flat`'s coefficients are
    B @ tail + b0, for the tail of its ``bincount``.

    Row j of the stacked state z = [y, s_1, ..., s_p] is a combination of
    the bincount's rows of length n + 2: the ``nb`` block products of each
    of the q rows of z, the dL0 products of the ``moved`` paths, and the
    two unit rows that carry the cavity rows.  Every coefficient is affine
    in the tail, the values <sigma_RR>, Re w_beta . r, Im w_beta . r,
    Re<a> and Im<a> of each row of z, with constants from the model's
    scalars and their derivatives.  Row j takes its own blocks at the
    state's (1, Re<a>, Im<a>, xi <sigma_RR>) and the cavity rows of its own
    values.  A sensitivity row also takes the blocks of r at J's cross
    terms plus df/dtheta's, (s_ar + dg Re<a>, s_ai + dg Im<a>,
    xi s_RR + dxi <sigma_RR>) with dg the relative derivative of
    g sqrt(n_b), its own dL0 product at weight 1 if its path moved L0,
    and the cavity rows' derivative at the state's values, -dalpha
    included.  B is q ncol x 5 q, ncol the bincount's rows.
    """
    ncol = q * nb + len(moved) + 2
    B = np.zeros((q * ncol, 5 * q), dtype=int)   # slot 0 holds 0, slot 1 holds 1
    b0 = np.zeros(q * ncol, dtype=int)
    rr, b_re, b_im, a_re, a_im = range(5)
    re, im = ncol - 2, ncol - 1            # the unit rows of Re<a> and Im<a>
    # blocks 1.. of the stack, L1, L2 and, when kept, L3, and the tail
    # value that weighs each
    blocks = [(1, a_re), (2, a_im), (3, rr)][:nb - 1]

    def slot(k, f):
        """Value f of z row k in :func:`_coefficient_values`: the weights
        of L1, L2 and L3 at 0-2, then -gamma_c, -Delta_c, prefactor,
        Delta_c, -prefactor and -alpha."""
        return 2 + 9 * k + f

    def cavity(j, k, s):
        """Row j's cavity rows at z row k's tail, weighted by z row s's
        values: -gamma_c Re<a> - Delta_c Im<a> + prefactor Im w_beta . r
        and Delta_c Re<a> - gamma_c Im<a> - prefactor Re w_beta . r."""
        for row, value, f in [(re, a_re, 3), (re, a_im, 4), (re, b_im, 5),
                              (im, a_re, 6), (im, a_im, 3), (im, b_re, 7)]:
            B[j * ncol + row, 5 * k + value] = slot(s, f)

    for j in range(q):
        b0[j * ncol + j * nb] = 1
        for col, value in blocks:
            B[j * ncol + j * nb + col, value] = slot(0, col - 1)
        cavity(j, j, 0)
        b0[j * ncol + im] = slot(j, 8)               # -alpha, or -dalpha
    for j in range(1, q):
        for col, value in blocks:
            B[j * ncol + col, 5 * j + value] = slot(0, col - 1)
            B[j * ncol + col, value] = slot(j, col - 1)
        cavity(j, 0, j)
        if j - 1 in moved:
            b0[j * ncol + q * nb + moved.index(j - 1)] = 1
    return B, b0


def _coefficient_values(sc: _Scalars, derivs) -> np.ndarray:
    """What the slots of :func:`_coefficient_map` hold: 0, 1, and for each
    row of z its weights of L1, L2 and L3 and of its cavity rows.  The
    state's are 1, 1 and xi, a path's dg, dg and dxi with dg the relative
    derivative of g sqrt(n_b); then -gamma_c, -Delta_c, prefactor,
    Delta_c, -prefactor and -alpha, or their derivatives."""
    values = [0.0, 1.0]
    rows = [(1.0, sc.xi, sc)] + [(ds.g_nb / sc.g_nb if ds.g_nb else 0.0, ds.xi, ds)
                                 for ds in derivs]
    for g, xi, s in rows:
        values += [g, g, xi, -s.gamma_c, -s.delta_c, s.prefactor, s.delta_c,
                   -s.prefactor, -s.alpha]
    return np.array(values)


class BubbleModel:
    """Precompiled right-hand side for one parameter set and initial state.

    The model integrates the stacked state z = [y, s_1, ..., s_p]: the
    state y and, for each parameter path theta_k of ``sensitivity``, its
    forward sensitivity s_k = dy/dtheta_k, so q = 1 + p rows, and q = 1
    for a plain model.  The Lindblad generator is the stack [L0; L1; L2;
    L3] of real blocks in the Hermitian basis, followed by five tail rows
    (w_RR, Re w_beta and Im w_beta, and the unit rows that read Re<a> and
    Im<a>), kept as sparse (row, column, value) entries with one entry
    per nonzero and no dense copy.  The entries are weighted sums of the
    sparse unit blocks that :func:`_structure` caches once per nmax: L0
    is the sum of its six units weighted by the rates and detunings, L1
    and L2 are theirs times g sqrt(n_b), and L3 is its own.  The model
    gathers the stack once per row of z, with its columns shifted into
    that row, and then dL0's entries for the paths that move a rate or
    detuning.  :meth:`rhs_flat`, the one right-hand side of every run, is
    one ``np.bincount`` of that gather times z and one small coefficient
    product for all q rows, whose coefficients are affine in the
    bincount's tail (:func:`_coefficient_map`); :meth:`jacobian` takes the
    block products from row 0's entries, which come first.  One cached
    layout (:func:`_layout`) holds all that the model's structure fixes:
    the reachable set below, where each weighted unit entry lands in the
    gather, and the coefficient map's slots.  A build weights the
    laid-out unit entries, adds them in one ``np.bincount``, keeps the
    entries whose sums are not exactly 0, so an entry that cancels at the
    model's values (Delta_r = -Delta_e) is dropped, fills the coefficient
    map's slots with its values, and copies every array it keeps.  The
    dark-state block is kept when xi != 0 or when a path of
    ``sensitivity`` moves xi.  The only dense rows kept are those of
    sigma_RR and sigma_SS, for the Jacobian's rank-1 xi term and the
    sampled populations.  The layout orders the kept coordinates by
    excitation-difference sector (k = 0 with its populations first, then
    |k| = 2, 3, ... and |k| = 1 beside the cavity pair), so the steady
    solve's Newton matrix at the empty cavity is block diagonal in
    contiguous slices (:func:`_block_inverse`).

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
    0, with every coordinate only L1 would reach.  A ``rho0`` that is not
    dim x dim, dim = 3 (nmax + 1), raises ValueError naming both shapes.
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
        self.n_bubbles = params.ensemble.atom_number / sc.n_b
        self.xi_a = sc.xi
        self.alpha_a = sc.alpha
        self.gamma_c_a = sc.gamma_c
        self.dc_a = sc.delta_c
        self.g_nb_a = sc.g_nb
        self.prefactor_a = sc.prefactor
        rows = _scalar_rows(params, n_b, sc, self.sensitivity)
        derivs = [_Scalars(*ds) for ds in zip(*rows)]   # one per path

        # the weight of each unit block in the stack, L3's 1 (xi weighs its
        # product), the tail rows' 1 and dL0's of each moved path, as
        # _layout indexes them.  dL0 is L0 at the rows of the rates and
        # detunings, so only parameters that move one of them need its
        # product.  The units switched on are those of the stack with a
        # nonzero weight (L3 when it is kept) and those dL0 weighs
        dark = bool(self.xi_a != 0.0 or any(ds.xi != 0.0 for ds in derivs))
        nb = self._nblocks = 3 + dark
        moved = [k for k, ds in enumerate(derivs) if any(ds[:6])]
        weights = ([*sc[:6], sc.g_nb, sc.g_nb, 1.0, 1.0]
                   + [derivs[m][k] for m in moved for k in range(6)])
        dl0_units = {k for m in moved for k in range(6) if derivs[m][k] != 0.0}
        switched = tuple(k for k in range(nb + 5)
                         if weights[k] != 0.0 or k in dl0_units)

        basis = st.basis
        if rho0 is None:
            r0 = np.zeros(d * d)
            r0[0] = 1.0                            # |G, m=0>
        else:
            rho0 = np.asarray(rho0, complex)
            if rho0.shape != (d, d):
                raise ValueError(f"rho0 is {rho0.shape}, not {(d, d)}, at nmax {nmax}")
            r0 = (basis.a.conj() * rho0.flat[basis.p]
                  + basis.b.conj() * rho0.flat[basis.q]).real
        a0 = complex(a0)
        q = len(derivs) + 1
        lay = _layout(
            nmax, switched,
            bool(self.alpha_a != 0.0 or any(ds.alpha for ds in derivs)),
            bool(self.dc_a != 0.0 or any(ds.delta_c for ds in derivs)),
            a0.real != 0.0, a0.imag != 0.0, (r0 != 0.0).tobytes(),
            tuple(moved), q)

        n = self.nrho = lay.keep.size              # rho coordinates
        self.npop = lay.npop                       # populations lead
        self.size = n + 2                          # state-vector length
        self._rho_index = lay.rho_index.copy()
        self._rho_coef = lay.rho_coef.copy()
        self._w_rr = lay.w_rr.copy()
        self._rr_cols = lay.rr_cols.copy()
        self._w_ss = lay.w_ss.copy()
        self._y0 = np.concatenate((r0[lay.keep], [a0.real, a0.imag]))
        # the gather's entries: the stack's once per row of z (row 0's
        # first), its tail rows at weight 1, then dL0's
        vals = lay.gather.sums(np.array(weights))
        nonzero = vals != 0.0
        self._z_rows, self._z_cols = lay.z_rows[nonzero], lay.z_cols[nonzero]
        self._z_vals = vals[nonzero]
        row0 = nonzero[:lay.blocks.size]
        self._blocks, self._jac_index = lay.blocks[row0], lay.jac_index[row0]
        self._z_units = lay.units.copy()
        self._z_tail = lay.tail
        self._gain = sc.gain
        self._dgain = rows.gain
        values = _coefficient_values(sc, derivs)
        B, b0 = lay.coefficients
        self._B, self._b0 = values[B], values[b0]
        self._edges = lay.edges

    # --- state layout: y[:nrho] = coefficients of rho on the model's
    #     Hermitian basis elements by sector (its npop populations first),
    #     y[nrho] = Re<a>, y[nrho+1] = Im<a> --------------------------------

    def initial_flat(self) -> np.ndarray:
        """The model's initial state vector (``rho0`` and ``a0``)."""
        return self._y0.copy()

    def rhs_flat(self, t, z):
        """Right-hand side of the stacked state z = [y, s_1, ..., s_p].

        Row 0 is f(y).  s_k = dy/dtheta_k for the k-th path of
        ``sensitivity``, and ds_k/dt = J s_k + df/dtheta_k.  J s_k collects
        the block products of s_r, the cavity columns s_ar L1 r and
        s_ai L2 r, the rank-1 term xi (w_RR . s_r) L3 r and the cavity rows
        applied to s_k.  In df/dtheta_k the L1, L2 and L3 parts only
        rescale products of r the state row has anyway, dL0 r is one more
        product (only for a parameter that moves a rate or detuning), and
        the cavity part is a map of the state's cavity values.  One
        ``np.bincount`` over the stack gathered once per row of z gives
        every block product, the dL0 products, and each row's trace values
        and cavity amplitude.  Every coefficient that combines those
        products is affine in these 5 (1 + p) tail values, so the layout
        maps them once (:func:`_coefficient_map`) and a call reads the
        coefficients as B @ tail + b0.  Read as rows of length n + 2, the
        products end in two unit rows, so one coefficient product
        assembles every row of the output, its cavity values included.
        """
        # each row's <a> entries come last and are never 0: no minlength
        prods = np.bincount(self._z_rows, self._z_vals * z[self._z_cols])
        prods[self._z_units] = 1.0
        coef = self._B @ prods[self._z_tail:] + self._b0
        return np.dot(coef.reshape(len(self.sensitivity) + 1, -1),
                      prods[:self._z_tail].reshape(-1, self.nrho + 2)).reshape(-1)

    def jacobian(self, y) -> np.ndarray:
        """Exact Jacobian df/dy of :meth:`rhs_flat`'s row 0 at y, ``size``
        square.

        J_rr = L0 + Re<a> L1 + Im<a> L2 + xi (w_RR . r) L3 + xi (L3 r) w_RR^T,
        the columns L1 r and L2 r for (Re, Im)<a>, the cavity rows
        +-prefactor w_beta and the 2 x 2 cavity map.  The block products
        and <sigma_RR> come from one ``bincount`` of row 0's entries of the
        gather, and one more of the same entries, weighted, gives J_rr's
        blocks and the cavity rows.
        """
        n, nb, size = self.nrho, self._nblocks, self.size
        k = self._blocks.size
        prods = np.bincount(self._z_rows[:k], self._z_vals[:k] * y[self._z_cols[:k]])
        pf = self.prefactor_a
        coef = np.array([1.0, y[n], y[n + 1], self.xi_a * prods[self._z_tail]][:nb]
                        + [0.0, -pf, pf, 0.0, 0.0])
        jac = np.bincount(self._jac_index, coef[self._blocks] * self._z_vals[:k],
                          minlength=size * size).reshape(size, size)
        if self.xi_a != 0.0:   # w_RR is nonzero on the R populations only
            jac[:n, self._rr_cols] += np.outer(self.xi_a * prods[3 * size:3 * size + n],
                                               self._w_rr[self._rr_cols])
        jac[:n, n] = prods[size:size + n]
        jac[:n, n + 1] = prods[2 * size:2 * size + n]
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
    """Sampled bubble evolution: transmission plus state diagnostics.

    The sample times ``t`` must be finite and strictly increasing, and each
    column, ``dT_dtheta`` included, must have one row per sample time;
    else ValueError at construction.
    """

    t: np.ndarray
    transmission: np.ndarray
    pop_R: np.ndarray
    pop_S: np.ndarray
    trace_error: np.ndarray
    metadata: dict = field(default_factory=dict)
    states: list[BubbleState] | None = None
    dT_dtheta: np.ndarray | None = None  # (samples, p); evolve(sensitivity=paths)

    def __post_init__(self):
        if not (np.all(np.isfinite(self.t)) and np.all(np.diff(self.t) > 0)):
            raise ValueError("sample times must be finite and strictly increasing")
        for name in ("transmission", "pop_R", "pop_S", "trace_error", "dT_dtheta"):
            rows = getattr(self, name)
            if rows is not None and len(rows) != len(self.t):
                raise ValueError(f"{name} has {len(rows)} rows for {len(self.t)} times")

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

    # samples are [y, s_1, ...]; y leads and every s_k starts at 0
    y0 = np.concatenate((model.initial_flat(),
                         np.zeros(len(model.sensitivity) * model.size)))
    samples, stats = integrate(model.rhs_flat, 0.0, y0, sample_times,
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
    ``t_max``, and 0 when the start from the empty cavity settled and no
    continuation ran; ``newton_iterations`` counts every step the solve
    computed: the start's chord steps, an undone one included, its Newton
    steps and the continuation's; ``residual`` is the max-norm of the
    solve's residual F(y) = f(y) - (sigma / n_pop) u (Tr rho - 1), u the
    ones on the populations and sigma = 40 rad/us (``_deflated_residual``),
    at the state whose transmission is reported; ``verdict`` says how the
    solve ended (``"stable"`` for an accepted root);
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
#: a chord step settles the root only when it meets the step test with its
#: tolerance scaled by this factor: chord steps converge only linearly
_CHORD_TOL = 0.01
#: first pseudo-time step (us) of the continuation
_PTC_DT0 = 0.05
#: the rate sigma (rad/us) at which the steady solve's residual pulls
#: Tr rho to 1 (:func:`_deflated_residual`): its Jacobian's trace mode
#: has the eigenvalue -sigma, which the certificate's Crank-Nicolson step
#: of _PTC_DT0 maps to 0 (:func:`_certify_stable`)
_TRACE_DECAY = 2.0 / _PTC_DT0
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


def _deflated_residual(model: BubbleModel, y) -> np.ndarray:
    """F(y) = f(y) - (sigma / n_pop) u (Tr rho - 1), the residual the steady
    solve zeroes, with u the ones on the populations and sigma =
    _TRACE_DECAY.

    The population rows of f sum to zero (u . f = 0: the trace is
    conserved), so f alone has a line of roots; the trace term, spread over
    the population rows, picks the one with Tr rho = 1.  On the model's
    coordinates, which leave out any sector nothing enters (S when xi = 0,
    Re<a> and its sector on resonance), Tr rho is the one conserved
    quantity, so the fixed point is isolated.
    """
    f = model.rhs_flat(0.0, y)
    f[:model.npop] -= _TRACE_DECAY / model.npop * (model.trace(y) - 1.0)
    return f


def _deflated_jacobian(model: BubbleModel, y, shift: float = 0.0) -> np.ndarray:
    """J~ - shift I at y, the matrix of every step of the solve, where J~ =
    J - (sigma / n_pop) u u^T is the Jacobian of :func:`_deflated_residual`.

    u is a left null vector of J (u^T J = 0), so J~ is J with the trace
    mode deflated (Wielandt): u^T J~ = -sigma u^T, and on the hyperplane
    u . v = 0, which carries every other eigenvalue, J~ acts as J does.
    J~ thus has J's spectrum with the trace eigenvalue moved from 0 to
    -sigma.  As u . f = 0, a Newton step d of J~ d = -F has u . d =
    -(Tr rho - 1) and J d = -f, the Newton step of f on the trace
    condition.
    """
    mat = model.jacobian(y)
    mat[:model.npop, :model.npop] -= _TRACE_DECAY / model.npop
    mat.flat[::model.size + 1] -= shift
    return mat


def _block_inverse(mat, edges) -> np.ndarray:
    """The inverse of ``mat``, block diagonal in the slices between
    consecutive ``edges``, from ``np.linalg.inv`` of each diagonal slice;
    LinAlgError if one is singular.

    The Newton matrix at the empty cavity (:func:`_deflated_jacobian`) is
    block diagonal in the sector slices of :class:`_Layout`: every term of
    L0 conserves the excitation number N = m + [s != G] (the weak U(1)
    symmetry of Buca & Prosen, New J. Phys. 14, 073007, 2012), so it maps a
    coherence of N_ket - N_bra = k to coherences of the same k, and the
    Hermitian basis pairs k with -k.  The Jacobian's other blocks are
    weighted by <a> and by xi <sigma_RR>, and its rank-1 dark-state term
    is L3 r, all 0 at <a> = 0 and rho = |G, 0><G, 0|.  What is left of the
    cavity, the columns L1 r and L2 r, the rows that read <beta> and the
    2 x 2 cavity map, lies in |k| = 1, whose slice the cavity pair closes,
    and the rank-1 trace term, on the populations, in k = 0.
    """
    inverse = np.zeros_like(mat)
    for lo, hi in zip(edges[:-1], edges[1:]):
        inverse[lo:hi, lo:hi] = np.linalg.inv(mat[lo:hi, lo:hi])
    return inverse


def _ptc_step(model: BubbleModel, y, res, shift: float, inverse=None):
    """The step d of (shift I - J~) d = F(y), or None if its matrix is
    singular.

    ``res`` is the residual F at y and J~ its Jacobian
    (:func:`_deflated_jacobian`), from the exact Jacobian of f.  shift =
    1/dt makes the step one implicit-Euler step of length dt, shift = 0 a
    Newton step.
    Given ``inverse``, the inverse of the Newton matrix at another point
    (the empty cavity's), the step is the chord step -inverse @ res, and
    no matrix is built or solved.
    """
    if inverse is not None:
        return -(inverse @ res)
    try:
        return np.linalg.solve(_deflated_jacobian(model, y, shift), -res)
    except np.linalg.LinAlgError:
        return None


def _certify_stable(jac) -> tuple[bool, int]:
    """(proved, squarings): whether every eigenvalue of ``jac`` is shown to
    have Re < -_MARGINAL, and how many squarings that took.

    C = 2 (I - (h/2) R)^-1 - I with R = jac + _MARGINAL I and h = _PTC_DT0
    is the Crank-Nicolson propagator of R over one step h; it maps Re mu < 0
    exactly onto |c| < 1.  As rho(C)^(2^k) <= ||C^(2^k)||, a power with
    1-norm at most 1/2 proves rho(C) < 1.  C is squared until one does, or
    until the powers span _CERT_HORIZON or their norm passes _CERT_BLOWUP
    or is not finite; then nothing is proved.  So a marginal or unstable
    mode is never certified, nor is a stable one that does not halve
    within the horizon.  The steady solve's ``jac`` is the deflated
    Jacobian (:func:`_deflated_jacobian`), whose trace mode sits at
    -2/h = -_TRACE_DECAY: C maps it to 0 up to the margin, so it costs no
    squaring.

    :func:`_verdict` passes ``jac`` in cavity-balanced coordinates, a
    diagonal similarity D^-1 J~ D of the deflated Jacobian.  C and its
    powers are then D^-1 C^(2^k) D: the same spectra, so a power of 1-norm
    at most 1/2 proves rho(C) < 1 as before, and the verdict is the plain
    matrix's.  Only the norms change: the cavity rows no longer carry the
    factor N/n_b, which the squarings of the plain C had to outlast, so
    the powers usually reach 1/2 in fewer squarings.
    """
    diag = np.diag_indices(len(jac))
    shifted = (-0.5 * _PTC_DT0) * jac
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


#: what the verdict says decided the stability of a root it did not test
_UNTESTED = "stability not tested"


def _verdict(model: BubbleModel, y) -> tuple[bool, str, str]:
    """(accepted, verdict, what decided the stability) for the root y.

    The root must be a state (no eigenvalue of rho below -_PSD_TOL) and
    stable: every eigenvalue of the Jacobian but the trace mode must have
    Re < -_MARGINAL.  The deflated Jacobian (:func:`_deflated_jacobian`)
    has exactly these eigenvalues besides -_TRACE_DECAY for the trace
    mode.  Its two cavity coordinates are scaled by s = sqrt(N/n_b): their
    rows, which carry (N/n_b) g sqrt(n_b), are divided by s and their
    columns, which carry g sqrt(n_b), multiplied by s, so the coupling
    between the cavity and the bubble is reciprocal.  That is a similarity
    with a diagonal matrix: the spectrum, all that the verdict reads, is
    kept, while the 1-norm the certificate must outlast is smaller.  The
    certificate of :func:`_certify_stable` shows stability for a stable
    root in a few matrix products; only when it proves nothing are the
    eigenvalues computed.  A root with an eigenvalue within _MARGINAL of
    the imaginary axis or beyond it is rejected.
    """
    lowest = float(np.linalg.eigvalsh(model.rho_matrix(y)).min())
    if lowest < -_PSD_TOL:
        return (False, f"not a state (min eigenvalue of rho = {lowest:.3g})",
                _UNTESTED)
    jac = _deflated_jacobian(model, y)
    s = math.sqrt(model.n_bubbles)
    jac[-2:, :-2] /= s
    jac[:-2, -2:] *= s
    certified, squarings = _certify_stable(jac)
    if certified:
        return True, "stable", f"stability certified in {squarings} squarings"
    decided = f"stability from the eigenvalues after {squarings} squarings"
    growth = float(np.linalg.eigvals(jac).real.max())
    if growth < -_MARGINAL:
        return True, "stable", decided
    kind = "unstable" if growth > _MARGINAL else "marginal"
    return False, f"{kind} (max Re = {growth:.3g} rad/us)", decided


def steady_transmission_bubble(params: PhysicalParams, *, t_max: float = 500.0,
                               nmax: int = DEFAULT_NMAX, rtol: float = 1e-8,
                               n_b: float | None = None) -> SteadyBubbleResult:
    """Steady transmission: the fixed point of the model that chord and
    Newton steps, or else pseudo-transient continuation, reach from the
    empty cavity with all atoms in the ground state.

    Each iteration solves (s I - J~) d = F(y) on the coordinates the model
    keeps (the dark state S is dropped when xi = 0, Re<a> and its sector on
    resonance; :class:`BubbleModel`), which leaves Tr rho as the one
    conserved quantity.  F = f - (sigma / n_pop) u (Tr rho - 1), with u the
    ones on the populations and sigma = 2 / 0.05 us = 40 rad/us, has the
    root of f on Tr rho = 1, and its Jacobian J~ = J - (sigma / n_pop) u
    u^T, with J the exact Jacobian, is J with the trace mode's eigenvalue
    moved from 0 to -sigma (:func:`_deflated_jacobian`): one matrix serves
    the steps and the stability verdict.  The solve starts with chord
    steps from the empty cavity (Kelley, Iterative Methods for Linear and
    Nonlinear Equations, SIAM 1995, section 5.4): the Newton matrix there
    (s = 0) is inverted once, block by block (:func:`_block_inverse`), and
    every chord step takes that inverse in place of the current Newton
    matrix's.  The blocks are the sectors |N_ket - N_bra| of the
    excitation number N = m + [s != G]: every term of L0 conserves N, and
    at the empty cavity the cavity pair joins only |k| = 1.  The model's
    layout orders its coordinates by sector, so each block is a contiguous
    diagonal slice of the matrix and is inverted in place.  A chord
    step must at least halve the norm of the residual's rows after the
    first: with that contraction the remaining error is at most the step.
    As chord steps converge only linearly, a chord step settles the root
    only when it is below 1/100 of the step test's tolerance (below).  A chord
    step that does not halve the residual is undone, and Newton steps
    (s = 0, a fresh Jacobian each) go on from the iterate before it.  If
    a Newton step does not lower the norm of the residual's rows after the
    first, or its matrix is singular, or the step is not finite, or the
    root the start settles on is rejected (below), the solve starts over
    from the empty cavity with pseudo-transient continuation
    (Kelley & Keyes, SIAM J. Numer. Anal. 35, 508, 1998): s = 1/dt, dt
    starts at 0.05 us and grows by switched evolution relaxation,
    dt <- dt |f_old| / |f_new| on the rows after the first, at most
    tenfold per step, so the first steps follow an implicit-Euler
    trajectory of the dynamics and the last ones are Newton steps.  Once
    the summed pseudo-time reaches ``t_max`` (us) the I/dt term is dropped:
    the remaining iterations are plain Newton.  Newton and continuation
    steps stop at a step below 1e-10 + ``rtol`` |y| in every component.
    Nothing proves that the root is the fixed point the evolution would
    settle on if the model had several; the tests compare it with long
    evolutions at weak and strong drive.

    The result is ``converged`` only when that root is a density matrix
    (no eigenvalue below -1e-8) and stable: every eigenvalue of the
    Jacobian except the trace mode has Re < -1e-9 rad/us.  The verdict
    covers the model's coordinates (``coordinates`` of the result): a
    perturbation into a sector the model drops is not tested.  A stable
    root is usually shown so by a few squarings of the Crank-Nicolson
    propagator of J~ in cavity-balanced coordinates (:func:`_verdict`,
    :func:`_certify_stable`); the eigenvalues of the same matrix are
    computed only when they prove nothing.  A root with an eigenvalue
    within 1e-9 rad/us of the imaginary axis is rejected as marginal, one
    beyond it as unstable; the solve never integrates the dynamics.
    ``rtol`` must be finite and >= 0, else ValueError before any work.  In
    the continuation, a rejected root, a singular matrix or a non-finite
    step ends the solve, as do 100 iterations in all (the start's included)
    without a root, with converged=False and the transmission of
    the last finite iterate; the loop is deterministic and a root is a
    fixed point of every later step, so there is nothing more to retry.

    Each call logs one DEBUG record on the ``rydcav`` logger: the model's
    coordinates, the iterations, pseudo-time and residual, the chord steps
    kept, whether Newton took over from them, the matrix inverses and LU
    solves the solve cost, whether the certificate or the eigenvalues
    decided the stability and after how many squarings, and the verdict.
    """
    require_positive("t_max", t_max)
    require_positive("rtol", rtol, allow_zero=True)
    model = BubbleModel(params, nmax=nmax, n_b=n_b)
    start = model.initial_flat()
    first = _deflated_residual(model, start)
    try:
        inverse = _block_inverse(_deflated_jacobian(model, start), model._edges)
    except np.linalg.LinAlgError:
        inverse = None
    y, res, t, dt = start, first, 0.0, _PTC_DT0
    continuing = converged = False
    took_over = inverse is None
    inverses, chords, solves = int(not took_over), 0, 0
    decided = _UNTESTED
    for iterations in range(1, _PTC_MAXITER + 1):
        chord = inverse is not None
        step = _ptc_step(model, y, res, 1.0 / dt if continuing and t < t_max else 0.0,
                         inverse)
        solves += not chord
        finite = step is not None and np.isfinite(step).all()
        if finite:
            trial = y + step
            trial_res = _deflated_residual(model, trial)
            old, new = np.linalg.norm(res[1:]), np.linalg.norm(trial_res[1:])
            small = np.all(np.abs(step) <= (_CHORD_TOL if chord else 1.0)
                           * (_STEADY_ATOL + rtol * np.abs(trial)))
        if chord and not (finite and new <= 0.5 * old):
            # the chord step does not halve the residual: undo it, and
            # Newton steps go on from y
            inverse, took_over = None, True
            continue
        chords += chord
        if not finite:
            verdict = "singular matrix" if step is None else "non-finite step"
        else:
            if continuing:
                t = min(t + dt, t_max)
            y, res = trial, trial_res
            if small:
                converged, verdict, decided = _verdict(model, y)
            elif continuing or new < old:
                dt *= _PTC_GROWTH if _PTC_GROWTH * new <= old else old / new
                continue
        inverses += decided != _UNTESTED
        if converged or continuing:
            break
        # the start stalled or found no stable state: start over on the
        # continuation
        y, res, dt, continuing, inverse = start, first, _PTC_DT0, True, None
        decided = _UNTESTED
    else:
        verdict = f"no root in {_PTC_MAXITER} iterations"
    result = SteadyBubbleResult(float(model.transmission(y)), converged, float(t),
                                iterations, float(np.abs(res).max()), verdict,
                                model.size)
    _log.debug("bubble steady solve (nmax %d, %d coordinates): %d iteration(s) "
               "to pseudo-time %g us, residual %.3g, %d chord step(s), Newton "
               "took over: %s, %d inverse(s) and %d LU solve(s), %s, %s, "
               "converged=%s", nmax, model.size, iterations, t, result.residual,
               chords, "yes" if took_over else "no", inverses, solves, decided,
               verdict, converged)
    return result
