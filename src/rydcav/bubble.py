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
the Hermitian subspace) and halves the integration cost.

On request the forward sensitivity s = dy/dxi of that state vector is
integrated next to it (ds/dt = J s + df/dxi, J the exact Jacobian of the
right-hand side, built from the same generator blocks), which gives the
exact derivative dT/dxi of the sampled transmission from one run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import interactions
from .errors import IntegrationError
from .ode import integrate
from .params import PhysicalParams, params_to_dict, to_angular

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


def build_operators(nmax: int) -> BubbleOperators:
    """Operator matrices of dimension 3 (nmax + 1), basis |m> x |s>."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    nb = nmax + 1
    lower = np.zeros((nb, nb))
    for m in range(1, nb):
        lower[m - 1, m] = math.sqrt(m)
    eye3 = np.eye(3)
    eyeb = np.eye(nb)

    def internal(i, j):
        m = np.zeros((3, 3))
        m[i, j] = 1.0
        return np.kron(eyeb, m)

    return BubbleOperators(
        nmax=nmax,
        dim=3 * nb,
        beta=np.kron(lower, eye3),
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


# --- superoperators over row-major vec(rho) --------------------------------

def _sop_commutator(h, eye):
    return np.kron(h, eye) - np.kron(eye, h.T)


def _sop_dissipator(L, eye):
    LdL = L.conj().T @ L
    return 2.0 * np.kron(L, L.conj()) - np.kron(LdL, eye) - np.kron(eye, LdL.T)


def _hermitian_basis(d: int) -> np.ndarray:
    """Columns: vec of an orthonormal Hermitian basis (diagonals first)."""
    v = np.zeros((d * d, d * d), dtype=complex)
    col = 0
    for k in range(d):
        v[k * d + k, col] = 1.0
        col += 1
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            v[i * d + j, col] = inv_sqrt2
            v[j * d + i, col] = inv_sqrt2
            col += 1
            v[i * d + j, col] = 1j * inv_sqrt2
            v[j * d + i, col] = -1j * inv_sqrt2
            col += 1
    return v


class BubbleModel:
    """Precompiled right-hand side for one parameter set.

    The Lindblad generator is assembled once as dense blocks in the real
    Hermitian basis; each evaluation is then a single stacked real
    matrix-vector product, with the cavity-coupling blocks scaled by
    Re<a>, Im<a> and the nonlinear dark-state block by xi <sigma_RR>.
    The dark-state block is built when xi != 0 or when ``xi_sensitivity``
    asks for :meth:`rhs_sensitivity`, whose df/dxi needs it even at xi = 0.
    """

    def __init__(self, params: PhysicalParams, nmax: int = DEFAULT_NMAX,
                 n_b: float | None = None, xi_sensitivity: bool = False):
        self.params = params
        self.nmax = nmax
        self.ops = build_operators(nmax)
        d = self.ops.dim
        self.dim = d
        self.nsq = d * d

        ens, ryd, drv, cav = (params.ensemble, params.rydberg,
                              params.drive, params.cavity)
        if n_b is None:
            n_b = interactions.atoms_per_bubble(
                ens.atom_number, interactions.blockade(params)[0], ens.cloud_volume)
        self.n_b = float(n_b)

        ge_a = to_angular(ens.gamma_e)
        gr_a = to_angular(ryd.gamma_r)
        gs_a = to_angular(ryd.gamma_s_eff)
        gc_a = to_angular(cav.gamma_c)
        om_a = to_angular(drv.omega_cf)
        de_a, dr_a, dc_a = (to_angular(v) for v in params.detunings())
        self.xi_a = to_angular(ryd.xi)
        self.alpha_a = to_angular(drv.alpha)
        self.gamma_c_a = gc_a
        self.dc_a = dc_a

        # collective couplings: one bubble feels g sqrt(n_b); the cavity
        # sums the polarization of all N/n_b bubbles
        self.g_nb_a = math.sqrt(2.0 * ge_a * gc_a * ens.cooperativity
                                * self.n_b / ens.atom_number)
        self.prefactor_a = (ens.atom_number / self.n_b) * self.g_nb_a

        ops = self.ops
        eye = np.eye(d)
        bd = ops.beta.conj().T
        h0 = (-dr_a * ops.sigma_RR - de_a * (bd @ ops.beta)
              + 0.5 * om_a * (ops.sigma_RG @ ops.beta + bd @ ops.sigma_GR))
        l_const = -1j * _sop_commutator(h0, eye)
        l_const = l_const + ge_a * _sop_dissipator(ops.beta, eye)
        l_const = l_const + gr_a * _sop_dissipator(ops.sigma_GR, eye)
        l_const = l_const + gs_a * _sop_dissipator(ops.sigma_GS, eye)
        # cavity-coupling Hamiltonians multiplying Re<a> and Im<a>
        h_re = self.g_nb_a * (ops.beta + bd)
        h_im = self.g_nb_a * 1j * (bd - ops.beta)
        blocks_c = [l_const,
                    -1j * _sop_commutator(h_re, eye),
                    -1j * _sop_commutator(h_im, eye)]
        if self.xi_a != 0.0 or xi_sensitivity:
            blocks_c.append(_sop_dissipator(ops.sigma_SR, eye))

        # project onto the real Hermitian basis (exact for generators that
        # preserve Hermiticity; asserted below)
        self._basis = _hermitian_basis(d)          # columns vec(B_m)
        u = self._basis.conj().T                   # r = Re(u @ vec(rho))
        blocks_r = []
        for blk in blocks_c:
            m = u @ blk @ self._basis
            if np.max(np.abs(m.imag)) > 1e-9 * max(np.max(np.abs(m.real)), 1.0):
                raise AssertionError("generator block is not Hermiticity-preserving")
            blocks_r.append(np.ascontiguousarray(m.real))
        self._nblocks = len(blocks_r)
        self._stacked = np.ascontiguousarray(np.vstack(blocks_r))

        # Tr(X rho) = vec(X^T) . vec(rho) = (vec(X^T) @ basis) . r
        w_beta = ops.beta.T.reshape(-1) @ self._basis
        self._w_beta_re = np.ascontiguousarray(w_beta.real)
        self._w_beta_im = np.ascontiguousarray(w_beta.imag)
        self._w_rr = np.ascontiguousarray(
            (ops.sigma_RR.T.reshape(-1) @ self._basis).real)
        self._w_ss = np.ascontiguousarray(
            (ops.sigma_SS.T.reshape(-1) @ self._basis).real)
        if xi_sensitivity:
            # rows w_RR, Im<beta>, -Re<beta>; the linear cavity map of (Re, Im)<a>
            self._w_sens = np.vstack((self._w_rr, self._w_beta_im, -self._w_beta_re))
            self._cavity_map = np.array([[-gc_a, -dc_a], [dc_a, -gc_a]])

    # --- state layout: y[:d*d] = Hermitian-basis coefficients of rho,
    #     y[d*d] = Re<a>, y[d*d+1] = Im<a> ----------------------------------

    def initial_flat(self, rho0: np.ndarray | None = None,
                     a0: complex = 0.0) -> np.ndarray:
        y = np.zeros(self.nsq + 2)
        if rho0 is None:
            y[0] = 1.0  # |G, m=0>
        else:
            coeffs = self._basis.conj().T @ np.asarray(rho0, complex).reshape(-1)
            y[: self.nsq] = coeffs.real
        y[self.nsq] = complex(a0).real
        y[self.nsq + 1] = complex(a0).imag
        return y

    def rhs_flat(self, t, y):
        r = y[: self.nsq]
        ar = y[self.nsq]
        ai = y[self.nsq + 1]
        prods = (self._stacked @ r).reshape(self._nblocks, self.nsq)
        dr = prods[0] + ar * prods[1] + ai * prods[2]
        if self.xi_a != 0.0:
            dr += (self.xi_a * (self._w_rr @ r)) * prods[3]
        beta_re = self._w_beta_re @ r
        beta_im = self._w_beta_im @ r
        out = np.empty_like(y)
        out[: self.nsq] = dr
        out[self.nsq] = (-self.gamma_c_a * ar - self.dc_a * ai
                         + self.prefactor_a * beta_im)
        out[self.nsq + 1] = (self.dc_a * ar - self.gamma_c_a * ai
                             - self.prefactor_a * beta_re - self.alpha_a)
        return out

    def rhs_sensitivity(self, t, z):
        """Right-hand side of the stacked state z = [y, s], s = dy/dxi.

        ds/dt = J s + df/dxi, where J s collects the block products of s_r,
        the cavity columns s_ar L1 r and s_ai L2 r, the rank-1 term
        xi (w_RR . s_r) L3 r and the cavity rows applied to s, and
        df/dxi = 2 pi (w_RR . r) L3 r (xi in MHz).  One product of the
        stacked blocks with [r, s_r] serves both halves.  Needs a model
        built with ``xi_sensitivity=True``.
        """
        n, nsq = self.nsq + 2, self.nsq
        zz = z.reshape(2, n)
        rs = zz[:, :nsq]                                 # rows r, s_r
        # rows L0 r, L1 r, L2 r, L3 r, then the same blocks applied to s_r
        prods = (rs @ self._stacked.T).reshape(2 * self._nblocks, nsq)
        (rr, beta_im, mbeta_re), (rr_s, sbeta_im, msbeta_re) = rs @ self._w_sens.T
        ar, ai, s_ar, s_ai = zz[0, nsq], zz[0, nsq + 1], zz[1, nsq], zz[1, nsq + 1]
        w = self.xi_a * rr
        coef = np.array([[1.0, ar, ai, w, 0.0, 0.0, 0.0, 0.0],
                         [0.0, s_ar, s_ai, self.xi_a * rr_s + 2.0 * math.pi * rr,
                          1.0, ar, ai, w]])
        out = np.empty((2, n))
        out[:, :nsq] = coef @ prods
        out[:, nsq:] = (zz[:, nsq:] @ self._cavity_map.T
                        + self.prefactor_a * np.array([[beta_im, mbeta_re],
                                                       [sbeta_im, msbeta_re]]))
        out[0, nsq + 1] -= self.alpha_a   # the drive does not depend on xi
        return out.reshape(-1)

    def cavity_amplitude(self, y) -> complex:
        return complex(y[self.nsq], y[self.nsq + 1])

    def transmission(self, y) -> float:
        if self.alpha_a == 0.0:
            return 0.0
        a = self.cavity_amplitude(y)
        return self.gamma_c_a**2 * abs(a) ** 2 / self.alpha_a**2

    def trace(self, y) -> float:
        return float(y[: self.dim].sum())  # diagonal basis elements lead

    def rho_matrix(self, y) -> np.ndarray:
        return (self._basis @ y[: self.nsq]).reshape(self.dim, self.dim)

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
    dT_dxi: np.ndarray | None = None     # per MHz; evolve(xi_sensitivity=True)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("sample times must be strictly increasing")

    header = "t_us,transmission,pop_R,pop_S,trace_error"

    def rows(self):
        return zip(self.t, self.transmission, self.pop_R, self.pop_S,
                   self.trace_error)


_TRACE_ABORT = 1e-6


def evolve(params: PhysicalParams, t_end: float, dt: float = 0.5,
           nmax: int = DEFAULT_NMAX, rtol: float = 1e-8, atol: float = 1e-10,
           n_b: float | None = None, sample_times=None,
           keep_states: bool = False,
           xi_sensitivity: bool = False) -> TimeSeries:
    """Integrate the bubble model and sample transmission and populations.

    Starts at t = 0 from the empty cavity with all atoms in the ground
    state.  The Hermitian-basis parametrization keeps rho exactly
    Hermitian; a trace drift beyond 1e-6 at a sample aborts with
    IntegrationError.  Samples are hit exactly by the Dormand-Prince
    integrator of :mod:`rydcav.ode`.  Without ``sample_times`` the samples
    are 0, dt, ..., t_end, so ``t_end`` must be a whole multiple of ``dt``.

    With ``xi_sensitivity`` the forward sensitivity s = dy/dxi (zero at
    t = 0) is integrated in the same run, under the same error control,
    and ``dT_dxi`` holds dT/dxi = 2 gamma_c^2 (Re<a> s_ar + Im<a> s_ai) /
    alpha^2 at each sample.
    """
    if sample_times is None:
        if t_end <= 0:
            raise ValueError("t_end must be > 0")
        if dt <= 0:
            raise ValueError("dt must be > 0")
        nsteps = int(round(t_end / dt))
        if abs(nsteps * dt - t_end) > 1e-9 * t_end:
            raise ValueError(f"t_end={t_end:g} is not a whole multiple of dt={dt:g}")
        sample_times = np.linspace(0.0, nsteps * dt, nsteps + 1)
    else:
        sample_times = np.asarray(sample_times, dtype=float)

    model = BubbleModel(params, nmax=nmax, n_b=n_b, xi_sensitivity=xi_sensitivity)

    def check_trace(t, y):
        drift = abs(y[: model.dim].sum() - 1.0)
        if drift > _TRACE_ABORT:
            raise IntegrationError(
                f"trace drift {drift:g} exceeds {_TRACE_ABORT:g} at t={t:g} us")

    rhs, y0 = model.rhs_flat, model.initial_flat()
    if xi_sensitivity:   # samples are [y, s]; y leads, so check_trace holds
        rhs, y0 = model.rhs_sensitivity, np.concatenate((y0, np.zeros_like(y0)))
    samples = integrate(rhs, 0.0, y0, sample_times, rtol=rtol, atol=atol,
                        sample_callback=check_trace)

    npts = sample_times.size
    trans = np.empty(npts)
    pop_r = np.empty(npts)
    pop_s = np.empty(npts)
    terr = np.empty(npts)
    states = [] if keep_states else None
    for i in range(npts):
        y = samples[i].real
        r = y[: model.nsq]
        trans[i] = model.transmission(y)
        pop_r[i] = model._w_rr @ r
        pop_s[i] = model._w_ss @ r
        terr[i] = abs(model.trace(y) - 1.0)
        if keep_states:
            states.append(model.state_from_flat(y, float(sample_times[i])))

    dT_dxi = None
    if xi_sensitivity:
        # T = 0 without drive (BubbleModel.transmission), so is dT/dxi
        gain = (0.0 if model.alpha_a == 0.0
                else 2.0 * model.gamma_c_a**2 / model.alpha_a**2)
        a_re_im = samples[:, model.nsq:model.nsq + 2]
        s_re_im = samples[:, -2:]
        dT_dxi = gain * np.sum(a_re_im * s_re_im, axis=1)

    meta = {"params": params_to_dict(params), "nmax": nmax, "rtol": rtol,
            "n_b": model.n_b}
    return TimeSeries(sample_times, trans, pop_r, pop_s, terr,
                      metadata=meta, states=states, dT_dxi=dT_dxi)


@dataclass
class SteadyBubbleResult:
    transmission: float
    converged: bool
    t_final: float


def steady_transmission_bubble(params: PhysicalParams, convergence: float = 1e-3,
                               window: float = 5.0, t_max: float = 500.0,
                               nmax: int = DEFAULT_NMAX, rtol: float = 1e-8,
                               n_b: float | None = None) -> SteadyBubbleResult:
    """Evolve until the transmission change over one window is below threshold.

    Compares T(t) with T(t - window); if t_max is reached first the last
    value is returned with converged=False.
    """
    if convergence <= 0:
        raise ValueError("convergence threshold must be > 0")
    if window <= 0:
        raise ValueError("window must be > 0")
    if t_max <= 0:
        raise ValueError("t_max must be > 0")
    model = BubbleModel(params, nmax=nmax, n_b=n_b)
    y = model.initial_flat()
    t = 0.0
    t_prev = model.transmission(y)
    while t < t_max:
        chunk_end = min(t + window, t_max)
        samples = integrate(model.rhs_flat, t, y, [chunk_end], rtol=rtol,
                            atol=1e-10)
        y = samples[-1].real
        t = chunk_end
        t_now = model.transmission(y)
        if abs(t_now - t_prev) / max(t_now, 1e-12) < convergence:
            return SteadyBubbleResult(t_now, True, t)
        t_prev = t_now
    return SteadyBubbleResult(t_prev, False, t)
