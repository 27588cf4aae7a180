import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydcav.bubble import (
    BubbleModel,
    TimeSeries,
    _hermitian_basis,
    _scalar_rows,
    _Scalars,
    _scalars,
    _structure,
    build_operators,
    evolve,
    steady_transmission_bubble,
)
from rydcav.errors import IntegrationError, SolverError
from rydcav.fitting import FitProblem
from rydcav.linear import transmission_linear
from rydcav.ode import integrate
from rydcav.params import FLOAT_PATHS, ScanSpec, get_path, set_path

from conftest import make_params


def weak_drive_params(**kw):
    defaults = dict(n=85, series="D", gamma_r=0.2, gamma_s=0.2, xi=0.0,
                    alpha=0.05)
    defaults.update(kw)
    return make_params(**defaults)


def transient_params(**kw):
    defaults = dict(n=85, series="D", gamma_r=0.05, gamma_s=0.002, xi=2.0,
                    alpha=3.0)
    defaults.update(kw)
    return make_params(**defaults)


def random_density_matrix(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestOperators:
    def test_two_level_boson_factor(self):
        ops = build_operators(1)
        assert ops.dim == 6
        # beta lowers |1,s> to |0,s> with unit amplitude
        for s in range(3):
            v = np.zeros(6)
            v[3 + s] = 1.0
            lowered = ops.beta @ v
            expect = np.zeros(6)
            expect[s] = 1.0
            np.testing.assert_allclose(lowered, expect)

    @pytest.mark.parametrize("nmax", [1, 3, 4])
    def test_number_operator(self, nmax):
        ops = build_operators(nmax)
        num = ops.beta.conj().T @ ops.beta
        for m in range(nmax + 1):
            for s in range(3):
                idx = 3 * m + s
                assert num[idx, idx] == pytest.approx(m)
        assert np.abs(num - np.diag(np.diag(num))).max() == 0.0

    @pytest.mark.parametrize("nmax", [2, 5])
    def test_commutator_truncation_identity(self, nmax):
        ops = build_operators(nmax)
        comm = ops.beta @ ops.beta.conj().T - ops.beta.conj().T @ ops.beta
        expect = np.eye(ops.dim)
        # the identity fails only on the top boson level, where it is -nmax
        for s in range(3):
            expect[3 * nmax + s, 3 * nmax + s] = -nmax
        np.testing.assert_allclose(comm, expect, atol=1e-12)

    def test_projector_idempotent(self):
        ops = build_operators(3)
        np.testing.assert_allclose(ops.sigma_RR @ ops.sigma_RR, ops.sigma_RR)
        np.testing.assert_allclose(ops.sigma_SR @ ops.sigma_RS, ops.sigma_SS)
        np.testing.assert_allclose(ops.sigma_GR @ ops.sigma_RG, ops.sigma_GS @ ops.sigma_SG)


@pytest.mark.parametrize("nmax", [True, 2.5, "3", 0, 2.0],
                         ids=["bool", "float", "str", "zero", "whole-float"])
def test_nmax_other_than_a_positive_int_rejected(nmax, monkeypatch):
    # checked before the cache: True would otherwise build nmax 1, and 2.5
    # or "3" fail inside range()
    import rydcav.bubble as bubble

    def no_lookup(nmax):
        raise AssertionError("cache looked up")

    monkeypatch.setattr(bubble, "_structure", no_lookup)
    p = weak_drive_params()
    for build in (lambda: build_operators(nmax),
                  lambda: BubbleModel(p, nmax=nmax),
                  lambda: evolve(p, t_end=1.0, dt=1.0, nmax=nmax),
                  lambda: steady_transmission_bubble(p, nmax=nmax)):
        with pytest.raises(ValueError, match="nmax must be an int >= 1"):
            build()


def test_numpy_integer_nmax_runs_as_the_int():
    p = weak_drive_params()
    want = evolve(p, t_end=2.0, dt=1.0, nmax=2)
    got = evolve(p, t_end=2.0, dt=1.0, nmax=np.int64(2))
    for name in ("t", "transmission", "pop_R", "pop_S", "trace_error"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.metadata == want.metadata and type(got.metadata["nmax"]) is int
    assert type(BubbleModel(p, nmax=np.int64(2)).nmax) is int


def arrays_in(entry):
    """Every array of a cache entry, its nested tuples included."""
    for v in entry:
        if isinstance(v, tuple):
            yield from arrays_in(v)
        elif isinstance(v, np.ndarray):
            yield v


def cached_arrays(nmax, layouts=()):
    """The arrays of the structure cached at ``nmax`` and of ``layouts``."""
    st = _structure(nmax)
    ops = [v for v in vars(st.ops).values() if isinstance(v, np.ndarray)]
    assert len(ops) == 9
    triplets = [arr for unit in st.units for arr in unit]
    return (ops + [*st.basis, st.w_rows, st.w_ss] + triplets
            + [arr for lay in layouts for arr in arrays_in(lay)])


def built_layouts(monkeypatch, build):
    """The layouts the models made by ``build()`` looked up."""
    import rydcav.bubble as bubble

    found, lookup = [], bubble._layout
    monkeypatch.setattr(bubble, "_layout",
                        lambda *key: found.append(lookup(*key)) or found[-1])
    build()
    monkeypatch.setattr(bubble, "_layout", lookup)
    return found


def fresh_layout_cache(monkeypatch):
    """An empty layout cache in place of the process's own."""
    import functools

    import rydcav.bubble as bubble

    cache = functools.lru_cache(maxsize=bubble._LAYOUT_CACHE)(bubble._layout.__wrapped__)
    monkeypatch.setattr(bubble, "_layout", cache)
    return cache


class TestStructureCache:
    """The operator algebra shared by every model at one nmax, and the
    layouts shared by every model of one structure."""

    def test_cached_arrays_are_read_only(self, monkeypatch):
        # a plain model, and one whose sensitivities lay out dL0
        layouts = built_layouts(monkeypatch, lambda: (
            BubbleModel(transient_params(), nmax=2),
            BubbleModel(transient_params(delta_p=1.5), nmax=2,
                        sensitivity=("drive.delta_p", "rydberg.xi"))))
        assert len(layouts) == 2 and layouts[1].dl0 is not None
        for arr in cached_arrays(2, layouts):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        # the public constructor still hands out fresh, writable arrays
        ops = build_operators(2)
        assert ops.beta is not _structure(2).ops.beta
        assert ops.beta.flags.writeable

    def test_models_share_no_mutable_state(self, monkeypatch):
        def own(model):
            return [v for v in vars(model).values() if isinstance(v, np.ndarray)]

        for sensitivity in ((), ("rydberg.xi", "drive.omega_cf"),
                            ("drive.delta_p", "rydberg.xi")):
            def build(**kw):
                return BubbleModel(transient_params(**kw), nmax=2,
                                   sensitivity=sensitivity)

            models = []
            layouts = built_layouts(monkeypatch, lambda: models.extend(
                (build(xi=2.0), build(xi=1.0, alpha=1.5))))
            first, second = models
            assert layouts[0] is layouts[1]   # one structure, one layout
            assert first.size == second.size
            # the generator triplets, the w rows, the basis columns' entries,
            # the initial state, and with a sensitivity the triplets gathered
            # per row of z, dL0's entries among them, and the coefficient map
            kept = {"_rows", "_cols", "_vals", "_w_rr", "_w_ss", "_rho_index",
                    "_rho_coef", "_y0"}
            if sensitivity:
                kept |= {"_z_rows", "_z_cols", "_z_vals", "_B", "_b0"}
            assert kept <= {k for k, v in vars(first).items()
                            if isinstance(v, np.ndarray)}
            before = [arr.copy() for arr in own(second)]
            for arr in own(first) + own(second):
                assert arr.flags.writeable
                assert not any(np.shares_memory(arr, c)
                               for c in cached_arrays(2, layouts))
            for arr in own(first):
                assert not any(np.shares_memory(arr, o) for o in own(second))
                arr[...] = 0
            for arrays in (own(second), own(build(xi=1.0, alpha=1.5))):
                assert len(arrays) == len(before)
                for arr, want in zip(arrays, before):
                    assert np.array_equal(arr, want)

    def test_algebra_is_built_only_for_a_new_cache_entry(self, monkeypatch):
        import functools

        import rydcav.bubble as bubble

        # a fresh cache, so the first build below makes its entry
        monkeypatch.setattr(bubble, "_structure",
                            functools.cache(bubble._structure.__wrapped__))
        calls = dict.fromkeys(("kron", "_hermitian_basis", "_unit_blocks"), 0)

        def count(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        count(np, "kron")
        count(bubble, "_hermitian_basis")
        count(bubble, "_unit_blocks")
        BubbleModel(transient_params(), nmax=2)
        # the blocks come from the operators' nonzeros: no Kronecker product
        assert calls == {"kron": 0, "_hermitian_basis": 1, "_unit_blocks": 1}
        built = dict(calls)
        BubbleModel(transient_params(xi=0.0, alpha=1.0), nmax=2,
                    sensitivity=("rydberg.xi", "drive.omega_cf"),
                    rho0=random_density_matrix(9, np.random.default_rng(0)),
                    a0=0.1j)
        evolve(weak_drive_params(), t_end=1.0, dt=1.0, nmax=2)
        steady_transmission_bubble(weak_drive_params(), nmax=2)
        assert calls == built

    def test_reachable_set_is_closed_only_for_a_new_layout(self, monkeypatch):
        import rydcav.bubble as bubble

        cache = fresh_layout_cache(monkeypatch)
        closures = []
        closure = bubble._closure
        monkeypatch.setattr(bubble, "_closure",
                            lambda *a: closures.append(1) or closure(*a))
        rho0 = random_density_matrix(9, np.random.default_rng(0))
        # (build, whether its layout is new): other values of the same
        # rates, detunings and drive share the structure, and with it the
        # layout; xi = 0, a detuning, a coherent rho0, a0 or a path that
        # moves L0 each change it
        builds = [
            (dict(), True), (dict(xi=1.0, alpha=1.5), False),
            (dict(xi=0.0), True), (dict(xi=0.0, alpha=0.5), False),
            (dict(delta_p=1.5), True), (dict(delta_p=-0.7, xi=3.0), False),
            (dict(rho0=rho0), True), (dict(rho0=rho0, xi=1.0), False),
            (dict(a0=0.1j), True), (dict(a0=0.3j, alpha=1.0), False),
            (dict(sensitivity=("drive.delta_p",)), True),
            (dict(sensitivity=("drive.delta_p", "rydberg.xi"), xi=1.0), False),
            (dict(), False)]
        for k, (kw, new) in enumerate(builds):
            before = len(closures)
            model_kw = {key: kw.pop(key) for key in ("rho0", "a0", "sensitivity")
                        if key in kw}
            BubbleModel(transient_params(**kw), nmax=2, **model_kw)
            assert (len(closures) > before) == new, k
        news = sum(new for _, new in builds)
        assert cache.cache_info()[:2] == (len(builds) - news, news)   # hits, misses

    @pytest.mark.parametrize("case", [
        "resonant", "detuned", "xi-zero", "moves-L0", "xi-path", "rho0",
        "complex-a0", "cancellation"])
    def test_a_cache_hit_builds_the_fresh_model_bit_for_bit(self, monkeypatch, case):
        rho0 = random_density_matrix(9, np.random.default_rng(1))
        rho0[0, 1] += 0.05j                       # a coherence, kept Hermitian
        rho0[1, 0] -= 0.05j
        # (parameters, model keywords), and other values of the same
        # structure that make the cache entry first
        kw, model_kw, other = {
            "resonant": ({}, {}, dict(xi=1.0)),
            "detuned": (dict(delta_p=1.5), {}, dict(delta_p=-2.0)),
            "xi-zero": (dict(xi=0.0, delta_p=1.0), {}, dict(xi=0.0, delta_p=0.3)),
            "moves-L0": (dict(delta_p=1.0), dict(sensitivity=("drive.delta_p",)),
                         dict(delta_p=0.5, alpha=1.0)),
            "xi-path": ({}, dict(sensitivity=("rydberg.xi", "drive.alpha")),
                        dict(xi=0.5)),
            "rho0": (dict(delta_p=1.0), dict(rho0=rho0), dict(delta_p=2.0)),
            "complex-a0": ({}, dict(a0=0.2 - 0.1j, sensitivity=("rydberg.xi",)),
                           dict(alpha=1.0)),
            # delta_r = -delta_e: their unit blocks' shared entries cancel
            # exactly, which the entry made at other values keeps
            "cancellation": (dict(delta_p=1.0, delta_cf=-2.0), {},
                             dict(delta_p=1.0, delta_cf=-1.5)),
        }[case]
        cache = fresh_layout_cache(monkeypatch)
        first = BubbleModel(transient_params(**other), nmax=2, **model_kw)
        hit = BubbleModel(transient_params(**kw), nmax=2, **model_kw)
        assert cache.cache_info()[:2] == (1, 1)
        fresh_layout_cache(monkeypatch)
        fresh = BubbleModel(transient_params(**kw), nmax=2, **model_kw)
        if case == "cancellation":
            assert hit._vals.size < first._vals.size
        for name in ("_rows", "_cols", "_vals", "_y0", "_rho_index"):
            np.testing.assert_array_equal(getattr(hit, name), getattr(fresh, name),
                                          err_msg=name, strict=True)
        y = fresh.initial_flat() + 0.01 * np.cos(np.arange(fresh.size))
        for f in ("rhs_flat", "jacobian", "rhs_sensitivity"):
            if f == "rhs_sensitivity" and not fresh.sensitivity:
                continue
            z = y if f != "rhs_sensitivity" else np.concatenate(
                [y] + [0.02 * np.sin(np.arange(fresh.size) + j)
                       for j in range(len(fresh.sensitivity))])
            args = (z,) if f == "jacobian" else (0.0, z)
            got, want = getattr(hit, f)(*args), getattr(fresh, f)(*args)
            assert got.tobytes() == want.tobytes(), f

    def test_cold_build_holds_no_superoperator(self):
        # one complex d^2 x d^2 array at nmax 6 (d = 21) is 16 d^4 bytes,
        # 3.1 MB; the sparse build peaks well below it
        import tracemalloc

        d = build_operators(6).dim
        tracemalloc.start()
        try:
            _structure.__wrapped__(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * d**4


def rhs(params, rho, a, nmax):
    """(drho/dt, d<a>/dt) of one bubble state through the flat rhs."""
    model = BubbleModel(params, nmax=nmax, rho0=rho, a0=a)
    dy = model.rhs_flat(0.0, model.initial_flat())
    return model.rho_matrix(dy), model.cavity_amplitude(dy)


class TestRhs:
    def test_dark_stationary_state(self):
        p = make_params(alpha=0.0, omega_cf=0.0, xi=0.0)
        ops = build_operators(2)
        rho0 = np.zeros((ops.dim, ops.dim), dtype=complex)
        rho0[0, 0] = 1.0
        drho, da = rhs(p, rho0, 0.0, nmax=2)
        assert np.abs(drho).max() < 1e-14
        assert abs(da) < 1e-14

    def test_trace_preservation(self, rng):
        p = transient_params()
        ops = build_operators(3)
        rho = random_density_matrix(ops.dim, rng)
        drho, _ = rhs(p, rho, 0.3 - 0.1j, nmax=3)
        assert abs(np.trace(drho)) < 1e-10

    def test_dark_state_fed_only_by_nonlinear_channel(self, rng):
        p = transient_params(xi=0.0)
        ops = build_operators(2)
        # a state with R population but empty S level
        rho = np.zeros((ops.dim, ops.dim), dtype=complex)
        rho[0, 0] = 0.6
        r_idx = 1  # |m=0, R>
        rho[r_idx, r_idx] = 0.4
        drho, _ = rhs(p, rho, 0.1, nmax=2)
        ds_dt = np.trace(ops.sigma_SS @ drho).real
        assert abs(ds_dt) < 1e-14

    def test_nonlinear_channel_feeds_dark_state(self):
        p = transient_params(xi=2.0)
        ops = build_operators(2)
        rho = np.zeros((ops.dim, ops.dim), dtype=complex)
        rho[0, 0] = 0.6
        rho[1, 1] = 0.4
        drho, _ = rhs(p, rho, 0.1, nmax=2)
        ds_dt = np.trace(ops.sigma_SS @ drho).real
        # rate 2 xi <sRR> rho_RR, in angular units
        expect = 2.0 * (2 * np.pi * 2.0) * 0.4 * 0.4
        assert ds_dt == pytest.approx(expect, rel=1e-12)


class TestJacobian:
    @pytest.mark.parametrize("xi", [0.0, 2.0])
    def test_matches_central_differences(self, xi, rng):
        rho = random_density_matrix(build_operators(2).dim, rng)
        model = BubbleModel(transient_params(xi=xi), nmax=2, rho0=rho,
                            a0=0.3 - 0.2j)
        y = model.initial_flat()
        assert y.size == model.dim**2 + 2    # a full-rank rho reaches everything
        jac = model.jacobian(y)
        # f is quadratic in y, so the central difference is exact up to
        # rounding
        h = 1e-4
        fd = np.empty_like(jac)
        for k in range(y.size):
            e = np.zeros_like(y)
            e[k] = h
            fd[:, k] = (model.rhs_flat(0.0, y + e)
                        - model.rhs_flat(0.0, y - e)) / (2 * h)
        scale = np.abs(jac).max()
        np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-9 * scale)
        # Tr rho is conserved: the trace functional is a left null vector
        np.testing.assert_allclose(jac[: model.npop].sum(axis=0), 0.0,
                                   atol=1e-12 * scale)


def dense_reference(model, params, y, sc=None):
    """(f, J) at y from the cache's unit blocks, scattered dense, restricted
    to the model's coordinates and combined as the model's docstring says.

    Each term of f is linear in one of the scalars ``sc`` (default: those
    of ``params``), so f at their derivatives in a parameter is df/dtheta.
    """
    st = _structure(model.nmax)
    sc = _scalars(params, None) if sc is None else sc
    d, n = model.dim, model.nrho
    # the model's basis columns among the full basis: a 0/1 selection
    select = (dense_basis(d).conj().T
              @ dense_columns(model._rho_index, model._rho_coef, d)).real
    units = [select.T @ dense_unit(u, d) @ select for u in st.units]
    w_rr, w_re, w_im = st.w_rows @ select
    r, ar, ai = y[:n], y[n], y[n + 1]
    l0 = sum(c * u for c, u in zip(sc[:6], units))
    l1, l2, l3 = sc.g_nb * units[6], sc.g_nb * units[7], units[8]
    gen = l0 + ar * l1 + ai * l2 + sc.xi * (w_rr @ r) * l3
    f = np.concatenate((gen @ r, [
        -sc.gamma_c * ar - sc.delta_c * ai + sc.prefactor * (w_im @ r),
        sc.delta_c * ar - sc.gamma_c * ai - sc.prefactor * (w_re @ r) - sc.alpha]))
    jac = np.zeros((n + 2, n + 2))
    jac[:n, :n] = gen + sc.xi * np.outer(l3 @ r, w_rr)
    jac[:n, n], jac[:n, n + 1] = l1 @ r, l2 @ r
    jac[n, :n], jac[n + 1, :n] = sc.prefactor * w_im, -sc.prefactor * w_re
    jac[n:, n:] = [[-sc.gamma_c, -sc.delta_c], [sc.delta_c, -sc.gamma_c]]
    return f, jac


@pytest.mark.parametrize("nmax", range(1, 7))
@pytest.mark.parametrize("xi", [0.0, 2.0])
@pytest.mark.parametrize("start", ["empty", "a0", "rho0", "undriven"])
def test_sparse_generator_matches_the_dense_blocks(nmax, xi, start):
    # rhs_flat and jacobian take their products from the model's triplets;
    # a dense sum of the cached unit blocks on the same coordinates agrees.
    # Undriven, |G, 0> is stationary and the model has no entry at all
    p = transient_params(xi=xi, alpha=0.0 if start == "undriven" else 3.0)
    rng = np.random.default_rng(nmax)
    kw = {"a0": dict(a0=0.3 - 0.2j),
          "rho0": dict(rho0=random_density_matrix(3 * (nmax + 1), rng))
          }.get(start, {})
    model = BubbleModel(p, nmax=nmax, **kw)
    if start == "rho0":
        assert model.size == model.dim**2 + 2
    if start == "undriven":
        assert model._vals.size == 0
    y = rng.standard_normal(model.size)
    f, jac = dense_reference(model, p, y)
    got_f, got_jac = model.rhs_flat(0.0, y), model.jacobian(y)
    assert got_f.dtype == got_jac.dtype == np.float64
    np.testing.assert_allclose(got_f, f, rtol=0, atol=1e-13 * np.abs(f).max())
    np.testing.assert_allclose(got_jac, jac, rtol=0,
                               atol=1e-13 * np.abs(jac).max())


@pytest.mark.parametrize("nmax", range(1, 7))
@pytest.mark.parametrize("xi", [0.0, 2.0])
@pytest.mark.parametrize("paths", [("rydberg.xi",), ("drive.omega_cf", "rydberg.xi"),
                                   ("drive.alpha", "drive.delta_p", "rydberg.xi")],
                         ids=["xi", "omega_cf-xi", "alpha-delta_p-xi"])
def test_every_sensitivity_row_matches_the_dense_blocks(nmax, xi, paths):
    # row 0 is f; row k is J s_k + df/dtheta_k, with dL0 r for omega_cf and
    # delta_p, the coefficient map's offset -dalpha and its Delta_c terms,
    # and the trace rows read from the triplets gathered per row of z.  df/dtheta_k
    # is f at the scalar rows the model is built from: this checks how the
    # triplets and the coefficient map are assembled, TestScalarRows the rows
    p = transient_params(xi=xi)
    model = BubbleModel(p, nmax=nmax, sensitivity=paths)
    rng = np.random.default_rng(nmax)
    z = rng.standard_normal((1 + len(paths), model.size))
    got = model.rhs_sensitivity(0.0, z.reshape(-1)).reshape(z.shape)
    f, jac = dense_reference(model, p, z[0])
    rows = _scalar_rows(p, None, _scalars(p, None), paths)
    want = [f] + [jac @ s + dense_reference(model, p, z[0], _Scalars(*ds))[0]
                  for s, ds in zip(z[1:], zip(*rows), strict=True)]
    for row, ref in zip(got, want, strict=True):
        np.testing.assert_allclose(row, ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())


def dense_columns(index, coef, d):
    """n basis columns as a dense d^2 x n array from their 2n entries: column
    k holds coef[k] at row index[k] and coef[n + k] at row index[n + k]."""
    n = index.size // 2
    out = np.zeros((d * d, n), dtype=complex)
    k = np.arange(n)
    out[index[:n], k] = coef[:n]
    out[index[n:], k] += coef[n:]
    return out


def dense_basis(d):
    b = _hermitian_basis(d)
    return dense_columns(np.concatenate((b.p, b.q)), np.concatenate((b.a, b.b)), d)


def dense_unit(unit, d):
    rows, cols, vals = unit
    out = np.zeros((d * d, d * d))
    out[rows, cols] = vals
    return out


def commutator(h):
    """[h, rho] as a dense superoperator on row-major vec(rho)."""
    eye = np.eye(len(h))
    return np.kron(h, eye) - np.kron(eye, h.T)


def dissipator(op):
    """2 op rho op+ - op+op rho - rho op+op as a dense superoperator on
    row-major vec(rho)."""
    eye = np.eye(len(op))
    n = op.conj().T @ op
    return 2.0 * np.kron(op, op.conj()) - np.kron(n, eye) - np.kron(eye, n.T)


def dense_unit_blocks(ops):
    """The cache's nine unit blocks as dense superoperators, one at a time:
    L0 per unit of delta_r, delta_e, omega, gamma_e, gamma_r, gamma_s, the
    cavity-coupling blocks L1, L2 at g sqrt(n_b) = 1, the dark-state L3."""
    b, bd = ops.beta, ops.beta.conj().T
    yield -1j * commutator(-ops.sigma_RR)
    yield -1j * commutator(-(bd @ b))
    yield -1j * commutator(0.5 * (ops.sigma_RG @ b + bd @ ops.sigma_GR))
    yield dissipator(b)
    yield dissipator(ops.sigma_GR)
    yield dissipator(ops.sigma_GS)
    yield -1j * commutator(b + bd)
    yield -1j * commutator(1j * (bd - b))
    yield dissipator(ops.sigma_SR)


@pytest.mark.parametrize("nmax", range(1, 7))
def test_projection_gathers_the_dense_products(nmax):
    # each basis column has at most two entries, so the sparse build adds
    # the terms of basis^H @ blk @ basis in the dense order, bit for bit,
    # and the cache keeps every nonzero
    ops = build_operators(nmax)
    d = ops.dim
    basis = dense_basis(d)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(d * d), atol=1e-15)
    mats = basis.T.reshape(-1, d, d)
    assert np.array_equal(mats, mats.conj().transpose(0, 2, 1))
    # the populations lead: the first d elements are the diagonal projectors
    assert np.array_equal(mats[:d], np.eye(d)[:, :, None] * np.eye(d)[:, None, :])
    units = _structure(nmax).units
    for unit, blk in zip(units, dense_unit_blocks(ops), strict=True):
        want = basis.conj().T @ blk @ basis
        assert np.abs(want.imag).max() < 1e-15     # Hermiticity-preserving
        assert np.array_equal(dense_unit(unit, d), want.real)
        assert unit[2].size > 0 and np.all(unit[2] != 0.0)
        # one entry per nonzero, sorted by row and then column
        assert np.all(np.diff(unit[0] * d * d + unit[1]) > 0)
    # L0 is its six units weighted by the rates and detunings
    sc = _scalars(transient_params(), None)
    bd = ops.beta.conj().T
    h0 = (-sc.delta_r * ops.sigma_RR - sc.delta_e * (bd @ ops.beta)
          + 0.5 * sc.omega * (ops.sigma_RG @ ops.beta + bd @ ops.sigma_GR))
    l0 = (-1j * commutator(h0)
          + sc.gamma_e * dissipator(ops.beta)
          + sc.gamma_r * dissipator(ops.sigma_GR)
          + sc.gamma_s * dissipator(ops.sigma_GS))
    want = (basis.conj().T @ l0 @ basis).real
    got = sum(c * dense_unit(u, d) for c, u in zip(sc[:6], units))
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-14 * np.abs(want).max())


def full_space_reference(params, nmax, times, a0=0.0):
    """(rho, <a>) at ``times`` from the dense complex Lindblad generator on
    all d^2 entries of row-major vec(rho), started from |G, 0> and a0."""
    ops = build_operators(nmax)
    d = ops.dim
    sc = _scalars(params, None)
    b, bd = ops.beta, ops.beta.T
    h0 = (-sc.delta_r * ops.sigma_RR - sc.delta_e * bd @ b
          + 0.5 * sc.omega * (ops.sigma_RG @ b + bd @ ops.sigma_GR))
    l0 = (-1j * commutator(h0) + sc.gamma_e * dissipator(b)
          + sc.gamma_r * dissipator(ops.sigma_GR)
          + sc.gamma_s * dissipator(ops.sigma_GS))
    # -i [g sqrt(n_b) (<a>* beta + <a> beta+), rho]
    l_b, l_bd = -1j * sc.g_nb * commutator(b), -1j * sc.g_nb * commutator(bd)
    l_dark = dissipator(ops.sigma_SR)
    # Tr(X rho) = vec(X^T) . vec(rho)
    v_rr, v_beta = ops.sigma_RR.T.reshape(-1), b.T.reshape(-1)

    def f(t, y):
        r, a = y[:-1], y[-1]
        dr = (l0 + np.conj(a) * l_b + a * l_bd) @ r
        dr += sc.xi * (v_rr @ r).real * (l_dark @ r)
        da = (1j * (sc.delta_c + 1j * sc.gamma_c) * a
              - 1j * sc.prefactor * (v_beta @ r) - 1j * sc.alpha)
        return np.append(dr, da)

    y0 = np.zeros(d * d + 1, dtype=complex)
    y0[0], y0[-1] = 1.0, a0
    out, _ = integrate(f, 0.0, y0, times, rtol=1e-12, atol=1e-14)
    return out[:, :-1].reshape(-1, d, d), out[:, -1]


class TestReduction:
    """The model on its reachable coordinates against the full space."""

    TIMES = np.arange(0.0, 9.0)

    def assert_matches(self, params, nmax, rho, a, transmission):
        ref_rho, ref_a = full_space_reference(params, nmax, self.TIMES,
                                              a0=a[0])
        np.testing.assert_allclose(rho, ref_rho, rtol=0, atol=1e-9)
        np.testing.assert_allclose(a, ref_a, rtol=0, atol=1e-9)
        gain = 0.0 if params.drive.alpha == 0.0 else (
            params.cavity.gamma_c / params.drive.alpha) ** 2
        np.testing.assert_allclose(transmission, gain * np.abs(ref_a) ** 2,
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("nmax", [2, 3])
    @pytest.mark.parametrize("kw", [dict(xi=0.0), dict(xi=2.0), dict(alpha=0.0)],
                             ids=["xi-0", "xi-2", "alpha-0"])
    def test_evolve_matches_full_space(self, nmax, kw):
        p = transient_params(**kw)
        series = evolve(p, t_end=8.0, dt=1.0, nmax=nmax, rtol=1e-12,
                        atol=1e-14, keep_states=True)
        d = build_operators(nmax).dim
        assert series.metadata["solver"]["coordinates"] < d * d + 2
        rho = np.array([st.rho for st in series.states])
        a = np.array([st.a for st in series.states])
        assert np.all(a.real == 0.0)         # on resonance Re<a> never moves
        self.assert_matches(p, nmax, rho, a, series.transmission)

    @pytest.mark.parametrize("nmax, kw", [(2, dict(alpha=0.0)), (3, dict(xi=2.0))],
                             ids=["nmax2-alpha-0", "nmax3-xi-2"])
    def test_cavity_started_nonzero_matches_full_space(self, nmax, kw):
        p = transient_params(**kw)
        model = BubbleModel(p, nmax=nmax, a0=0.4 - 0.3j)
        assert model.size < model.dim**2 + 2
        y, _ = integrate(model.rhs_flat, 0.0, model.initial_flat(), self.TIMES,
                         rtol=1e-12, atol=1e-14)
        rho = np.array([model.rho_matrix(row) for row in y])
        a = np.array([model.cavity_amplitude(row) for row in y])
        self.assert_matches(p, nmax, rho, a, [model.transmission(row) for row in y])

    @pytest.mark.parametrize("nmax, xi, delta_p, size", [
        (2, 2.0, 0.0, 29), (2, 0.0, 0.0, 23), (4, 2.0, 0.0, 72),
        (4, 0.0, 0.0, 57), (6, 2.0, 0.0, 135), (6, 0.0, 0.0, 107),
        (2, 2.0, 1.5, 47), (2, 0.0, 1.5, 38), (4, 2.0, 1.5, 127),
        (4, 0.0, 1.5, 102), (6, 2.0, 1.5, 247), (6, 0.0, 1.5, 198)])
    def test_reachable_coordinate_count(self, nmax, xi, delta_p, size):
        # on resonance Re<a> and the sector only it drives stay 0
        model = BubbleModel(transient_params(xi=xi, delta_p=delta_p), nmax=nmax)
        assert model.size == size

    @pytest.mark.parametrize("path, size", [
        ("rydberg.xi", 72), ("drive.alpha", 72), ("cavity.gamma_c", 72),
        ("ensemble.cooperativity", 72), ("drive.omega_cf", 72),
        ("drive.delta_p", 127), ("drive.delta_cf", 127),
        ("cavity.delta_bg", 127)])
    def test_sensitivity_coordinate_count(self, path, size):
        # a path that moves a detuning reaches Re<a> through its sensitivity
        model = BubbleModel(transient_params(), nmax=4, sensitivity=(path,))
        assert model.size == size

    @pytest.mark.parametrize("kw, a0, size", [
        (dict(), 0.4, 82), (dict(), 0.3j, 48),
        (dict(delta_cf=1.0), 0.0, 82), (dict(delta_bg=1.0), 0.0, 82)],
        ids=["a0-real", "a0-imag", "delta-cf", "delta-bg"])
    def test_each_source_of_re_a_matches_full_space(self, kw, a0, size):
        # Re<a> set at t = 0, or driven through Delta_r or Delta_c, reaches
        # every coordinate; an imaginary a0 only moves Im<a>
        p = transient_params(**kw)
        model = BubbleModel(p, nmax=3, a0=a0)
        assert model.size == size
        y, _ = integrate(model.rhs_flat, 0.0, model.initial_flat(), self.TIMES,
                         rtol=1e-12, atol=1e-14)
        if size == 48:                       # the resonant set
            assert np.all(y[:, model.nrho] == 0.0)
        rho = np.array([model.rho_matrix(row) for row in y])
        a = np.array([model.cavity_amplitude(row) for row in y])
        self.assert_matches(p, 3, rho, a, model.transmission(y))

    @pytest.mark.parametrize("nmax", range(1, 7))
    def test_rho_matrix_is_the_dense_basis_product(self, nmax, rng):
        d = build_operators(nmax).dim
        for kw in ({}, dict(rho0=random_density_matrix(d, rng), a0=0.3 - 0.2j)):
            model = BubbleModel(transient_params(), nmax=nmax, **kw)
            n = model.nrho
            cols = dense_columns(model._rho_index, model._rho_coef, d)
            if kw:   # a full-rank state reaches every coordinate
                assert n == d * d
                np.testing.assert_array_equal(cols, dense_basis(d))
            y = rng.standard_normal(model.size)
            want = (cols @ y[:n]).reshape(d, d)
            got = model.rho_matrix(y)
            np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
            np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)

    def test_model_arrays_are_small_at_nmax_6(self):
        # a dense copy of the stacked generator alone would be 1.9 MB
        for sensitivity, bound in (((), 0.25e6),
                                   (("rydberg.xi", "drive.omega_cf"), 0.5e6)):
            model = BubbleModel(transient_params(), nmax=6, sensitivity=sensitivity)
            total = sum(v.nbytes for v in vars(model).values()
                        if isinstance(v, np.ndarray))
            assert total < bound

    def test_initial_state_round_trips(self):
        rho = np.zeros((9, 9))
        rho[0, 0], rho[1, 1] = 0.5, 0.5          # |0, G> and |0, R>
        model = BubbleModel(transient_params(xi=0.0), nmax=2, rho0=rho)
        np.testing.assert_allclose(model.rho_matrix(model.initial_flat()),
                                   rho, atol=1e-15)


class TestEvolve:
    def test_undriven_cavity_stays_dark(self):
        p = make_params(alpha=0.0)
        series = evolve(p, t_end=5.0, dt=1.0, nmax=2, keep_states=True)
        assert np.all(series.transmission == 0.0)
        final = series.states[-1]
        assert abs(final.rho[0, 0] - 1.0) < 1e-10
        assert abs(final.a) < 1e-12

    def test_state_invariants_along_transient(self):
        p = transient_params()
        series = evolve(p, t_end=20.0, dt=2.0, nmax=3, keep_states=True)
        for st in series.states:
            assert st.trace_error < 1e-10
            assert st.hermiticity_error < 1e-12
            assert st.min_eigenvalue > -1e-9

    @pytest.mark.parametrize("alpha", [0.0, 3.0])
    def test_sampled_columns_match_the_kept_states(self, alpha):
        # evolve takes the columns from the sample matrix at once; a loop
        # over the kept states gives them again, summed in another order
        p = transient_params(alpha=alpha, xi=2.0)
        series = evolve(p, t_end=8.0, dt=1.0, nmax=3, keep_states=True)
        ops = build_operators(3)
        gain = 0.0 if alpha == 0.0 else (p.cavity.gamma_c / alpha) ** 2
        want = np.array([[gain * abs(st.a) ** 2,
                          np.trace(ops.sigma_RR @ st.rho).real,
                          np.trace(ops.sigma_SS @ st.rho).real,
                          abs(np.trace(st.rho).real - 1.0)]
                         for st in series.states])
        if alpha:
            assert want[:, 0].max() > 0.1 and want[:, 2].max() > 1e-3
        got = np.column_stack((series.transmission, series.pop_R, series.pop_S,
                               series.trace_error))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=2e-15)

    def test_weak_drive_matches_linear_formula(self):
        p = weak_drive_params()
        series = evolve(p, t_end=25.0, dt=25.0 / 2, nmax=3, n_b=1.0)
        want = transmission_linear(p, 0.0)
        assert series.transmission[-1] == pytest.approx(want, rel=0.02)

    def test_weak_drive_matches_linear_off_resonance(self):
        p = weak_drive_params(delta_p=12.0)
        series = evolve(p, t_end=25.0, dt=25.0 / 2, nmax=3, n_b=1.0)
        want = transmission_linear(p, 12.0)
        assert series.transmission[-1] == pytest.approx(want, rel=0.02)

    def test_cutoff_convergence(self):
        p = transient_params(alpha=1.5)
        t2 = evolve(p, t_end=10.0, dt=2.0, nmax=2).transmission
        t4 = evolve(p, t_end=10.0, dt=2.0, nmax=4).transmission
        assert np.abs(t4 - t2).max() < 0.01 * t4.max()

    def test_tolerance_halving_bound(self):
        p = transient_params()
        ref = evolve(p, t_end=8.0, dt=2.0, nmax=2, rtol=1e-11,
                     atol=1e-13).transmission
        for rtol in (1e-6, 1e-7):
            coarse = evolve(p, t_end=8.0, dt=2.0, nmax=2, rtol=rtol).transmission
            finer = evolve(p, t_end=8.0, dt=2.0, nmax=2, rtol=rtol / 2).transmission
            assert np.abs(coarse - ref).max() < 1e3 * rtol
            assert np.abs(finer - ref).max() < np.abs(coarse - ref).max() + 1e3 * rtol / 2

    def test_transient_decays_toward_plateau(self):
        p = transient_params()
        series = evolve(p, t_end=40.0, dt=1.0, nmax=3)
        t = series.transmission
        peak = t[2:10].max()
        assert t[-1] < 0.85 * peak  # visible decay
        assert series.pop_S[-1] > series.pop_S[10]  # dark state fills
        # decay, not oscillation: late samples below mid samples
        assert t[-5:].mean() < t[8:16].mean()

    def test_xi_zero_has_no_slow_decay(self):
        p = transient_params(xi=0.0)
        series = evolve(p, t_end=40.0, dt=1.0, nmax=3)
        t = series.transmission
        assert abs(t[-1] - t[10]) < 0.02 * t[10]
        assert series.pop_S.max() < 1e-10

    def test_sample_times_argument(self):
        p = weak_drive_params()
        times = np.array([0.0, 1.5, 4.0, 9.0])
        series = evolve(p, t_end=9.0, nmax=2, sample_times=times)
        np.testing.assert_allclose(series.t, times)

    def test_t_end_off_the_dt_grid_rejected(self):
        p = weak_drive_params()
        with pytest.raises(ValueError, match="multiple"):
            evolve(p, t_end=10.0, dt=3.0, nmax=2)

    def test_nonpositive_dt_rejected(self):
        p = weak_drive_params()
        for dt in (0.0, -1.0):
            with pytest.raises(ValueError, match="dt must be > 0"):
                evolve(p, t_end=10.0, dt=dt, nmax=2)

    @pytest.mark.parametrize("n_b", [0.0, -3.0, float("nan")])
    def test_nonpositive_bubble_size_rejected(self, n_b):
        with pytest.raises(ValueError, match="n_b must be > 0"):
            evolve(weak_drive_params(), t_end=2.0, dt=1.0, nmax=2, n_b=n_b)

    def test_infinite_t_end_rejected(self):
        with pytest.raises(ValueError, match="t_end must be > 0 and finite"):
            evolve(weak_drive_params(), t_end=float("inf"), dt=1.0, nmax=2)

    @pytest.mark.parametrize("kw", [{"rtol": float("nan")}, {"rtol": -1.0},
                                    {"atol": float("nan")},
                                    {"sample_times": [0.0, float("nan"), 2.0]},
                                    {"atol": 0.0}, {"rtol": True}])
    def test_bad_tolerance_or_sample_time_rejected_before_any_step(
            self, kw, monkeypatch):
        def no_rhs(*args):
            raise AssertionError("right-hand side evaluated")

        monkeypatch.setattr(BubbleModel, "rhs_flat", no_rhs)
        with pytest.raises(ValueError):
            evolve(weak_drive_params(), t_end=2.0, nmax=2, **kw)

    def test_bad_tolerance_names_the_value_given(self):
        # the integrator runs at a quarter of the tolerances; the error
        # names the caller's value, not the quartered one
        with pytest.raises(ValueError, match="rtol must be > 0 and finite, got -1$"):
            evolve(weak_drive_params(), t_end=2.0, nmax=2, rtol=-1)
        with pytest.raises(ValueError, match="atol must be > 0 and finite, got -2$"):
            evolve(weak_drive_params(), t_end=2.0, nmax=2, atol=-2)

    def test_metadata_snapshot(self):
        p = weak_drive_params()
        series = evolve(p, t_end=2.0, dt=1.0, nmax=2)
        assert series.metadata["nmax"] == 2
        assert series.metadata["n_b"] > 1.0
        assert series.metadata["params"]["rydberg"]["n"] == 85

    def test_solver_stats_count_the_work(self, monkeypatch):
        calls = 0
        rhs_flat = BubbleModel.rhs_flat

        def counting(model, t, y):
            nonlocal calls
            calls += 1
            return rhs_flat(model, t, y)

        monkeypatch.setattr(BubbleModel, "rhs_flat", counting)
        series = evolve(transient_params(), t_end=8.0, dt=1.0, nmax=2)
        solver = series.metadata["solver"]
        assert solver["nfev"] == calls
        assert solver["coordinates"] == 29
        assert solver["jacobian_evals"] >= 1 and solver["inversions"] >= 1
        assert solver["max_trace_drift"] == series.trace_error.max() < 1e-6

    @pytest.mark.parametrize("drift", [2e-6, 1e-7])
    def test_trace_drift_beyond_1e_6_raises_naming_the_sample(self, monkeypatch,
                                                              drift):
        # the integrator keeps Tr rho to rounding; the drift is added to the
        # first population of the sample at t = 3 us
        import rydcav.bubble as bubble

        def drifting(*args, **kwargs):
            samples, stats = integrate(*args, **kwargs)
            samples[3, 0] += drift
            return samples, stats

        monkeypatch.setattr(bubble, "integrate", drifting)
        run = dict(t_end=5.0, dt=1.0, nmax=2)
        if drift > 1e-6:
            with pytest.raises(IntegrationError,
                               match=r"^trace drift 2e-06 exceeds 1e-06 at t=3 us$"):
                evolve(transient_params(), **run)
        else:
            series = evolve(transient_params(), **run)
            assert series.trace_error[3] == pytest.approx(drift, rel=1e-6)
            assert series.metadata["solver"]["max_trace_drift"] == \
                series.trace_error[3]

    @pytest.mark.parametrize("nmax", [4, 6])
    def test_stiff_transient_matches_a_tight_explicit_reference(self, nmax):
        # the benchmark's transient shape at the default rtol, against the
        # explicit pair at rtol 1e-11; the samples are interpolated
        p = transient_params()
        series = evolve(p, t_end=35.0, dt=1.0, nmax=nmax, keep_states=True)
        model = BubbleModel(p, nmax=nmax)
        ref, _ = integrate(model.rhs_flat, 0.0, model.initial_flat(), series.t,
                           rtol=1e-11, atol=1e-13)
        want = np.array([model.transmission(y) for y in ref])
        assert np.abs(series.transmission - want).max() < 1e-6 * want.max()
        for st in series.states:
            assert st.trace_error < 1e-8
            assert st.min_eigenvalue > -1e-8


TIGHT = dict(t_end=16.0, dt=1.0, nmax=2, rtol=1e-10, atol=1e-12)


def tight_transmission(params, path, value):
    return evolve(set_path(params, path, value), **TIGHT).transmission


def assert_matches_richardson(params, path, h):
    """dT/d(path) against central differences with steps h and h/2."""
    exact = evolve(params, sensitivity=(path,), **TIGHT).dT_dtheta
    assert exact.shape == (17, 1)
    exact = exact[:, 0]
    scale = np.abs(exact).max()
    assert scale > 0.0
    theta = get_path(params, path)

    def central(step):
        return (tight_transmission(params, path, theta + step)
                - tight_transmission(params, path, theta - step)) / (2 * step)

    wide, narrow = central(h), central(h / 2)
    err_wide = np.abs(wide - exact).max()
    err_narrow = np.abs(narrow - exact).max()
    # second-order convergence onto the sensitivity, not onto a nearby value
    assert 3.6 < err_wide / err_narrow < 4.4
    richardson = (4.0 * narrow - wide) / 3.0
    assert np.abs(richardson - exact).max() < 1e-5 * scale


class TestXiSensitivity:
    """dT/dxi from the forward sensitivity against finite differences."""

    @pytest.mark.parametrize("xi", [1.1, 2.3])
    def test_matches_step_halved_central_difference(self, xi):
        assert_matches_richardson(transient_params(xi=xi), "rydberg.xi", 0.04)

    def test_central_difference_at_xi_zero(self):
        # the xi column needs the dark sector, which xi = 0 alone never enters
        assert_matches_richardson(transient_params(xi=0.0), "rydberg.xi", 0.04)

    def test_one_sided_difference_at_xi_zero(self):
        # df/dxi needs the dark-state block that xi = 0 alone would omit
        p = transient_params(xi=0.0)
        exact = evolve(p, sensitivity=("rydberg.xi",), **TIGHT).dT_dtheta[:, 0]
        scale = np.abs(exact).max()
        assert scale > 0.0
        base = tight_transmission(p, "rydberg.xi", 0.0)

        def forward(h):
            return (tight_transmission(p, "rydberg.xi", h) - base) / h

        wide, narrow = forward(0.01), forward(0.005)
        err_wide = np.abs(wide - exact).max()
        err_narrow = np.abs(narrow - exact).max()
        assert 1.8 < err_wide / err_narrow < 2.2
        assert np.abs(2.0 * narrow - wide - exact).max() < 5e-4 * scale

    def test_sensitivity_is_traceless(self):
        paths = ("rydberg.xi", "rydberg.gamma_r", "drive.alpha")
        model = BubbleModel(transient_params(xi=1.1), nmax=2, sensitivity=paths)
        n = model.size
        y0 = model.initial_flat()
        z, _ = integrate(model.rhs_sensitivity, 0.0,
                         np.concatenate((y0, np.zeros(3 * n))),
                         np.arange(1.0, 17.0), rtol=1e-10, atol=1e-12)
        for k in range(1, 4):
            s_r = z[:, k * n:k * n + model.nrho]
            assert np.abs(s_r).max() > 1e-3
            assert np.abs(s_r[:, :model.npop].sum(axis=1)).max() < 1e-12

    def test_rhs_state_half_equals_rhs_flat(self, rng):
        paths = ("rydberg.xi", "drive.omega_cf")
        model = BubbleModel(transient_params(xi=1.1), nmax=2, sensitivity=paths)
        z = rng.standard_normal(3 * model.size)
        out = model.rhs_sensitivity(0.0, z)
        want = model.rhs_flat(0.0, z[:model.size])
        np.testing.assert_allclose(out[:model.size], want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("xi", [0.0, 1.1, 2.3])
    def test_augmented_run_keeps_the_plain_accuracy(self, xi):
        # the two runs take different steps, so they agree to their own
        # global error, not to rtol; each stays within 3 rtol of the peak of
        # a tight reference (0.8-1.6 plain and 1.0-1.2 augmented here)
        p = transient_params(xi=xi)
        kw = dict(t_end=16.0, dt=1.0, nmax=2, rtol=1e-6, atol=1e-8)
        ref = evolve(p, t_end=16.0, dt=1.0, nmax=2, rtol=1e-12,
                     atol=1e-14).transmission
        plain = evolve(p, **kw)
        augmented = evolve(p, sensitivity=("rydberg.xi",), **kw)
        assert plain.dT_dtheta is None
        peak = ref.max()
        assert np.abs(augmented.transmission - plain.transmission).max() \
            < 50 * kw["rtol"] * peak
        for run in (plain, augmented):
            assert np.abs(run.transmission - ref).max() < 3 * kw["rtol"] * peak


class TestParameterSensitivity:
    """dT/dtheta for the other free parameters of a transient fit."""

    @pytest.mark.parametrize("path, h", [
        ("drive.alpha", 0.06),
        ("cavity.gamma_c", 0.2),
        ("ensemble.cooperativity", 0.1),
        ("drive.omega_cf", 0.08),
        ("rydberg.gamma_r", 0.002),
    ])
    def test_column_matches_step_halved_central_difference(self, path, h):
        assert_matches_richardson(transient_params(xi=1.1), path, h)

    def test_dark_decay_column_at_zero_dark_decay(self):
        # dL0/dgamma_s is nonzero where L0's gamma_s term vanishes
        assert_matches_richardson(transient_params(xi=1.1, gamma_s=0.0),
                                  "rydberg.gamma_s", 0.002)

    def test_state_sensitivity_at_zero_control(self):
        # at omega_cf = 0 only dL0/domega_cf leads into the R sector; T is
        # even in omega_cf, so the state, not dT, shows whether it is kept
        p = transient_params(xi=1.1, omega_cf=0.0)
        model = BubbleModel(p, nmax=2, sensitivity=("drive.omega_cf",))
        z, _ = integrate(model.rhs_sensitivity, 0.0,
                         np.concatenate((model.initial_flat(),
                                         np.zeros(model.size))),
                         TestReduction.TIMES, rtol=1e-10, atol=1e-12)
        exact = np.array([model.rho_matrix(row[model.size:]) for row in z])

        def rho(omega):
            series = evolve(set_path(p, "drive.omega_cf", omega), t_end=8.0,
                            dt=1.0, nmax=2, rtol=1e-10, atol=1e-12,
                            keep_states=True)
            return np.array([st.rho for st in series.states])

        h = 1e-3
        central = (rho(h) - rho(-h)) / (2 * h)
        scale = np.abs(exact).max()
        assert scale > 1e-2
        np.testing.assert_allclose(exact, central, rtol=0, atol=1e-5 * scale)

    def test_state_sensitivity_at_zero_drive(self):
        # at alpha = 0 the state never leaves |G, 0>; only the sensitivity
        # to alpha moves Im<a>, and with it the coherences it drives
        p = transient_params(xi=1.1, alpha=0.0)
        model = BubbleModel(p, nmax=2, sensitivity=("drive.alpha",))
        z, _ = integrate(model.rhs_sensitivity, 0.0,
                         np.concatenate((model.initial_flat(),
                                         np.zeros(model.size))),
                         TestReduction.TIMES, rtol=1e-10, atol=1e-12)
        exact = np.array([np.append(model.rho_matrix(row[model.size:]),
                                    model.cavity_amplitude(row[model.size:]))
                          for row in z])

        def state(alpha):
            series = evolve(set_path(p, "drive.alpha", alpha), t_end=8.0,
                            dt=1.0, nmax=2, rtol=1e-10, atol=1e-12,
                            keep_states=True)
            return np.array([np.append(st.rho, st.a) for st in series.states])

        h = 1e-3
        central = (state(h) - state(-h)) / (2 * h)
        scale = np.abs(exact[:, :-1]).max()
        assert scale > 1e-3
        np.testing.assert_allclose(exact, central, rtol=0,
                                   atol=1e-5 * np.abs(exact).max())

    def test_probe_detuning_column_off_resonance(self):
        # at delta_p = 0 the column vanishes by symmetry; off resonance it
        # also carries n_b(delta_p) through the blockade volume
        assert_matches_richardson(transient_params(xi=1.1, delta_p=1.5),
                                  "drive.delta_p", 0.01)

    def test_columns_do_not_depend_on_their_company(self):
        p = transient_params(xi=1.1)
        paths = ("drive.omega_cf", "rydberg.xi", "drive.alpha")
        together = evolve(p, sensitivity=paths, **TIGHT).dT_dtheta
        assert together.shape == (17, 3)
        for k, path in enumerate(paths):
            alone = evolve(p, sensitivity=(path,), **TIGHT).dT_dtheta[:, 0]
            np.testing.assert_allclose(together[:, k], alone, rtol=0,
                                       atol=1e-7 * np.abs(alone).max())


def detuned_params(**kw):
    return transient_params(delta_p=1.5, delta_cf=0.3, **kw)


#: (params, n_b) of each case of the scalar rows
_ROW_CASES = {
    "detuned": (detuned_params(), None),
    "gamma_s-follows-gamma_r": (detuned_params(gamma_s=None), None),
    "c6-override": (detuned_params(c6_override=-5000.0), None),
    "n_b-given": (detuned_params(), 3.0),
    "n_b-clamped": (detuned_params(c6_override=0.0), None),
    "alpha-zero": (detuned_params(alpha=0.0), None),
}


def scalar_richardson(params, n_b, path, rel=1e-3):
    """Richardson-extrapolated central difference of the model's scalars in
    ``path``, with steps h = rel max(|theta|, 1) and h/2."""
    theta = get_path(params, path)
    h = rel * max(abs(theta), 1.0)

    def central(step):
        up, down = (np.array(_scalars(set_path(params, path, v), n_b))
                    for v in (theta + step, theta - step))
        return (up - down) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


class TestScalarRows:
    """The closed-form derivatives of the model's scalars, every path at once."""

    @pytest.mark.parametrize("case", sorted(_ROW_CASES))
    def test_rows_match_richardson(self, case):
        # every float parameter with a value is differentiated; one that is
        # None (gamma_s following gamma_r, C6 from the series) is refused
        p, n_b = _ROW_CASES[case]
        sc = _scalars(p, n_b)
        paths = [path for path in FLOAT_PATHS if get_path(p, path) is not None]
        for path in sorted(set(FLOAT_PATHS) - set(paths)):
            with pytest.raises(ValueError, match=re.escape(
                    f"{path!r}: not a float parameter")):
                _scalar_rows(p, n_b, sc, (path,))
        rows = _scalar_rows(p, n_b, sc, paths)
        ref = np.column_stack([scalar_richardson(p, n_b, path) for path in paths])
        for name, got, want in zip(_Scalars._fields, rows, ref, strict=True):
            assert got.shape == (len(paths),)
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-8 * np.abs(want).max(), err_msg=name)
        # a path's column does not depend on the other paths asked for
        for k, path in enumerate(paths):
            np.testing.assert_array_equal(
                np.array(_scalar_rows(p, n_b, sc, (path,)))[:, 0],
                np.array(rows)[:, k], err_msg=path)

    def test_cases_reach_each_branch(self):
        assert _scalars(*_ROW_CASES["n_b-clamped"]).n_b == 1.0
        assert _scalars(*_ROW_CASES["alpha-zero"]).gain == 0.0
        p, _ = _ROW_CASES["detuned"]
        assert 1.0 < _scalars(p, None).n_b < p.ensemble.atom_number

    @pytest.mark.parametrize("path, kw", [
        ("rydberg.n", {}), ("ensemble.atom_number", {}), ("rydberg.series", {}),
        ("scan.start", dict(scan=ScanSpec(0.0, 1.0, 2))),
        ("rydberg.gamma_s", dict(gamma_s=None)), ("rydberg.c6_override", {}),
    ])
    def test_path_that_is_no_float_parameter_fails_before_the_run(self, path, kw):
        # a difference in n spanned n = 84 -> 85 (set_path truncates it); a
        # None value has no step to take
        p = transient_params(**kw)
        assert get_path(p, "rydberg.c6_override") is None   # C6 from the series
        with pytest.raises(ValueError, match=re.escape(
                f"{path!r}: not a float parameter")):
            evolve(p, t_end=2.0, dt=1.0, nmax=2,
                   sensitivity=("rydberg.xi", path))

    def test_coupling_path_at_zero_coupling_raises(self):
        # g sqrt(n_b) goes as sqrt(C): at C = 0 its derivative in C has no value
        p = transient_params(cooperativity=0.0)
        with pytest.raises(SolverError,
                           match=r"dT/densemble\.cooperativity .* g sqrt\(n_b\) = 0"):
            evolve(p, t_end=2.0, dt=1.0, nmax=2,
                   sensitivity=("drive.alpha", "ensemble.cooperativity"))

    def test_paths_that_leave_zero_coupling_at_zero_keep_zero_rows(self):
        p = transient_params(cooperativity=0.0, delta_p=1.5)
        paths = ("drive.alpha", "cavity.gamma_c", "ensemble.gamma_e",
                 "drive.delta_p", "ensemble.cloud_volume")
        sc = _scalars(p, None)
        assert sc.g_nb == 0.0
        rows = _scalar_rows(p, None, sc, paths)
        assert not rows.g_nb.any() and not rows.prefactor.any()
        assert rows.n_b.any()   # n_b moves, but g sqrt(n_b) stays 0
        series = evolve(p, t_end=4.0, dt=1.0, nmax=2, sensitivity=paths)
        assert np.isfinite(series.dT_dtheta).all()


class TestSteady:
    def test_matches_evolve_plateau_without_dark_decay(self):
        p = weak_drive_params()
        result = steady_transmission_bubble(p, nmax=2, n_b=1.0)
        series = evolve(p, t_end=40.0, dt=10.0, nmax=2, n_b=1.0)
        assert result.converged
        assert result.transmission == pytest.approx(series.transmission[-1],
                                                    rel=1e-3)

    def test_dark_decay_only_removes_transmission(self):
        base = dict(gamma_r=0.05, gamma_s=0.002, alpha=2.0)
        p_off = transient_params(xi=0.0, **base)
        p_on = transient_params(xi=2.0, **base)
        t_off = steady_transmission_bubble(p_off, nmax=3, t_max=120.0)
        t_on = steady_transmission_bubble(p_on, nmax=3, t_max=120.0)
        assert t_on.transmission <= t_off.transmission

    @pytest.mark.parametrize("kw", [
        # the slowest mode (tau ~ 19 us) outlasts the 5 us window, which
        # stopped a window-to-window convergence test at T = 0.201107
        {},
        dict(alpha=10.0),
        dict(alpha=30.0),
        # with xi = 0 nothing enters S, and with no decay out of it either
        # its population would be conserved beside Tr rho
        dict(xi=0.0, gamma_s=0.0),
        dict(xi=0.0, gamma_r=0.0, gamma_s=None),
        dict(xi=0.0, gamma_s=0.0, omega_cf=0.0),
    ], ids=["slow-mode", "alpha-10", "alpha-30", "closed-dark-sector",
            "closed-dark-sector-gamma_r-0", "closed-dark-sector-omega-0"])
    def test_fixed_point_matches_long_evolve(self, kw):
        p = transient_params(**kw)
        result = steady_transmission_bubble(p, nmax=2)
        series = evolve(p, t_end=600.0, dt=600.0, nmax=2)
        assert result.converged
        assert result.t_final <= 500.0
        assert 1 <= result.newton_iterations <= 10
        assert result.residual < 1e-12
        assert result.transmission == pytest.approx(series.transmission[-1],
                                                    rel=1e-5)

    def test_singular_jacobian_evolves_to_t_max(self, monkeypatch):
        # with J = 0 every continuation step is an explicit-Euler step, which
        # crawls (0.44 us of pseudo-time in 100 iterations here), so t_max
        # is one the steps reach; the Newton matrix after it is singular
        def singular(model, y):
            return np.zeros((model.size, model.size))

        monkeypatch.setattr(BubbleModel, "jacobian", singular)
        result = steady_transmission_bubble(weak_drive_params(), t_max=0.1,
                                            nmax=1)
        assert not result.converged
        assert result.t_final == 0.1
        assert result.verdict == "singular matrix"
        assert np.isfinite(result.transmission)

    def test_absorbing_dark_state_fails_within_the_iteration_cap(self):
        # with no decay out of S the root (everything in S) is degenerate
        # and the dynamics reach it only as a power law
        import rydcav.bubble as bubble

        result = steady_transmission_bubble(transient_params(gamma_s=0.0),
                                            nmax=2)
        assert not result.converged
        assert result.newton_iterations <= bubble._PTC_MAXITER

    def test_root_that_is_not_a_state_is_rejected(self, monkeypatch, caplog):
        import rydcav.bubble as bubble

        def to_negative_population(model, y, res, shift):
            rho = np.zeros((model.dim, model.dim))
            rho[0, 0], rho[1, 1] = 1.5, -0.5
            return BubbleModel(model.params, nmax=model.nmax,
                               rho0=rho).initial_flat() - y

        monkeypatch.setattr(bubble, "_ptc_step", to_negative_population)
        caplog.set_level(logging.DEBUG, logger="rydcav")
        result = steady_transmission_bubble(weak_drive_params(), t_max=6.0,
                                            nmax=1)
        assert not result.converged
        assert result.t_final <= 6.0
        assert "not a state (min eigenvalue of rho = -0.5)" in caplog.text

    def test_threshold_validation(self):
        for bad in ({"t_max": 0.0}, {"t_max": -5.0}):
            with pytest.raises(ValueError):
                steady_transmission_bubble(weak_drive_params(), nmax=1, **bad)

    def test_nan_threshold_rejected(self):
        # NaN compares false with everything, so a `<= 0` check lets it
        # pass; float() takes True as 1.0
        for bad in ({"t_max": float("nan")}, {"t_max": float("inf")},
                    {"t_max": True}):
            with pytest.raises(ValueError):
                steady_transmission_bubble(weak_drive_params(), nmax=1, **bad)

    @pytest.mark.parametrize("rtol", [float("nan"), float("inf"),
                                      float("-inf"), -1.0])
    def test_bad_rtol_rejected_before_any_jacobian(self, monkeypatch, rtol):
        def no_jacobian(model, y):
            raise AssertionError("Jacobian evaluated")

        monkeypatch.setattr(BubbleModel, "jacobian", no_jacobian)
        with pytest.raises(ValueError, match="rtol must be >= 0 and finite"):
            steady_transmission_bubble(weak_drive_params(), nmax=1, rtol=rtol)

    def test_zero_rtol_still_converges(self):
        result = steady_transmission_bubble(weak_drive_params(), nmax=2,
                                            rtol=0.0)
        assert result.converged
        assert result.verdict == "stable"


# --- keyword arguments: refused before any evaluation, or the call runs -------

# no number (float() takes each), or no positive finite one
_NOT_POSITIVE = [True, False, np.bool_(True), "1e-3", "2", float("nan"),
                 np.float64("nan"), float("inf"), 0, 0.0, np.int64(0), -1,
                 np.float64(-0.5)]
_NOT_NMAX = [True, 2.0, 1.5, "2", 0, np.int64(0), -1, float("nan")]


def _is_positive(value, allow_zero=False):
    if isinstance(value, (bool, np.bool_, str)):
        return False
    v = float(value)
    return np.isfinite(v) and (v >= 0.0 if allow_zero else v > 0.0)


def _is_nmax(value):
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= 1)


def _run_counting_rhs(call, valid, errors=ValueError):
    """``call()``: with ``valid`` it returns after evaluating the
    right-hand side (``rhs_flat`` or ``rhs_sensitivity``); without, it
    raises ``errors`` before the first evaluation."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("rhs_flat", "rhs_sensitivity"):
            mp.setattr(BubbleModel, name,
                       lambda self, t, y, rhs=getattr(BubbleModel, name):
                       calls.append(t) or rhs(self, t, y))
        if valid:
            call()
            assert calls
        else:
            with pytest.raises(errors):
                call()
            assert calls == []


@settings(max_examples=40, deadline=None)
@given(kw=st.fixed_dictionaries({}, optional={
    "rtol": st.sampled_from([1e-6, np.float64(1e-4), 1e-3] + _NOT_POSITIVE),
    "atol": st.sampled_from([1e-8, np.float64(1e-6)] + _NOT_POSITIVE),
    "t_end": st.sampled_from([1.0, 2, np.float64(2.0), np.int64(1)] + _NOT_POSITIVE),
    "dt": st.sampled_from([0.5, 1, np.float64(0.5), np.int64(1)] + _NOT_POSITIVE),
    "nmax": st.sampled_from([1, 2, np.int64(2)] + _NOT_NMAX)}))
def test_evolve_refuses_a_bad_keyword_before_any_evaluation(kw):
    # every valid t_end here is a whole multiple of every valid dt
    valid = (all(_is_positive(v) for k, v in kw.items() if k != "nmax")
             and _is_nmax(kw.get("nmax", 1)))
    kw = {"t_end": 1.0, "nmax": 2, **kw}
    _run_counting_rhs(lambda: evolve(transient_params(), **kw), valid)


@settings(max_examples=40, deadline=None)
@given(kw=st.fixed_dictionaries({}, optional={
    "t_max": st.sampled_from([500.0, np.float64(50.0), np.int64(100), 1]
                             + _NOT_POSITIVE),
    "rtol": st.sampled_from([1e-8, np.float64(1e-6)] + _NOT_POSITIVE),
    "nmax": st.sampled_from([1, 2, np.int64(2)] + _NOT_NMAX),
    "n_b": st.sampled_from([1.0, np.float64(3.0), np.int64(2), 25] + _NOT_POSITIVE)}))
def test_steady_solve_refuses_a_bad_keyword_before_any_evaluation(kw):
    # rtol may be 0
    valid = (all(_is_positive(v, allow_zero=k == "rtol") for k, v in kw.items()
                 if k != "nmax")
             and _is_nmax(kw.get("nmax", 1)))
    kw = {"nmax": 2, **kw}
    _run_counting_rhs(lambda: steady_transmission_bubble(weak_drive_params(), **kw),
                      valid)


#: float paths, paths that name an integer, no parameter or no field of
#: these parameters, and one whose value is None
_SOME_PATHS = st.sampled_from(FLOAT_PATHS + ("rydberg.n", "bogus.x", "scan.start",
                                             "drive.omega"))
_PATH_TUPLES = st.one_of(
    st.lists(_SOME_PATHS, max_size=3).map(tuple),
    st.lists(_SOME_PATHS, min_size=1, max_size=2).map(lambda p: (*p, p[0])),
    st.sampled_from(["rydberg.xi", "", "drive.alpha"]))


def _paths_valid(params, paths):
    """Whether ``paths`` is a tuple of distinct float paths with values."""
    return (not isinstance(paths, str) and len(set(paths)) == len(paths)
            and all(p in FLOAT_PATHS and get_path(params, p) is not None
                    for p in paths))


@settings(max_examples=40, deadline=None)
@given(paths=_PATH_TUPLES)
def test_sensitivity_paths_are_checked_before_any_evaluation(paths):
    # rydberg.c6_override is None here: C6 comes from the series
    p = transient_params()
    assert get_path(p, "rydberg.c6_override") is None
    valid = _paths_valid(p, paths)
    _run_counting_rhs(lambda: evolve(p, t_end=2.0, dt=0.5, nmax=2,
                                     sensitivity=paths),
                      valid, (ValueError, KeyError))

    def fit_run():
        x = np.linspace(0.0, 2.0, 9)
        problem = FitProblem(x=x, y=np.zeros(9), model="bubble_transient",
                             base_params=p, free=paths, model_options={"nmax": 2})
        problem.model_curve(problem.initial)

    # a fit needs at least one free path
    _run_counting_rhs(fit_run, valid and bool(paths), (ValueError, KeyError))


class SyntheticRoot:
    """A stand-in model whose restricted Jacobian at y = 0 is ``restricted``.

    Column 0 of J is zero, so the restriction is J[1:, 1:].
    """

    npop = 2

    def __init__(self, restricted):
        self.jac = np.zeros((len(restricted) + 1,) * 2)
        self.jac[1:, 1:] = restricted

    def rho_matrix(self, y):
        return np.eye(2) / 2

    def jacobian(self, y):
        return self.jac.copy()


def hidden_spectrum(eigenvalues, seed=0):
    """A real matrix with the given spectrum (complex ones with their
    conjugates), in a random well-conditioned basis."""
    blocks = [np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
              if lam.imag else np.array([[lam.real]])
              for lam in map(complex, eigenvalues)]
    n = sum(len(b) for b in blocks)
    diag = np.zeros((n, n))
    ends = np.cumsum([len(b) for b in blocks])
    for b, end in zip(blocks, ends):
        diag[end - len(b):end, end - len(b):end] = b
    rng = np.random.default_rng(seed)
    basis = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    return basis @ diag @ np.linalg.inv(basis)


def benchmark_steady_cases():
    """(params, kwargs) of the eight weak-drive steady solves of the
    transient-cutoff benchmark and of D n=85 at nmax 2/4/6."""
    cases = [(weak_drive_params(delta_p=dp), dict(nmax=4, n_b=1.0))
             for dp in (-14.0, -10.0, -6.0, -2.0, 2.0, 6.0, 10.0, 14.0)]
    return cases + [(transient_params(), dict(nmax=nmax)) for nmax in (2, 4, 6)]


class TestStabilityCertificate:
    @staticmethod
    def roots(monkeypatch, cases):
        import rydcav.bubble as bubble

        found = []
        verdict = bubble._verdict

        def record(model, y):
            found.append((model, y))
            return verdict(model, y)

        monkeypatch.setattr(bubble, "_verdict", record)
        for params, kw in cases:
            assert steady_transmission_bubble(params, **kw).converged
        return found

    def test_agrees_with_the_eigenvalues_on_the_benchmark_roots(self,
                                                                monkeypatch):
        import rydcav.bubble as bubble

        found = self.roots(monkeypatch, benchmark_steady_cases())
        assert len(found) == 11
        for model, y in found:
            matrix = bubble._restricted_jacobian(model, y)
            growth = np.linalg.eigvals(matrix).real.max()
            certified, squarings = bubble._certify_stable(matrix)
            assert certified == (growth < -bubble._MARGINAL)
            assert certified and 1 <= squarings <= 13

    def test_resonant_roots_are_stable_in_the_full_space(self, monkeypatch, rng):
        # on resonance the solve and its certificate see only the sector
        # the model keeps; embedded in every coordinate, each root is
        # still stable against perturbations into the dropped sector
        import rydcav.bubble as bubble

        cases = [transient_params(xi=0.0), transient_params(xi=2.0),
                 make_params(n=60, omega_cf=8.0, alpha=8.0)]
        found = self.roots(monkeypatch, [(p, dict(nmax=4)) for p in cases])
        assert len(found) == 3
        for params, (model, y) in zip(cases, found):
            d = model.dim
            assert model.size < d * d + 2
            full = BubbleModel(params, nmax=4, rho0=random_density_matrix(d, rng))
            assert full.size == d * d + 2
            rho, a = model.rho_matrix(y), model.cavity_amplitude(y)
            basis = _hermitian_basis(d)
            r = (basis.a.conj() * rho.reshape(-1)[basis.p]
                 + basis.b.conj() * rho.reshape(-1)[basis.q]).real
            y_full = np.concatenate((r, [a.real, a.imag]))
            np.testing.assert_allclose(full.rho_matrix(y_full), rho, atol=1e-15)
            # the root of the kept sector is a root of the full space
            assert np.abs(full.rhs_flat(0.0, y_full)).max() < 1e-12
            growth = np.linalg.eigvals(
                bubble._restricted_jacobian(full, y_full)).real.max()
            assert growth < -bubble._MARGINAL

    def test_stable_solve_needs_no_eigenvalues(self, monkeypatch, caplog):
        def no_eigvals(*args, **kw):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        caplog.set_level(logging.DEBUG, logger="rydcav")
        result = steady_transmission_bubble(weak_drive_params(delta_p=-13.5),
                                            nmax=4, n_b=1.0)
        assert result.converged
        assert result.verdict == "stable"
        assert "stability certified in " in caplog.records[-1].getMessage()

    @pytest.mark.parametrize("eigenvalues, accepted, verdict", [
        # a slowly growing mode among stiff, fast-rotating stable ones
        ([1e-3, -1e4, -3e3 + 1e3j, -800 + 200j, -150, -40 + 30j, -2,
          -0.5 + 5j], False, "unstable (max Re = 0.001 rad/us)"),
        ([1j, -3.0, -40 + 2j], False, "marginal (max Re = "),
        # decays by only 4e-4 over the certificate's horizon
        ([-1e-6, -2.0, -30 + 7j], True, "stable"),
        ([0.0, -1.0, -20 + 4j], False, "marginal (max Re = "),
    ], ids=["hidden-unstable", "imaginary-pair", "slow-stable", "zero"])
    def test_synthetic_spectra_fall_back_to_the_eigenvalues(
            self, eigenvalues, accepted, verdict):
        import rydcav.bubble as bubble

        model = SyntheticRoot(hidden_spectrum(eigenvalues))
        restricted = bubble._restricted_jacobian(model, None)
        certified, squarings = bubble._certify_stable(restricted)
        assert not certified
        y = np.zeros(len(restricted) + 1)
        ok, got, decided = bubble._verdict(model, y)
        assert (ok, got[:len(verdict)]) == (accepted, verdict)
        assert decided == (f"stability from the eigenvalues after "
                           f"{squarings} squarings")

    def test_steady_solves_never_integrate(self, monkeypatch):
        import rydcav.bubble as bubble

        def no_integrate(*args, **kw):
            raise AssertionError("integrate called")

        monkeypatch.setattr(bubble, "integrate", no_integrate)
        for params, kw in benchmark_steady_cases():
            assert steady_transmission_bubble(params, **kw).converged
        # a marginal root is rejected, not evolved
        model = SyntheticRoot(hidden_spectrum([1j, -3.0, -40 + 2j]))
        ok, verdict, _ = bubble._verdict(model, np.zeros(6))
        assert not ok and verdict.startswith("marginal (max Re = ")

    def test_squarings_stop_before_an_overflow(self):
        import rydcav.bubble as bubble

        # c = (1 + 5) / (1 - 5) per step: 2^13 squarings would overflow
        certified, squarings = bubble._certify_stable(
            hidden_spectrum([200.0, -1.0]))
        assert not certified
        assert squarings < 13


class TestLogging:
    def test_silent_by_default(self):
        code = ("from rydcav import steady_transmission_bubble\n"
                "from conftest import make_params\n"
                "steady_transmission_bubble(make_params(n=85, series='D', "
                "alpha=0.05), nmax=1)\n"
                "from rydcav import evolve\n"
                "evolve(make_params(n=85, series='D'), t_end=1.0, nmax=1)\n"
                "from rydcav import ScanSpec, scan_meanfield\n"
                "scan_meanfield(make_params(), ScanSpec(-5.0, 5.0, 11))\n"
                "import numpy as np\n"
                "from rydcav import FitProblem, fit, transmission_linear\n"
                "x = np.linspace(-20.0, 20.0, 21)\n"
                "fit(FitProblem(x=x, y=transmission_linear(make_params(), x), "
                "model='linear_eit', base_params=make_params(cooperativity=5.5), "
                "free=('ensemble.cooperativity',)))\n"
                "import logging\n"
                "logging.getLogger('rydcav.bubble').warning('reached stderr')\n")
        tests_dir = Path(__file__).resolve().parent
        src_dir = tests_dir.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src_dir), str(tests_dir), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_one_debug_record_per_steady_solve(self, caplog):
        caplog.set_level(logging.DEBUG, logger="rydcav")
        result = steady_transmission_bubble(weak_drive_params(), nmax=1)
        records = [r for r in caplog.records if r.name.startswith("rydcav")]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        message = records[0].getMessage()
        assert result.coordinates == BubbleModel(weak_drive_params(), nmax=1).size
        assert message.startswith(
            f"bubble steady solve (nmax 1, {result.coordinates} coordinates): ")
        assert (f"{result.newton_iterations} iteration(s) to pseudo-time "
                f"{result.t_final:g} us, residual {result.residual:.3g}"
                in message)
        assert message.endswith(", stable, converged=True")


    def test_one_debug_record_per_evolve(self, caplog):
        caplog.set_level(logging.DEBUG, logger="rydcav")
        series = evolve(transient_params(), t_end=4.0, dt=1.0, nmax=2)
        records = [r for r in caplog.records if r.name.startswith("rydcav")]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        solver = series.metadata["solver"]
        assert records[0].getMessage() == (
            f"bubble evolve (nmax 2, 29 coordinates) to t = 4 us: "
            f"{solver['nfev']} rhs evaluations, {solver['accepted_steps']} "
            f"accepted and {solver['rejected_steps']} rejected steps, "
            f"{solver['jacobian_evals']} Jacobian evaluations, "
            f"{solver['inversions']} inversions")


class TestTimeSeries:
    def test_header(self):
        assert TimeSeries.header == "t_us,transmission,pop_R,pop_S,trace_error"

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2),
                       np.zeros(2), np.zeros(2))


def test_model_reconstruction_round_trip(rng):
    p = transient_params()
    rho = random_density_matrix(build_operators(2).dim, rng)
    model = BubbleModel(p, nmax=2, rho0=rho, a0=0.2 + 0.5j)
    y = model.initial_flat()
    back = model.rho_matrix(y)
    np.testing.assert_allclose(back, rho, atol=1e-12)
    assert model.cavity_amplitude(y) == pytest.approx(0.2 + 0.5j)
    assert model.trace(y) == pytest.approx(1.0, rel=1e-12)


def test_collective_coupling_constants():
    # g sqrt(n_b) = sqrt(2 g_e g_c C n_b / N), cavity prefactor (N/n_b) g sqrt(n_b)
    p = make_params(gamma_e=3.0, gamma_c=10.0, cooperativity=5.0,
                    atom_number=10_000)
    model = BubbleModel(p, nmax=1, n_b=25.0)
    two_pi = 2.0 * np.pi
    want_g = np.sqrt(2 * (two_pi * 3) * (two_pi * 10) * 5.0 * 25.0 / 10_000)
    assert model.g_nb_a == pytest.approx(want_g, rel=1e-12)
    assert model.prefactor_a == pytest.approx((10_000 / 25.0) * want_g, rel=1e-12)


def test_n_b_computed_from_interactions_when_not_given():
    from rydcav.interactions import atoms_per_bubble, blockade_volume, c6_d

    p = make_params(n=85, series="D", gamma_r=0.05)
    model = BubbleModel(p, nmax=1)
    D_e, D_r, _ = p.complex_detunings()
    v_b = blockade_volume(D_e, D_r, p.drive.omega_cf, c6_d(85))
    want = atoms_per_bubble(p.ensemble.atom_number, v_b, p.ensemble.cloud_volume)
    assert want > 1.0
    assert model.n_b == pytest.approx(want, rel=1e-12)
