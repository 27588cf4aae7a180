"""The benchmark's workloads: inputs made from the seed, rounds, checks.

A workload is set up from the seed, then runs whole *rounds*: every round
repeats the same operations on the same inputs, so a round's counts and its
share of failed operations are the same in every round and every run.  Each
operation is timed on its own, against a HostClock; the checks are not part
of any timing.
"""

from __future__ import annotations

import cmath
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from rydcav import bubble, cli, fitting
from rydcav.params import params_from_dict, set_paths


class HostClock:
    """Host speed, from a fixed reference kernel timed between operations.

    The hosts this runs on are shared, and their speed drifts by tens of
    percent over seconds to minutes.  The kernel does both kinds of work the
    package does -- interpreter-bound complex-scalar and small-array code,
    and a matrix-vector product streaming a 6.2 MB matrix, the size of the
    nmax-6 generator -- so it slows down with the program.  An operation's
    time is scaled by NOMINAL_S over the median kernel time measured within
    WINDOW_S of it, which gives seconds at a fixed host speed.
    """

    NOMINAL_S = 0.014  # about the kernel's time on an unloaded host; sets the unit
    STALE_S = 0.1      # sample between operations when the last sample is older
    WINDOW_S = 2.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((1764, 441)) / 40.0
        self._vector = rng.standard_normal(441)
        self._small = np.arange(8.0)
        self.samples: list[tuple[float, float]] = []   # (end time, seconds)

    def _kernel(self) -> None:
        acc = 0j
        for i in range(2000):
            z = complex(i * 1e-3, 0.5)
            z = z * z / (abs(z) + 1.0) + cmath.sqrt(z + 1.0)
            acc += z + float((self._small * z.real + 1.0).sum()) * 1e-6
        y = self._vector
        for _ in range(30):
            y = (self._matrix @ y)[:441] * 0.5 + self._vector
        if not (np.isfinite(y).all() and cmath.isfinite(acc)):
            raise FloatingPointError("reference kernel diverged")

    def sample(self) -> None:
        """Time the kernel unless the last sample is recent."""
        now = time.perf_counter()
        if not self.samples or now - self.samples[-1][0] > self.STALE_S:
            self._kernel()
            done = time.perf_counter()
            self.samples.append((done, done - now))

    def timed(self, fn, *args, **kwargs):
        """(result, start, end) of one call, with kernel samples around it."""
        self.sample()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.sample()
        return out, t0, t1

    def scaled(self, t0: float, t1: float) -> float:
        """Host-scaled seconds of the interval [t0, t1]."""
        near = [s for t, s in self.samples
                if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
        return (t1 - t0) * self.NOMINAL_S / statistics.median(near)


@dataclass
class Round:
    """What one round did: each operation's interval and work, check results."""

    clock: HostClock
    ops: list[list] = field(default_factory=list)  # [start, end, headline, work]
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def timed(self, fn, *args, headline=False, work=0.0, **kwargs):
        """Call fn, record its interval; ``work`` counts toward the rate."""
        out, t0, t1 = self.clock.timed(fn, *args, **kwargs)
        self.ops.append([t0, t1, headline, work])
        self.attempted += 1
        return out

    @property
    def session_s(self) -> float:
        """Raw wall time of the round's operations."""
        return sum(t1 - t0 for t0, t1, _, _ in self.ops)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


def base_config() -> dict:
    """Paper-scale parameters in the package's config-file format."""
    return {
        "cavity": {"length": 0.066, "finesse": 120.0, "gamma_c": 10.0,
                   "delta_bg": 0.0},
        "ensemble": {"atom_number": 10000, "cooperativity": 5.0,
                     "gamma_e": 3.0, "cloud_volume": 680000.0},
        "rydberg": {"n": 70, "series": "S", "gamma_r": 0.2, "gamma_s": None,
                    "xi": 0.0, "c6_override": None},
        "drive": {"delta_p": 0.0, "delta_cf": 0.0, "omega_cf": 4.0,
                  "alpha": 1.0},
    }


def config(**updates) -> dict:
    """base_config() with ``section__key=value`` or whole-section updates."""
    cfg = base_config()
    for key, value in updates.items():
        section, _, name = key.partition("__")
        if name:
            cfg[section][name] = value
        else:
            cfg[section] = value
    return cfg


def d_state(n: int, xi: float, **updates) -> dict:
    return config(rydberg__n=n, rydberg__series="D", rydberg__gamma_r=0.05,
                  rydberg__gamma_s=0.002, rydberg__xi=xi, drive__alpha=3.0,
                  **updates)


# --------------------------------------------------------------------------

class XiFit:
    """Single-level dark-state-rate fits, acceptance criterion 10's shape.

    Levels n = 60/66/77/85 with their generating rates; nmax 2 transients
    over 16 us sampled every 1 us.  Per level and round: one fit of the clean
    transient and NOISY_FITS fits of seeded 2%-noise copies, each starting
    from 1.3 times the generating rate.
    """

    LEVELS = ((60, 1.8), (66, 2.2), (77, 2.3), (85, 1.1))
    NOISY_FITS = 3
    FIT_OPTS = {"nmax": 2, "rtol": 1e-5, "atol": 1e-8}
    FIT_KW = {"xtol": 1e-4, "ftol": 1e-6}

    def __init__(self, seed: int, workdir: Path, clock: HostClock):
        self.seed = seed
        self.clock = clock

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.cases = []
        for n, xi in self.LEVELS:
            truth = params_from_dict(d_state(n, xi))
            clean = bubble.evolve(truth, t_end=16.0, dt=1.0, nmax=2, rtol=1e-7)
            start = set_paths(truth, {"rydberg.xi": 1.3 * xi})
            sigma = 0.02 * float(clean.transmission.max())
            series = [clean]
            for _ in range(self.NOISY_FITS):
                noisy = clean.transmission + sigma * rng.standard_normal(clean.t.size)
                series.append(bubble.TimeSeries(clean.t, noisy, clean.pop_R,
                                                clean.pop_S, clean.trace_error))
            self.cases.append((n, xi, start, series))

    def _fit(self, n, start, series):
        return fitting.fit_xi_series([(n, series)], {n: start},
                                     model_options=self.FIT_OPTS, **self.FIT_KW)

    def headline(self) -> None:
        n, _, start, series = self.cases[-1]
        self._fit(n, start, series[0])

    def round(self) -> Round:
        r = Round(self.clock)
        for n, xi, start, series in self.cases:
            for ts in series:
                (est,) = r.timed(self._fit, n, start, ts, headline=True, work=1.0)
                r.check("fit converged", est.converged)
                r.check("xi recovered within its CI",
                        checks.recovered(est.xi, xi, est.ci95, floor=0.02 * xi))
        return r


class TransientCutoff:
    """Long D-state transients at two boson cutoffs plus weak-drive steady
    solves.

    n = 85 with a seeded dark-state rate; evolve over EVOLVE_US at nmax 4
    and 6, sampled every 1 us; chunked steady solves at nmax 4 and eight
    seeded detunings, in the weak-drive limit where the linear closed form
    holds.
    """

    EVOLVE_US = 35.0
    CUTOFFS = (4, 6)

    def __init__(self, seed: int, workdir: Path, clock: HostClock):
        self.seed = seed
        self.clock = clock

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        xi = float(rng.uniform(1.6, 2.4))
        self.transient = params_from_dict(d_state(85, xi))
        self.steady = []
        for center in (-14.0, -10.0, -6.0, -2.0, 2.0, 6.0, 10.0, 14.0):
            dp = center + float(rng.uniform(-1.0, 1.0))
            cfg = config(rydberg__n=85, rydberg__series="D", rydberg__gamma_r=0.2,
                         rydberg__gamma_s=0.2, drive__alpha=0.05, drive__delta_p=dp)
            self.steady.append((params_from_dict(cfg),
                                float(checks.linear_transmission(cfg, dp))))
        for nmax in self.CUTOFFS:  # warm-up: model builds and first steps
            bubble.evolve(self.transient, t_end=0.5, dt=0.5, nmax=nmax)

    def headline(self) -> None:
        bubble.steady_transmission_bubble(self.steady[0][0], nmax=4, n_b=1.0)

    def round(self) -> Round:
        r = Round(self.clock)
        curves = []
        for nmax in self.CUTOFFS:
            series = r.timed(bubble.evolve, self.transient, t_end=self.EVOLVE_US,
                             dt=1.0, nmax=nmax, keep_states=True, work=self.EVOLVE_US)
            r.check("density matrix valid at every sample",
                    all(checks.density_matrix_ok(st.rho) for st in series.states))
            curves.append(series.transmission)
        r.check("nmax 4 and 6 agree within 1% of the peak",
                np.max(np.abs(curves[0] - curves[1])) < 0.01 * np.max(curves[1]))
        for params, want in self.steady:
            res = r.timed(bubble.steady_transmission_bubble, params, nmax=4,
                          n_b=1.0, headline=True)
            r.check("steady solve converged", res.converged)
            r.check("weak-drive steady transmission matches linear form (2%)",
                    abs(res.transmission - want) <= 0.02 * want)
        return r


# --------------------------------------------------------------------------

def run_cli(*argv) -> None:
    """cli.main outside a timed round, where a failure must stop the run."""
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"rydcav {argv[0]} exited with {code}")


def read_rows(path: Path) -> np.ndarray:
    """Numeric rows of a CSV written by the CLI (comments and header skipped)."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


class SSpectra:
    """An S-state spectroscopy session through the command line, in-process.

    For n = 56/60/70/79: a 201-point mean-field detuning scan at a seeded
    photon rate, a 31-point photon-rate scan on resonance, a 1%-noise
    linear scan fitted by ``fit-eit`` from a seeded start, and a 2-parameter
    ``fit-eit --nonlinear`` of the mean-field scan.  Then three photon-rate
    scans across the bistable window of S n=60 (Omega 8 MHz, delta_cf -10,
    delta_p +10 MHz): a coarse one and fine ones at both turning points.
    These points are fixed, not seeded; each point whose reported root count
    differs from the independent cubic count is a failed operation.
    """

    LEVELS = (56, 60, 70, 79)
    RATE_SCAN = (0.0, 30.0, 31)
    BISTABLE = config(rydberg__n=60, drive__omega_cf=8.0, drive__delta_cf=-10.0,
                      drive__delta_p=10.0,
                      scan={"start": 97.0, "stop": 102.0, "npoints": 101})
    BISTABLE_SCANS = ((97.0, 102.0, 101), (98.165, 98.175, 101),
                      (101.285, 101.295, 101))
    LINEAR_FREE = ("cavity.gamma_c", "ensemble.cooperativity", "drive.omega_cf",
                   "rydberg.gamma_r")
    NONLINEAR_FREE = ("drive.omega_cf", "ensemble.cooperativity")

    def __init__(self, seed: int, workdir: Path, clock: HostClock):
        self.seed = seed
        self.dir = workdir
        self.clock = clock

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.levels = []
        for n in self.LEVELS:
            rate = float(rng.uniform(6.0, 12.0))
            cfg = config(rydberg__n=n, drive__alpha=float(np.sqrt(10.0 * rate)),
                         scan={"start": -30.0, "stop": 30.0, "npoints": 201})
            path = self.dir / f"s{n}.json"
            path.write_text(json.dumps(cfg))
            lin_start = self._start(cfg, self.LINEAR_FREE, rng)
            nl_start = self._start(cfg, self.NONLINEAR_FREE, rng)
            noise_seed = int(rng.integers(2**31))
            self.levels.append((n, cfg, path, rate, noise_seed, lin_start, nl_start))
        self.bistable = self.dir / "bistable.json"
        self.bistable.write_text(json.dumps(self.BISTABLE))
        # warm-up, and the data of the first level's nonlinear fit for headline()
        n, _, path, *_ = self.levels[0]
        run_cli("meanfield-scan", "--config", path, "--out", self.dir / f"mf{n}.csv")

    def headline(self) -> None:
        n, _, path, *_, nl_start = self.levels[0]
        run_cli(*self._fit_argv(path, self.dir / f"mf{n}.csv",
                                self.dir / f"fitnl{n}.json", nl_start, True))

    @staticmethod
    def _start(cfg, free, rng) -> dict:
        """Seeded starting point 5-15% away from the generating values."""
        out = {}
        for path in free:
            section, _, name = path.partition(".")
            factor = 1.0 + float(rng.uniform(0.05, 0.15)) * float(rng.choice((-1, 1)))
            out[path] = cfg[section][name] * factor
        return out

    def _cli(self, r: Round, *argv, headline=False):
        code = r.timed(cli.main, [str(a) for a in argv], headline=headline)
        r.check("command exit code 0", code == 0)

    def _scan(self, r: Round, cfg: dict, path: Path, out: Path, *extra,
              rate=None) -> np.ndarray:
        """Run one meanfield-scan and check every point against the cubic."""
        self._cli(r, "meanfield-scan", "--config", path, "--out", out, *extra)
        rows = read_rows(out)
        r.ops[-1][3] = len(rows)
        r.attempted -= 1  # the scan's points are counted instead
        for axis, _, x, count in rows:
            # a detuning scan runs at a fixed rate, a rate scan at fixed delta_p
            dp, rt = (axis, rate) if rate is not None else (cfg["drive"]["delta_p"], axis)
            coeffs = checks.steady_cubic(cfg, dp, rt)
            r.attempted += 1
            r.check("every x is a root of the steady-state cubic",
                    checks.cubic_residual(coeffs, x) < 1e-9)
            if checks.cubic_root_count(coeffs) != int(count):
                r.failed += 1
        return rows

    def round(self) -> Round:
        r = Round(self.clock)
        d = self.dir
        drops = []
        for n, cfg, path, rate, noise_seed, lin_start, nl_start in self.levels:
            self._scan(r, cfg, path, d / f"mf{n}.csv", rate=rate)
            start, stop, npts = self.RATE_SCAN
            rows = self._scan(r, cfg, path, d / f"rate{n}.csv", "--variable", "rate",
                              "--override", f"scan.start={start}", f"scan.stop={stop}",
                              f"scan.npoints={npts}")
            drops.append(1.0 - rows[:, 1] / rows[0, 1])

            self._cli(r, "linear-scan", "--config", path, "--noise", 0.01,
                      "--seed", noise_seed, "--out", d / f"lin{n}.csv")
            lin = read_rows(d / f"lin{n}.csv")
            sigma = 0.01 * np.max(np.abs(checks.linear_transmission(cfg, lin[:, 0])))
            r.check("noisy linear scan within 6 sigma of the closed form",
                    np.all(np.abs(lin[:, 1] - checks.linear_transmission(cfg, lin[:, 0]))
                           < 6.0 * sigma))
            self._fit(r, cfg, path, d / f"lin{n}.csv", d / f"fitlin{n}.json",
                      lin_start, nonlinear=False)
            self._fit(r, cfg, path, d / f"mf{n}.csv", d / f"fitnl{n}.json",
                      nl_start, nonlinear=True)

        drops = np.array(drops)
        r.check("transmission loss does not decrease with photon rate",
                np.all(np.diff(drops, axis=1) >= -1e-12))
        r.check("transmission loss grows with n",
                np.all(np.diff(drops[:, 1:], axis=0) > 0))

        for i, (start, stop, npts) in enumerate(self.BISTABLE_SCANS):
            self._scan(r, self.BISTABLE, self.bistable, d / f"bistable{i}.csv",
                       "--variable", "rate", "--override", f"scan.start={start}",
                       f"scan.stop={stop}", f"scan.npoints={npts}")
        return r

    @staticmethod
    def _fit_argv(path, data, out, start: dict, nonlinear: bool) -> list[str]:
        argv = ["fit-eit", "--config", path, "--data", data, "--out", out,
                "--free", ",".join(start),
                "--override", *(f"{k}={v!r}" for k, v in start.items())]
        if nonlinear:
            argv.append("--nonlinear")
        return [str(a) for a in argv]

    def _fit(self, r: Round, cfg, path, data, out, start: dict, nonlinear: bool):
        self._cli(r, *self._fit_argv(path, data, out, start, nonlinear),
                  headline=nonlinear)
        report = json.loads(out.read_text())
        r.check("fit converged", report["converged"])
        for p in start:
            section, _, name = p.partition(".")
            truth = cfg[section][name]
            ci = report["ci95"][p]
            # clean mean-field data has a zero-width interval: use a floor
            ok = checks.recovered(report["best_fit"][p], truth,
                                  ci if ci is not None else float("nan"),
                                  floor=1e-6 * abs(truth))
            r.check("fitted parameters recover their generating values", ok)


def probe(workdir: Path) -> None:
    """A fixed, small call into every layer, run after a traced workload.

    It gives per-call costs for layers the workload itself never calls.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    params = params_from_dict(d_state(85, 2.0))
    for nmax in (2, 4, 6):
        bubble.evolve(params, t_end=1.0, dt=0.5, nmax=nmax)
    path = workdir / "probe.json"
    path.write_text(json.dumps(config(scan={"start": -30.0, "stop": 30.0,
                                            "npoints": 21})))
    data = workdir / "probe.csv"
    for argv in (["linear-scan", "--noise", "0.01", "--out", data],
                 ["meanfield-scan", "--out", workdir / "probe-mf.csv"],
                 ["fit-eit", "--data", data, "--out", workdir / "probe-fit.json",
                  "--free", "ensemble.cooperativity,drive.omega_cf"]):
        run_cli(*argv, "--config", path)


WORKLOADS = {"xi-fit": XiFit, "transient-cutoff": TransientCutoff,
             "s-spectra": SSpectra}

