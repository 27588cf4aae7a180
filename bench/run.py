"""Benchmark runner for rydcav.

    python3 bench/run.py --workload xi-fit --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout, importing the package from
``src/``.  One process, BLAS pinned to one thread, ``RYDCAV_THREADS``
unset.  The workload is set up from the seed SETUP_REPEATS times (set-up
time is the import time plus their median), then runs whole rounds until
``--seconds`` have passed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md for what each metric means.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
OVERHEAD_PAIRS = 3
LAYERS = ("cli", "datafiles", "params", "fitting", "meanfield", "linear",
          "interactions", "bubble", "ode")
CLI_COMMANDS = ("linear-scan", "meanfield-scan", "fit-eit")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment() -> None:
    """One BLAS thread, no package worker threads; before numpy loads."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("RYDCAV_THREADS", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_rounds(workload, seconds: float, tracer=None) -> list:
    t0 = time.perf_counter()
    rounds = []
    while True:
        if tracer is None:
            rounds.append(workload.round())
        else:
            rounds.append(tracer.run("bench.round", "bench", workload.round))
        if time.perf_counter() - t0 >= seconds:
            return rounds


def end_to_end(rounds: list, setup_s: float, clock) -> dict:
    """End-to-end metrics of an untraced run.

    Times are host-scaled (workloads.HostClock).  Rounds repeat the same
    operations, so each operation's time is its median over the rounds,
    which keeps a burst of load on the host from counting in full.
    """
    import numpy as np

    times = np.median([[clock.scaled(op[0], op[1]) for op in r.ops] for r in rounds],
                      axis=0)
    headline = np.array([op[2] for op in rounds[0].ops])
    work = np.array([op[3] for op in rounds[0].ops])
    return {
        "setup_s": (setup_s, "s"),
        "session_s": (float(times.sum()), "s"),
        "op_mean_s": (float(times[headline].mean()), "s"),
        "rate_per_s": (float(work.sum() / times[work > 0].sum()), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(tracer, probe, rounds: int, traced_round_s: float,
              overhead: float) -> dict:
    """Per-layer metrics of a traced run.

    Counts are per round of the workload and may be 0.  Per-call times,
    ratios and rates come from the workload's own calls, or, for a layer
    the workload never calls, from the fixed probe, so that no time is
    reported as 0.
    """

    def ratio(num, den, scale=1.0):
        for t in (tracer, probe):
            n, d = num(t), den(t)
            if d:
                return scale * n / d
        return 0.0

    def calls(prefix):
        return lambda t: t.total(prefix)[0]

    def secs(prefix):
        return lambda t: t.total(prefix)[1]

    def cnt(label):
        return lambda t: t.count.get(label, 0)

    m = {}
    # bubble
    m["bubble.rhs_calls"] = (tracer.total("bubble.rhs_flat.")[0] / rounds, "count")
    for k in (2, 4, 6):
        m[f"bubble.rhs_us.n{k}"] = (ratio(secs(f"bubble.rhs_flat.n{k}"),
                                          calls(f"bubble.rhs_flat.n{k}"), 1e6), "us")
    # dense generator with the dark-state block: 4 blocks of nsq x nsq doubles
    nsq6 = (3 * 7) ** 2
    m["bubble.rhs_gbps_computed.n6"] = (
        4 * nsq6 * nsq6 * 8 / m["bubble.rhs_us.n6"][0] / 1e3, "GB/s")
    m["bubble.builds"] = (tracer.total("bubble.build.")[0] / rounds, "count")
    m["bubble.build_ms"] = (ratio(secs("bubble.build."), calls("bubble.build."),
                                  1e3), "ms")
    for k in (4, 6):
        m[f"bubble.evolve_sim_us_per_s.n{k}"] = (
            ratio(cnt(f"bubble.sim_us.n{k}"), secs(f"bubble.evolve.n{k}")), "1/s")
    # ode
    m["ode.integrate_calls"] = (tracer.count.get("ode.integrate", 0) / rounds, "count")
    m["ode.nfev_per_integrate"] = (ratio(calls("bubble.rhs_flat."),
                                         cnt("ode.integrate")), "count")
    m["ode.self_share"] = (ratio(lambda t: t.layer_self.get("ode", 0.0),
                                 secs("ode.integrate")), "share")
    # fitting
    m["fitting.fits"] = (tracer.count.get("fitting.fit", 0) / rounds, "count")
    m["fitting.iterations_per_fit"] = (ratio(cnt("fitting.iterations"),
                                             cnt("fitting.fit")), "count")
    m["fitting.model_evals_per_fit"] = (ratio(cnt("fitting.model_curve"),
                                              cnt("fitting.fit")), "count")
    m["fitting.jacobian_share"] = (ratio(secs("fitting.jacobian"),
                                         secs("fitting.fit")), "share")
    # meanfield
    m["meanfield.solves"] = (tracer.count.get("meanfield.solve", 0) / rounds, "count")
    m["meanfield.solve_us"] = (ratio(secs("meanfield.solve"), calls("meanfield.solve"),
                                     1e6), "us")
    m["meanfield.residual_evals_per_solve"] = (
        ratio(cnt("linear.eit_factors"), cnt("meanfield.solve")), "count")
    # cli and datafiles
    for cmd in CLI_COMMANDS:
        m[f"cli.ms.{cmd}"] = (ratio(secs(f"cli.{cmd}"), calls(f"cli.{cmd}"), 1e3), "ms")
    per_round = tracer.total("datafiles.")[1] / rounds
    m["datafiles.ms"] = (1e3 * (per_round or probe.total("datafiles.")[1]), "ms")
    # self time of each layer as a share of the traced round, and overhead
    for layer in LAYERS:
        m[f"self_share.{layer}"] = (
            tracer.layer_self.get(layer, 0.0) / rounds / traced_round_s, "share")
    m["trace.overhead"] = (overhead, "share")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    import numpy  # noqa: F401  (part of the measured import time)

    import spans
    import workloads

    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload '{args.workload}'; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    results = HERE / "results"
    workdir = results / f"work-{args.workload}-{os.getpid()}"
    try:
        clock = workloads.HostClock()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, clock)
        setups = [clock.timed(wl.setup)[1:] for _ in range(SETUP_REPEATS)]
        setup_s = (clock.scaled(T_START, T_START + import_s)
                   + statistics.median(clock.scaled(*s) for s in setups))

        if args.trace:
            # tracing overhead: a headline operation untraced and traced in
            # turn, OVERHEAD_PAIRS times, compared by median
            plain, traced = [], []
            for _ in range(OVERHEAD_PAIRS):
                plain.append(timed(wl.headline))
                scratch = spans.Tracer()
                spans.install(scratch)
                try:
                    traced.append(timed(wl.headline))
                finally:
                    scratch.remove()
            overhead = statistics.median(traced) / statistics.median(plain) - 1.0

            tracer = spans.Tracer()
            spans.install(tracer)
            try:
                rounds = run_rounds(wl, args.seconds, tracer)
            finally:
                tracer.remove()
            probe = spans.Tracer()
            spans.install(probe)
            try:
                workloads.probe(workdir)
            finally:
                probe.remove()
            traced_s = statistics.median(r.session_s for r in rounds)
            metrics = per_layer(tracer, probe, len(rounds), traced_s, overhead)
            tracer.dump(results / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            rounds = run_rounds(wl, args.seconds)
            metrics = end_to_end(rounds, setup_s, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    check_names = sorted({name for r in rounds for name in r.checks})
    check_ok = {name: all(r.checks.get(name, True) for r in rounds)
                for name in check_names}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} rounds, {attempted} operations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, ok in check_ok.items():
        print(f"  check {'PASS' if ok else 'FAIL'}: {name}")

    result = {
        "correct": all(check_ok.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results.mkdir(exist_ok=True)
    (results / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(dict(result, rounds=len(rounds),
                                  raw_op_s=[[op[1] - op[0] for op in r.ops]
                                            for r in rounds],
                                  kernel_s=[s for _, s in clock.samples],
                                  checks=check_ok), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
