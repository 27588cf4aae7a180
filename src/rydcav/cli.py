"""Command-line front end: scans, evolutions, fits and C6 lookup.

The table commands (``linear-scan``, ``meanfield-scan``, ``bubble-evolve``)
write their columns as CSV rows under the result's ``header`` or, with
``--format json``, as JSON lists keyed by the header's names; the others
write JSON or print to stdout.  ``--seed`` seeds ``--noise`` and exists
only where that does; the output records it only when there is noise.
A negative ``--noise`` or ``--seed`` is refused before the config is read.
An ``--override`` value is checked and converted as the same value in a
config file is.  An ``--out`` that is a directory, or whose directory does
not exist, is refused before the config is read.

Exit codes: 0 success (or ``--help``), 1 usage, configuration, validation
or file error, 2 solver or integrator failure.  All outputs are
deterministic for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bubble, fitting, interactions, linear, meanfield
from .datafiles import config_hash, read_xy_csv, table_names, write_csv, write_json
from .errors import ConfigError, IntegrationError, SingularParameterError, SolverError
from .params import (PhysicalParams, RydbergLevel, load_config, params_to_dict,
                     require_positive, set_path, validate)

_DEFAULT_FREE_EIT = "cavity.gamma_c,ensemble.cooperativity,drive.omega_cf,rydberg.gamma_r"


def _add_common(sub):
    sub.add_argument("--config", required=True, help="JSON config file")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--override", nargs="*", default=(), metavar="KEY=VAL",
                     help="config overrides, e.g. drive.alpha=0.5")


def _load_params(args):
    params = load_config(args.config)
    for item in args.override:
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError([f"override '{item}' is not KEY=VAL"])
        try:
            parsed = json.loads(val)
        except json.JSONDecodeError:
            parsed = val
        try:
            params = set_path(params, key, parsed)
        except KeyError as exc:
            raise ConfigError([str(exc)]) from exc
    return validate(params)


def _meta(args, params, extra=None):
    meta = {"config_hash": config_hash(params_to_dict(params))}
    if getattr(args, "noise", 0.0):
        meta["seed"] = args.seed
    meta.update(extra or {})
    return meta


def _emit_table(args, header, columns, meta, **extra):
    """Write ``columns`` as a CSV table under ``header``, or as JSON lists
    keyed by the header's names, with ``extra`` beside them; either way
    :func:`rydcav.datafiles.table_names` refuses a table of the wrong
    shape first."""
    if args.format == "json":
        lists = {name: col.tolist()
                 for name, col in zip(table_names(header, columns), columns)}
        write_json(args.out, {**lists, **extra}, meta)
    else:
        write_csv(args.out, header, columns, meta)


def _check_noise(args):
    """Refuse a negative or non-finite ``--noise`` and a negative ``--seed``
    before the config is read."""
    require_positive("--noise", args.noise, allow_zero=True)
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")


def _noise(args, values):
    if not args.noise:
        return values
    rng = np.random.default_rng(args.seed)
    sigma = args.noise * float(np.max(np.abs(values)))
    return values + sigma * rng.standard_normal(len(values))


def _cmd_linear_scan(args):
    _check_noise(args)
    params = _load_params(args)
    spec = linear.scan_linear(params)
    meta = _meta(args, params, {"noise": args.noise} if args.noise else None)
    _emit_table(args, spec.header,
                (spec.delta_p, _noise(args, spec.transmission)), meta)
    return 0


def _cmd_meanfield_scan(args):
    params = _load_params(args)
    curve = meanfield.scan_meanfield(params, variable=args.variable)
    failed = int(curve.failed.sum())
    # counts and deterministic floats only, so the output stays byte-identical
    meta = _meta(args, params, {"variable": args.variable,
                                "failed_points": failed,
                                "worst_residual": curve.worst_residual,
                                "root_counts": curve.root_counts})
    _emit_table(args, curve.header,
                (curve.axis, curve.transmission, curve.x, curve.root_count), meta,
                failed_points=failed)
    return 0


def _cmd_bubble_evolve(args):
    _check_noise(args)
    params = _load_params(args)
    series = bubble.evolve(params, t_end=args.t_end, dt=args.dt,
                           nmax=args.nmax, rtol=args.rtol)
    # the solver's counts and trace drift, never its times, keep the
    # output deterministic
    meta = _meta(args, params, {"nmax": args.nmax, "rtol": args.rtol,
                                **series.metadata["solver"],
                                **({"noise": args.noise} if args.noise else {})})
    _emit_table(args, series.header,
                (series.t, _noise(args, series.transmission), series.pop_R,
                 series.pop_S, series.trace_error), meta)
    return 0


def _cmd_bubble_steady(args):
    params = _load_params(args)
    result = bubble.steady_transmission_bubble(
        params, t_max=args.t_max, nmax=args.nmax, rtol=args.rtol)
    payload = {"transmission": result.transmission,
               "converged": result.converged, "t_final_us": result.t_final,
               "newton_iterations": result.newton_iterations,
               "residual": result.residual, "verdict": result.verdict,
               "coordinates": result.coordinates}
    meta = _meta(args, params, {"nmax": args.nmax, "rtol": args.rtol,
                                "t_max": args.t_max})
    write_json(args.out, payload, meta)
    return 0


def _run_fit(args, model, default_free):
    params = _load_params(args)
    x, y, w = read_xy_csv(args.data)
    free = tuple((args.free or default_free).split(","))
    if args.weighting == "poisson" and w is None:
        w = fitting.poisson_weights(y)
    opts = {}
    if model == "bubble_transient":
        opts = {"nmax": args.nmax, "rtol": args.rtol}
    problem = fitting.FitProblem(x=x, y=y, weights=w, model=model,
                                 base_params=params, free=free,
                                 model_options=opts)
    result = fitting.fit(problem)
    payload = result.as_dict()
    payload["model"] = model
    write_json(args.out, payload,
               _meta(args, params, {"data": str(args.data)}))
    return 0


def _cmd_fit_eit(args):
    return _run_fit(args, "meanfield" if args.nonlinear else "linear_eit",
                    _DEFAULT_FREE_EIT)


def _cmd_fit_transient(args):
    return _run_fit(args, "bubble_transient", "rydberg.xi")


def _cmd_c6(args):
    # the level is checked as a config's is
    level = validate(PhysicalParams(
        rydberg=RydbergLevel(n=args.n, series=args.series))).rydberg
    value = interactions.c6_coefficient(level)
    print(f"{value:g} GHz.um6")
    return 0


def _cmd_validate(args):
    params = _load_params(args)
    print(f"config ok (hash {config_hash(params_to_dict(params))})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydcav",
        description="Cavity Rydberg-EIT transmission simulator and fitting toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("linear-scan", help="linear EIT transmission spectrum")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive Gaussian noise fraction for synthetic fixtures")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.set_defaults(func=_cmd_linear_scan)

    p = subs.add_parser("meanfield-scan", help="nonlinear mean-field spectrum")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--variable", choices=("delta_p", "rate"), default="delta_p")
    p.set_defaults(func=_cmd_meanfield_scan)

    p = subs.add_parser("bubble-evolve", help="time evolution of the bubble model")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--t-end", type=float, default=40.0, help="end time (us)")
    p.add_argument("--dt", type=float, default=0.5, help="sampling step (us)")
    p.add_argument("--nmax", type=int, default=bubble.DEFAULT_NMAX)
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.set_defaults(func=_cmd_bubble_evolve)

    p = subs.add_parser("bubble-steady",
                         help="steady bubble-model transmission (chord steps "
                              "on the empty cavity's inverted Newton matrix, "
                              "Newton where a chord step does not halve the "
                              "residual, pseudo-transient continuation to the "
                              "fixed point where Newton stalls)")
    _add_common(p)
    p.add_argument("--t-max", type=float, default=500.0,
                   help="pseudo-time (us) after which the continuation, run "
                        "only where the chord and Newton start stalls, takes "
                        "plain Newton steps")
    p.add_argument("--nmax", type=int, default=bubble.DEFAULT_NMAX)
    p.add_argument("--rtol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_bubble_steady)

    p = subs.add_parser("fit-eit", help="fit a transmission spectrum")
    _add_common(p)
    p.add_argument("--data", required=True, help="CSV with x,y[,weight]")
    p.add_argument("--free", help=f"free parameters (default {_DEFAULT_FREE_EIT})")
    p.add_argument("--weighting", choices=("uniform", "poisson"), default="uniform")
    p.add_argument("--nonlinear", action="store_true",
                   help="fit the mean-field model instead of the linear formula")
    p.set_defaults(func=_cmd_fit_eit)

    p = subs.add_parser("fit-transient", help="fit a bubble-model transient")
    _add_common(p)
    p.add_argument("--data", required=True, help="CSV with t,transmission")
    p.add_argument("--free", help="free parameters (default rydberg.xi)")
    p.add_argument("--weighting", choices=("uniform", "poisson"), default="uniform")
    p.add_argument("--nmax", type=int, default=bubble.DEFAULT_NMAX)
    p.add_argument("--rtol", type=float, default=1e-7)
    p.set_defaults(func=_cmd_fit_transient)

    p = subs.add_parser("c6", help="van der Waals coefficient lookup")
    p.add_argument("--series", choices=("S", "D"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_c6)

    p = subs.add_parser("validate", help="validate a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--override", nargs="*", default=(), metavar="KEY=VAL")
    p.set_defaults(func=_cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built once per process (about
    1.5 ms); parsing leaves it unchanged, and the ``--override`` default is
    an immutable empty tuple, so no call sees another's arguments."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is the
        # solver's code here
        return 1 if exc.code else 0
    out = getattr(args, "out", None)
    if out is not None and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        print(f"error: cannot write --out {out}: it is a directory or its "
              "directory does not exist", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, IntegrationError, SingularParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
