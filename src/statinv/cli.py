"""Command-line front end.

Subcommands
-----------
simulate        emit one observation as CSV
estimate-noise  run the noise-level pipeline and print the estimate
choose          run one parameter-choice method on a single realization
converge        run the configured Monte Carlo study and write its CSV

simulate, estimate-noise and choose act on realization (0, 0): the first
replicate at the first delta of delta_list, the one ``converge`` draws first,
drawn as a batch of one row.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (for
example the discrepancy principle applied to white noise, or a noise-level
estimate that overflows).

A process that runs ``main`` registers ``gc.freeze`` with ``atexit``, once.
At shutdown the interpreter's last collection then skips the import graph
(about 23,500 tracked objects of numpy and statinv, none used again) and
leaves those pages to the OS: about 20 ms of every run, a quarter of a
small study.  The hook is registered in ``main``, not at import, so a library
import leaves the interpreter's exit as it was, and nothing touches the
collector while the run lasts.  It is not ``os._exit``: every other ``atexit``
handler still runs (``logging.shutdown`` among them) and stdout and stderr are
still flushed; only that last collection pass is skipped.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, DataUnavailableError, WhiteNoiseError
from .harness import (
    ExperimentConfig,
    build_study,
    choose,
    parse_config,
    run_mse_study,
    run_veto_study,
    write_mse_csv,
    write_veto_csv,
)
from .noise import observation_to_csv
from .noise_level import refine_delta_hat

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statinv",
        description="Statistical regularization experiments for ill-posed problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "estimate-noise", "choose", "converge"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--method", default=None, help="override the parameter-choice method")
    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config is not None else ExperimentConfig()
    overrides = {key: getattr(args, key) for key in ("seed", "method", "out") if getattr(args, key) is not None}
    cfg = replace(cfg, **overrides)  # re-runs the config's checks on the overrides
    if not cfg.out:  # empty paths behave like no path at all
        cfg.out = None
    return cfg


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    if cfg.out is None:
        raise ConfigError("simulate needs an output path (--out or 'out' in the config)")
    obs = build_study(cfg).batch(0, [0]).fine.row(0)
    observation_to_csv(obs, cfg.out)
    print(f"wrote observation (n={obs.n}, delta={obs.delta:g}) to {cfg.out}")
    return 0


def _cmd_estimate_noise(cfg: ExperimentConfig) -> int:
    study = build_study(cfg)
    data = study.batch(0, [0])
    result = refine_delta_hat(study.op, data, cfg.estimator, study.sched)
    print(f"delta_tilde_sq = {result.delta_tilde_sq:.17g}")
    print(f"delta_hat      = {result.delta_hat:.17g}")
    print(f"n_used         = {result.n_used}")
    print(f"iterations     = {result.iterations}")
    print(f"converged      = {result.converged}")
    print(f"true delta     = {data.fine.delta:.17g}")
    return 0


def _write_choice_row(path, delta, delta_hat, j_star, alpha_star, error, flags):
    cells = [format(delta, ".17g"), "" if delta_hat is None else format(delta_hat, ".17g")]
    cells += ["" if j_star is None else str(j_star), format(alpha_star, ".17g")]
    cells += [format(error, ".17g"), ";".join(flags)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("delta,delta_hat,j_star,alpha_star,error,flags\n" + ",".join(cells) + "\n")


def _cmd_choose(cfg: ExperimentConfig) -> int:
    study = build_study(cfg)
    data = study.batch(0, [0])
    obs = data.fine
    chosen = choose(study, cfg.method, data)
    # the batch is one row: read row 0 of each of the choice's arrays
    delta_hat, j_star, m, residual, satisfied = (
        None if v is None else v[0].item()
        for v in (chosen.delta_hat, chosen.j_star, chosen.m, chosen.residual, chosen.satisfied)
    )
    alpha, flags = chosen.alpha[0].item(), chosen.flags[0]
    err = float(np.linalg.norm(chosen.x[0] - study.x_true.coeffs))
    print(f"method = {cfg.method}")
    if delta_hat is not None:
        print(f"delta_hat = {delta_hat:.17g} (true {obs.delta:.17g})")
    if j_star is not None:
        print(f"j_star = {j_star} (m = {m})")
    print(f"alpha  = {alpha:.17g}")
    if residual is not None:
        print(f"residual = {residual:.17g}\nsatisfied = {satisfied}")
    print(f"error  = {err:.17g}\nflags  = {flags}")
    if cfg.out is not None:
        _write_choice_row(cfg.out, obs.delta, delta_hat, j_star, alpha, err, flags)
        print(f"wrote {cfg.out}")
    return 0


def _cmd_converge(cfg: ExperimentConfig) -> int:
    if cfg.out is None:
        raise ConfigError("converge needs an output path (--out or 'out' in the config)")
    if cfg.study == "veto":
        rows = run_veto_study(cfg)
        write_veto_csv(rows, cfg.out)
        for row in rows:
            print(
                f"delta={row.delta:g}  mse_known={row.mse_known:.6g}  "
                f"mse_estimated={row.mse_estimated:.6g}  ratio={row.ratio:.3g}  "
                f"hit_rate={row.hit_rate:.3g}"
            )
    else:
        rows = run_mse_study(cfg)
        write_mse_csv(rows, cfg.out)
        for row in rows:
            print(f"delta={row.delta:g}  method={row.method}  mc_mse={row.mc_mse:.6g}")
    print(f"wrote {cfg.out}")
    return 0


@functools.cache
def _freeze_at_exit() -> None:
    """Register ``gc.freeze`` to run at exit, once per process (see the module docstring)."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "simulate":
            return _cmd_simulate(cfg)
        if args.command == "estimate-noise":
            return _cmd_estimate_noise(cfg)
        if args.command == "choose":
            return _cmd_choose(cfg)
        return _cmd_converge(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (WhiteNoiseError, DataUnavailableError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
