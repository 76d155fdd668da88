"""Command-line front end: file in, file out, one subcommand per pipeline stage.

Subcommands: ``ingest`` (prices to weekly log returns), ``ir`` (returns to an
IR-vs-lookback curve), ``regimes`` (segmentation report plus the regime-
averaged curve), ``simulate`` (Monte Carlo IR curve for a process spec),
``fit`` (stationary or square-wave model fit), and ``theory`` (closed-form
curve for given process parameters).  Every randomized command requires an
explicit ``--seed``; repeated runs produce byte-identical outputs.  The
``MOMIR_LOG`` environment variable (DEBUG/INFO/WARNING/...) controls log
verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from . import fit as fit_mod
from . import regimes as regimes_mod
from . import simulate as simulate_mod
from . import strategy, theory, timeseries

log = logging.getLogger("momir")


def _configure_logging() -> None:
    level_name = os.environ.get("MOMIR_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momir",
        description="Momentum information-ratio analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="price CSV -> weekly log-return CSV")
    p_ingest.add_argument("--input", required=True, help="CSV with header date,price")
    p_ingest.add_argument("--output", required=True, help="weekly log-return CSV (date,value)")
    p_ingest.add_argument(
        "--frequency", choices=["daily", "weekly"], default="daily",
        help="sampling of the input prices (daily input is resampled to weekly)",
    )

    p_ir = sub.add_parser("ir", help="weekly returns -> empirical IR curve CSV")
    p_ir.add_argument("--input", required=True, help="return CSV with header date,value")
    p_ir.add_argument("--output", required=True)
    p_ir.add_argument("--p", type=int, default=10, help="normalization window (periods)")
    p_ir.add_argument("--n-min", type=int, default=1)
    p_ir.add_argument("--n-max", type=int, required=True)
    p_ir.add_argument("--periods-per-year", type=float, default=52.0)

    p_reg = sub.add_parser("regimes", help="returns -> regime report + averaged IR curve")
    p_reg.add_argument("--input", required=True, help="return CSV with header date,value")
    p_reg.add_argument("--output", required=True, help="regime report CSV")
    p_reg.add_argument("--output-curve", required=True, help="regime-averaged IR curve CSV")
    p_reg.add_argument("--p", type=int, default=10)
    p_reg.add_argument("--n-min", type=int, default=1)
    p_reg.add_argument("--n-max", type=int, default=43)
    p_reg.add_argument("--min-weeks", type=int, default=70, help="drop shorter regimes")
    p_reg.add_argument("--threshold-n", type=int, default=20, help="case I/II lookback split")
    p_reg.add_argument("--min-segment-months", type=int, default=12)
    p_reg.add_argument("--max-breaks", type=int, default=None)
    p_reg.add_argument("--periods-per-year", type=float, default=52.0)

    p_sim = sub.add_parser("simulate", help="process spec JSON -> Monte Carlo IR curve CSV")
    p_sim.add_argument("--spec", required=True, help="JSON process spec with a 'variant' field")
    p_sim.add_argument("--output", required=True)
    p_sim.add_argument("--n-min", type=int, default=1)
    p_sim.add_argument("--n-max", type=int, required=True)
    p_sim.add_argument("--paths", type=int, default=500)
    p_sim.add_argument("--length", type=int, default=6068)
    p_sim.add_argument("--seed", type=int, required=True)

    p_fit = sub.add_parser("fit", help="empirical IR curve -> fitted model JSON")
    p_fit.add_argument("--input", required=True, help="IR curve CSV")
    p_fit.add_argument("--output", required=True, help="fit result JSON")
    p_fit.add_argument("--model", choices=["stationary", "squarewave"], required=True)
    p_fit.add_argument("--k-lags", type=int, default=10, help="stationary: autocorrelations to fit")
    p_fit.add_argument("--fixed-sd", type=float, default=1.5, help="stationary: held-fixed sd")
    p_fit.add_argument("--mu-fixed", type=float, default=None, help="squarewave: growth rate")
    p_fit.add_argument("--sigma-fixed", type=float, default=1.5, help="squarewave: noise sd")
    p_fit.add_argument("--noise-kind", choices=["iid", "ma_targets"], default="iid")
    p_fit.add_argument("--t-min", type=int, default=100)
    p_fit.add_argument("--t-max", type=int, default=260)
    p_fit.add_argument("--t-step", type=int, default=10)
    p_fit.add_argument("--paths", type=int, default=120, help="squarewave: MC paths per candidate")
    p_fit.add_argument("--length", type=int, default=None, help="squarewave: series length")
    p_fit.add_argument("--seed", type=int, default=None, help="squarewave: required")

    p_theory = sub.add_parser("theory", help="closed-form IR curve for given parameters")
    p_theory.add_argument("--output", required=True)
    p_theory.add_argument("--mu", type=float, required=True)
    p_theory.add_argument("--variance", type=float, required=True)
    p_theory.add_argument(
        "--rho", default="", help="comma-separated autocorrelations from lag 1"
    )
    p_theory.add_argument("--n-min", type=int, default=1)
    p_theory.add_argument("--n-max", type=int, required=True)
    return parser


def _cmd_ingest(args: argparse.Namespace) -> int:
    prices = timeseries.read_price_csv(args.input)
    n_in = len(prices)
    if args.frequency == "daily":
        prices = timeseries.resample_to_weekly(prices)
    returns = timeseries.log_returns(prices)
    timeseries.write_series_csv(args.output, returns.dates, returns.returns)
    print(f"{n_in} prices -> {len(prices)} weekly prices -> {len(returns)} returns")
    return 0


def _cmd_ir(args: argparse.Namespace) -> int:
    returns = timeseries.read_value_csv(args.input)
    if len(returns) <= args.p + args.n_max:
        raise ValueError(
            f"need more than p + n_max = {args.p + args.n_max} returns "
            f"for --p {args.p} and --n-max {args.n_max}, got {len(returns)}"
        )
    x = timeseries.normalize(returns, args.p)
    log.info("normalized %d returns; mean |X| = %.3f", len(x), timeseries.mean_abs_level(x))
    curve = strategy.ir_curve(x, (args.n_min, args.n_max), args.periods_per_year)
    strategy.write_ir_curve_csv(args.output, curve)
    undefined = int(np.sum(~np.isfinite(curve.ir)))
    if undefined:
        log.warning("%d lookbacks have undefined IR (zero payoff variance)", undefined)
    print(f"{len(curve)} lookbacks written to {args.output}")
    return 0


def _cmd_regimes(args: argparse.Namespace) -> int:
    returns = timeseries.read_value_csv(args.input)
    x = timeseries.normalize(returns, args.p)
    seg = regimes_mod.weekly_segmentation(
        returns, min_segment_months=args.min_segment_months, max_breaks=args.max_breaks
    )
    kept = regimes_mod.filter_regimes(seg, args.min_weeks)
    log.info(
        "%d breakpoints -> %d segments, %d of length >= %d weeks",
        len(seg.breakpoints), len(seg.segments), len(kept.segments), args.min_weeks,
    )
    stats = []
    for segment in kept.segments:
        # Regime spans are indices into the return series; the normalized
        # series starts p returns later.
        start = max(segment.start - args.p, 0)
        end = segment.end - args.p
        if end - start <= args.n_max:
            log.warning(
                "skipping regime at returns [%d, %d): only %d normalized samples",
                segment.start, segment.end, end - start,
            )
            continue
        piece = timeseries.NormalizedReturnSeries(
            dates=x.dates[start:end], values=x.values[start:end], window=x.window
        )
        stats.append(
            regimes_mod.regime_stats(
                piece, (args.n_min, args.n_max), args.threshold_n, args.periods_per_year
            )
        )
    if not stats:
        raise ValueError("no regime of the requested minimum length survived")
    regimes_mod.write_regime_report_csv(args.output, stats)
    average = regimes_mod.average_ir_curve([s.curve for s in stats])
    strategy.write_ir_curve_csv(args.output_curve, average)
    print(f"{len(stats)} regimes -> {args.output}; averaged curve -> {args.output_curve}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = simulate_mod.load_process_spec(args.spec)
    curve = simulate_mod.mc_ir_curve(
        spec, (args.n_min, args.n_max), paths=args.paths, length=args.length, seed=args.seed
    )
    simulate_mod.write_mc_ir_curve_csv(args.output, curve)
    print(
        f"{len(curve)} lookbacks x {args.paths} paths (length {args.length}, "
        f"seed {args.seed}) -> {args.output}"
    )
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    curve = strategy.read_ir_curve_csv(args.input)
    if args.model == "stationary":
        result = fit_mod.fit_moment_profile(curve, k_lags=args.k_lags, fixed_sd=args.fixed_sd)
    else:
        if args.seed is None:
            raise ValueError("--seed is required for the squarewave fit")
        if args.mu_fixed is None:
            raise ValueError("--mu-fixed is required for the squarewave fit")
        result = fit_mod.fit_square_wave(
            curve,
            mu_fixed=args.mu_fixed,
            sigma_fixed=args.sigma_fixed,
            noise_kind=args.noise_kind,
            t_range=(args.t_min, args.t_max, args.t_step),
            paths=args.paths,
            length=args.length,
            seed=args.seed,
        )
    fit_mod.write_fit_result_json(args.output, result)
    summary = ", ".join(f"{k}={v:.6g}" for k, v in result.parameters.items())
    print(f"fit ({args.model}): {summary}; rss={result.rss:.6g} -> {args.output}")
    if not result.converged:
        log.warning("fit did not converge within the iteration cap")
    return 0


def _rho_list(text: str) -> tuple[float, ...]:
    """``--rho`` as autocorrelations from lag 1; a cell that does not parse names its lag."""
    rho = []
    for lag, cell in enumerate(text.split(","), start=1):
        try:
            rho.append(float(cell))
        except ValueError:
            raise ValueError(f"--rho, lag {lag}: bad autocorrelation {cell!r}") from None
    return tuple(rho)


def _cmd_theory(args: argparse.Namespace) -> int:
    rho = _rho_list(args.rho) if args.rho else ()
    profile = theory.MomentProfile(mu=args.mu, variance=args.variance, autocorr=rho)
    theory.write_theory_curve_csv(args.output, profile, (args.n_min, args.n_max))
    print(f"closed-form curve for N in [{args.n_min}, {args.n_max}] -> {args.output}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "ir": _cmd_ir,
    "regimes": _cmd_regimes,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "theory": _cmd_theory,
}


def _check_options(args: argparse.Namespace) -> None:
    """Fail before any read, draw or solve on a non-finite fit value or a negative seed."""
    for name in ("fixed_sd", "mu_fixed", "sigma_fixed"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
