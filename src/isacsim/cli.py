"""Command-line front end.

dB-valued options pass to the library as dB, which converts each to a power
ratio through one checked conversion (``pa._power_ratio``).  Exit codes: 0 on
success, 2 for configuration problems, 3 for numeric failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .ambiguity import AfMode, average_af, to_db
from .detect import DEFAULT_CAL_CELLS, CfarConfig, PdPipeline, calibrate_cfar, pd_experiment
from .errors import ConfigError, NumericError
from .experiments import (
    DEFAULT_TARGETS,
    ExperimentConfig,
    _check_out_dir,
    _is_real,
    _pd_columns,
    _tx_generator,
    _write_tables,
    calibrated_cfar,
    list_scenarios,
    periodogram_table,
    run_scenario,
)
from .pa import PaConfig
from .seeding import DEFAULT_SEED, derive_rng
from .signaling import FrameConfig, parse_basis, parse_constellation


def _cmd_list(args) -> int:
    for scn in list_scenarios():
        if args.machine:
            print(f"{scn.name}\t{scn.default_trials}\t{scn.description}")
        else:
            print(f"{scn.name}")
            print(f"    {scn.description}")
            print(f"    default trials: {scn.default_trials}")
    return 0


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    flags = {"scenario": args.scenario, "seed": args.seed, "trials": args.trials,
             "out_dir": args.out, "workers": args.workers, "plots": args.plots}
    config = replace(config, **{key: v for key, v in flags.items() if v is not None})
    manifest = run_scenario(config)
    out = Path(config.out_dir) / manifest.scenario
    print(f"scenario {manifest.scenario}: {len(manifest.files)} files in {out} "
          f"({manifest.wallclock_s:.1f} s)")
    for name in manifest.files:
        print(f"  {name}")
    return 0


def _cmd_calibrate_cfar(args) -> int:
    cfg = CfarConfig(window=args.window, guard=args.guard, p_fa=args.pfa)
    rng = derive_rng(args.seed, "cli/calibrate-cfar")
    factor = calibrate_cfar(cfg, args.trials, rng)
    print(f"window={cfg.window} guard={cfg.guard} p_fa={cfg.p_fa:g} "
          f"factor={factor!r}")
    return 0


def _pipeline_from_args(args, **fields) -> PdPipeline:
    """OFDM sensing chain of the ``pd-curve`` and ``periodogram`` commands."""
    return PdPipeline(
        constellation=parse_constellation(args.constellation),
        basis=parse_basis("ofdm", args.n),
        frame=FrameConfig(n=args.n, m=args.m, cp_len=args.cp),
        pa=PaConfig.at_backoff_db(args.ibo_db, args.compression),
        targets=DEFAULT_TARGETS,
        linear=args.linear,
        **fields,
    )


def _check_out_file(out: str) -> None:
    """Reject ``out`` before any work: a directory, or a parent :func:`_check_out_dir` rejects."""
    if (path := Path(out)).is_dir():
        raise ConfigError(f"cannot write {out}: it is a directory")
    _check_out_dir(path.parent)


def _write_table(out: str, columns) -> int:
    """``columns`` as CSV at ``out`` through :func:`experiments._write_tables`."""
    path = Path(out)
    _write_tables(path.parent, {path.name: columns})
    print(f"wrote {out}")
    return 0


def _cmd_af_cut(args) -> int:
    _check_out_file(args.out)
    const = parse_constellation(args.constellation)
    basis = parse_basis(args.basis, args.n)
    pa = None if args.linear else PaConfig.at_backoff_db(args.ibo_db, args.compression)
    gen = _tx_generator(const, basis, pa)
    mode = AfMode.PERIODIC if args.mode == "periodic" else AfMode.APERIODIC
    rng = derive_rng(args.seed, "cli/af-cut")
    surf = average_af(gen, args.trials, k_grid=1, mode=mode, rng=rng)
    return _write_table(args.out, [("lag", surf.delays),
                                   ("level_db", to_db(surf.values[:, 0]))])


def _cmd_pd_curve(args) -> int:
    _check_out_file(args.out)
    try:
        grid = [_finite_float(v) for v in args.snr_db_grid.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"bad --snr-db-grid {args.snr_db_grid!r}: {exc}") from exc
    # a scenario config's checks of trials, workers and the grid, before the calibration
    ExperimentConfig(trials=args.trials, workers=args.workers, snr_db_grid=tuple(grid))
    rng = derive_rng(args.seed, "cli/pd-curve")
    # without --factor, calibrated on cuts as long as the n-bin range cuts it detects on
    cfar = (CfarConfig(factor=args.factor) if args.factor is not None
            else calibrated_cfar(derive_rng(args.seed, "cli/pd-curve/cal"), args.n))
    pipeline = _pipeline_from_args(args, cfar=cfar, distortion_limited=args.distortion_limited)
    curve = pd_experiment(pipeline, grid, args.trials, rng, workers=args.workers)
    return _write_table(args.out, _pd_columns(curve))


def _cmd_periodogram(args) -> int:
    _check_out_file(args.out)
    pipeline = _pipeline_from_args(args, cfar=CfarConfig(), n_per=args.n_per, m_per=args.m_per)
    rng = derive_rng(args.seed, "cli/periodogram")
    return _write_table(args.out, periodogram_table(pipeline, args.snr_db, rng))


def _finite_float(text: str) -> float:
    """The type of every float option: a finite number, never nan or inf."""
    try:
        if _is_real(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _add_pa_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ibo-db", type=_finite_float, default=1.0, help="input back-off in dB")
    p.add_argument("--compression", action=argparse.BooleanOptionalAction, default=True,
                   help="reference back-off to the 1 dB compression point")
    p.add_argument("--linear", action="store_true", help="bypass the clipper")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isacsim",
        description="OFDM sensing-waveform simulation: ambiguity, clipping, detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list available scenarios")
    p.add_argument("--machine", action="store_true", help="tab-separated output")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("run", help="run a named scenario")
    p.add_argument("scenario")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--workers", type=int)
    p.add_argument("--plots", action="store_true", default=None,
                   help="also render SVG quick-looks")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("calibrate-cfar", help="calibrate the SO-CFAR threshold factor")
    p.add_argument("--window", type=int, default=16)
    p.add_argument("--guard", type=int, default=2)
    p.add_argument("--pfa", type=_finite_float, default=1e-4)
    p.add_argument("--trials", type=int, default=DEFAULT_CAL_CELLS, help="cell tests")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_calibrate_cfar)

    p = sub.add_parser("af-cut", help="averaged zero-Doppler cut to CSV")
    p.add_argument("--constellation", default="16-PSK")
    p.add_argument("--basis", default="ofdm")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--mode", choices=("periodic", "aperiodic"), default="periodic")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="af_cut.csv")
    _add_pa_args(p)
    p.set_defaults(func=_cmd_af_cut)

    p = sub.add_parser("pd-curve", help="weak-target detection probability vs SNR")
    p.add_argument("--constellation", default="16-PSK")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--cp", type=int, default=16)
    p.add_argument("--snr-db-grid", default="4,6,8,10,12,14,16",
                   help="comma-separated SNR grid in dB")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--factor", type=_finite_float, help="skip calibration, use this factor")
    p.add_argument("--distortion-limited", action="store_true")
    p.add_argument("--out", default="pd_curve.csv")
    _add_pa_args(p)
    p.set_defaults(func=_cmd_pd_curve)

    p = sub.add_parser("periodogram", help="single-frame range-Doppler map to CSV")
    p.add_argument("--constellation", default="16-QAM")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--cp", type=int, default=16)
    p.add_argument("--snr-db", type=_finite_float, default=20.0)
    p.add_argument("--n-per", type=int, default=None)
    p.add_argument("--m-per", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="periodogram.csv")
    _add_pa_args(p)
    p.set_defaults(func=_cmd_periodogram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
