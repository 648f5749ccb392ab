"""Command-line front end: one subcommand per experiment family.

Subcommands compute every result first, then write deterministic CSV
tables, handed to ``_csv`` as columns, and a plain-text summary into the
output directory; plotting is left to external tools. All files are
UTF-8 with LF line endings; ints are written as integers, floats to 9
significant digits (``FLOAT_SPEC``) and None as nan.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple, replace

import numpy as np

from .analysis import (
    EXHAUSTIVE_FRAME_CAP,
    ccdf_empirical,
    first_crossing,
    max_papr,
    reference_crossing_db,
    theoretical_ber,
)
from .config import RunConfig, parse_config
from .errors import ConfigError, ConfigKeyError
from .harness import run_ber_sweep, run_xcorr_report, zf_noise_enhancement_db
from .modem import get_kernel
from .pulses import PulseFamily

FLOAT_SPEC = "%.9g"


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return FLOAT_SPEC % float(x)


def _csv(header: str, *columns) -> list[str]:
    """CSV lines from columns: arrays, lists or one value for every row. An int
    or float array is formatted by its dtype, any other column by ``_fmt``."""
    columns = np.broadcast_arrays(*(np.asarray(c, getattr(c, "dtype", object)) for c in columns))
    rules = [{"f": FLOAT_SPEC.__mod__, "i": str}.get(c.dtype.kind, _fmt) for c in columns]
    lines = [header]
    # 1024 rows at a time: whole-column lists of Python floats raised the xcorr
    # report's peak RSS by 0.8 MB at 6406 rows (32 MB a column at 1.05M rows)
    for lo in range(0, len(columns[0]), 1024):
        lines += map(",".join, zip(*(map(rule, c[lo : lo + 1024].tolist())
                                     for rule, c in zip(rules, columns))))
    return lines


def _gamma_grid(cfg: RunConfig) -> np.ndarray:
    return cfg.gamma_min_db + np.arange(int(cfg.gamma_points())) * cfg.gamma_step_db


def _labels(cfg: RunConfig) -> str:
    """The N, M and pulse labels of a summary header."""
    return f"N={cfg.n_subcarriers}, M={cfg.m}, pulse={cfg.pulse_family}, n={cfg.shape_n}"


def _run_xcorr(cfg: RunConfig) -> dict[str, list[str]]:
    desc = cfg.pulse_descriptor()
    if desc.family is PulseFamily.RECT:
        # rect is the n = 0 member of the sine-power family; using the
        # family here makes n_list meaningful for the default config.
        desc = replace(desc, family=PulseFamily.SINE_POWER)
    n_list = cfg.resolved_n_list()
    f_max = cfg.resolved_f_max()

    pairs = run_xcorr_report(desc, n_list, f_max)
    freq = np.concatenate([c.freq for c, _ in pairs])
    rho = np.concatenate([c.rho for c, _ in pairs])
    xcorr = _csv(
        "n,f_over_invT,rho_re,rho_im,rho_abs",
        np.repeat(n_list, [c.freq.size for c, _ in pairs]), freq, rho.real, rho.imag,
        np.hypot(rho.real, rho.imag),  # abs() of each value bit for bit; np.abs is not
    )
    metrics = [(n, *astuple(m)) for n, (_, m) in zip(n_list, pairs)]
    metrics_csv = _csv("n,cutoff_3db,cutoff_null,sidelobe_db,ortho_band", *zip(*metrics))

    lines = [
        f"# Crosscorrelation metrics ({cfg.pulse_family}, f up to {_fmt(f_max)}/T)",
        "n cutoff_3db cutoff_null sidelobe_db ortho_band",
    ]
    for (curve, m), values in zip(pairs, metrics):
        missing = (
            "-3 dB point" if m.cutoff_3db is None else "null" if m.cutoff_first_null is None else None
        )
        mark = f"  [partial: no {missing} below f = {_fmt(curve.freq[-1])}/T]" if missing else ""
        lines.append(" ".join(_fmt(v) for v in values) + mark)
    if desc.family is PulseFamily.SINE_POWER:  # the only family that reads shape_n
        usable = [(n, cutoff) for n, cutoff, *_ in metrics if cutoff is not None]
        for (na, ca), (nb, cb) in zip(usable, usable[1:]):
            lines.append(f"cutoff_3db ratio n={nb}/n={na}: {_fmt(cb / ca)}")
    return {"xcorr.csv": xcorr, "metrics.csv": metrics_csv, "summary.txt": lines}


def _run_papr(cfg: RunConfig) -> dict[str, list[str]]:
    ofdm = cfg.ofdm_config()
    values = {}
    if ofdm.m_order**ofdm.n_subcarriers <= EXHAUSTIVE_FRAME_CAP:
        values["exhaustive"] = max_papr(ofdm, method="exhaustive", workers=cfg.workers)
    values["random"] = max_papr(
        ofdm, method="random", trials=cfg.trials, seed=cfg.seed, workers=cfg.workers
    )
    values["bound"] = max_papr(ofdm, method="bound")
    db = {method: 10.0 * np.log10(v) for method, v in values.items()}
    csv = _csv("method,papr_linear,papr_db", list(values), list(values.values()), list(db.values()))

    lines = [f"# Max PAPR ({_labels(cfg)}, trials={cfg.trials}, seed={cfg.seed})"]
    for method, v in values.items():
        lines.append(f"{method}: {_fmt(v)} ({_fmt(db[method])} dB)")
    return {"papr.csv": csv, "summary.txt": lines}


def _run_ccdf(cfg: RunConfig) -> dict[str, list[str]]:
    ofdm = cfg.ofdm_config()
    gamma = _gamma_grid(cfg)
    prob = ccdf_empirical(ofdm, cfg.trials, cfg.seed, gamma, cfg.workers)
    csv = _csv("gamma_db,prob,trials", gamma, prob, cfg.trials)

    lines = [f"# PAPR CCDF ({_labels(cfg)}, trials={cfg.trials}, seed={cfg.seed})"]
    crossing = first_crossing(gamma, prob, 1e-2)  # dB
    if crossing is not None:
        lines.append(f"gamma at P=1e-2: {_fmt(crossing)} dB")
        if get_kernel(ofdm).gram_is_identity:  # flat pulses: rect OFDM
            ref = reference_crossing_db(cfg.n_subcarriers, 1e-2)
            lines.append(f"rect reference gamma at P=1e-2: {_fmt(ref)} dB")
            lines.append(f"horizontal deviation: {_fmt(crossing - ref)} dB")
    return {"ccdf.csv": csv, "summary.txt": lines}


def _run_ber(cfg: RunConfig) -> dict[str, list[str]]:
    ofdm = cfg.ofdm_config()
    points = run_ber_sweep(
        ofdm, cfg.ebn0_db_list, cfg.target_errors, cfg.max_frames, cfg.seed, cfg.workers
    )
    ebn0, bits, errors, ber, ci_lo, ci_hi, seed = zip(*map(astuple, points))
    csv = _csv(
        "ebn0_db,m,pulse,shape_n,bits,errors,ber,ci_lo,ci_hi,seed",
        ebn0, cfg.m, cfg.pulse_family, cfg.shape_n, bits, errors, ber, ci_lo, ci_hi, seed,
    )

    # the sweep has already raised if the kernel is beyond the ZF limit
    lines = [
        f"# BER sweep ({_labels(cfg)}, seed={cfg.seed})",
        f"ZF noise enhancement: {_fmt(zf_noise_enhancement_db(ofdm))} dB",
        "ebn0_db ber ci_lo ci_hi theory delta",
    ]
    for p in points:
        th = theoretical_ber(cfg.m, p.ebn0_db)
        lines.append(
            f"{_fmt(p.ebn0_db)} {_fmt(p.ber)} {_fmt(p.ci_lo)} {_fmt(p.ci_hi)} "
            f"{_fmt(th)} {_fmt(p.ber - th)}"
        )
    return {"ber.csv": csv, "summary.txt": lines}


# Each runner computes its results and returns {file name: lines}; it opens no file.
RUNNERS = {"xcorr": _run_xcorr, "papr": _run_papr, "ccdf": _run_ccdf, "ber": _run_ber}


def dispatch(subcommand: str, cfg: RunConfig) -> int:
    """Run one subcommand, then write its CSVs and summary file: nothing is
    written, and no output directory made, until every result exists."""
    if subcommand not in RUNNERS:
        raise ConfigKeyError("cli", f"unknown subcommand {subcommand!r}")
    files = RUNNERS[subcommand](cfg)
    os.makedirs(cfg.output_path, exist_ok=True)
    for name, lines in files.items():
        with open(os.path.join(cfg.output_path, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a one-line usage error, exit 2 like every input error
        raise ConfigKeyError("cli", message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="papr-shaper", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (highest precedence, repeatable)",
        )
        p.add_argument("--output", dest="output", help="output directory")
        # parsed as config values, so a malformed one names its key
        p.add_argument("--seed", help="master seed")
        p.add_argument("--workers", help="worker thread count")
    return parser


def _read_config(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigKeyError("config", f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigKeyError(
            "config", f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        text = _read_config(args.config) if args.config else ""
        overrides = list(args.overrides)
        if args.output is not None:
            overrides.append(f"output_path={args.output}")
        if args.seed is not None:
            overrides.append(f"seed={args.seed}")
        if args.workers is not None:
            overrides.append(f"workers={args.workers}")
        cfg = parse_config(text, overrides)
        return dispatch(args.subcommand, cfg)
    except ConfigKeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: run: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: output_path: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
