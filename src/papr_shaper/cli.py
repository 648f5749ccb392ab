"""Command-line front end: one subcommand per experiment family.

Subcommands write deterministic CSV payloads (plus a plain-text summary)
into the configured output directory; plotting is left to external
tools. All files are UTF-8 with LF line endings and floats serialized
to 9 significant digits.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import (
    EXHAUSTIVE_FRAME_CAP,
    ccdf_empirical,
    max_papr,
    reference_ccdf,
    theoretical_ber,
)
from .config import FAMILY_NAMES, ConfigKeyError, RunConfig, parse_config
from .errors import PaprShaperError
from .harness import (
    SweepPlan,
    run_ber_sweep,
    run_xcorr_report,
    zf_noise_enhancement_db,
)
from .pulses import PulseFamily, SamplingGrid

SUBCOMMANDS = ("xcorr", "papr", "ccdf", "ber")

XCORR_GRID_SAMPLES = 1024
XCORR_POINTS_PER_UNIT = 128


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
            fh.write("\n")


def _gamma_grid(cfg: RunConfig) -> np.ndarray:
    count = int(round((cfg.gamma_max_db - cfg.gamma_min_db) / cfg.gamma_step_db)) + 1
    return np.linspace(cfg.gamma_min_db, cfg.gamma_max_db, count)


def _run_xcorr(cfg: RunConfig, outdir: str):
    family = FAMILY_NAMES[cfg.pulse_family]
    if family is PulseFamily.RECT:
        # rect is the n = 0 member of the sine-power family; using the
        # family here makes n_list meaningful for the default config.
        family = PulseFamily.SINE_POWER
    n_list = cfg.resolved_n_list()
    f_max = cfg.resolved_f_max()
    grid = SamplingGrid(samples_per_symbol=XCORR_GRID_SAMPLES)
    n_points = int(round(f_max * XCORR_POINTS_PER_UNIT)) + 1

    rows = run_xcorr_report(family, n_list, grid, f_max, n_points)
    _write_csv(
        os.path.join(outdir, "xcorr.csv"),
        "n,f_over_invT,rho_re,rho_im,rho_abs",
        [
            (r.shape_n, f, rho.real, rho.imag, abs(rho))
            for r in rows
            for f, rho in zip(r.curve.freq, r.curve.rho)
        ],
    )
    _write_csv(
        os.path.join(outdir, "metrics.csv"),
        "n,cutoff_3db,cutoff_null,sidelobe_db,ortho_band",
        [
            (r.shape_n, r.cutoff_3db, r.cutoff_first_null, r.peak_sidelobe_db, r.orthogonality_band)
            for r in rows
        ],
    )
    return ("xcorr", {"rows": rows, "family": cfg.pulse_family, "f_max": f_max})


def _run_papr(cfg: RunConfig, outdir: str):
    ofdm = cfg.ofdm_config()
    rows = []
    values = {}
    if ofdm.m_order**ofdm.n_subcarriers <= EXHAUSTIVE_FRAME_CAP:
        values["exhaustive"] = max_papr(ofdm, method="exhaustive")
    values["random"] = max_papr(ofdm, method="random", trials=cfg.trials, seed=cfg.seed)
    values["bound"] = max_papr(ofdm, method="bound")
    for method in ("exhaustive", "random", "bound"):
        if method in values:
            v = values[method]
            rows.append((method, v, 10.0 * np.log10(v)))
    _write_csv(os.path.join(outdir, "papr.csv"), "method,papr_linear,papr_db", rows)
    return ("papr", {"values": values, "cfg": cfg})


def _run_ccdf(cfg: RunConfig, outdir: str):
    ofdm = cfg.ofdm_config()
    gamma = _gamma_grid(cfg)
    curve = ccdf_empirical(ofdm, cfg.trials, cfg.seed, gamma)
    _write_csv(
        os.path.join(outdir, "ccdf.csv"),
        "gamma_db,prob,trials",
        [(g, p, curve.trials) for g, p in zip(curve.gamma_db, curve.prob)],
    )
    return ("ccdf", {"curve": curve, "cfg": cfg})


def _run_ber(cfg: RunConfig, outdir: str):
    plan = SweepPlan(
        cfg=cfg.ofdm_config(),
        ebn0_db_list=tuple(cfg.ebn0_db_list),
        target_errors=cfg.target_errors,
        max_frames=cfg.max_frames,
        master_seed=cfg.seed,
    )
    points = run_ber_sweep(plan, workers=cfg.workers)
    _write_csv(
        os.path.join(outdir, "ber.csv"),
        "ebn0_db,m,pulse,shape_n,bits,errors,ber,ci_lo,ci_hi,seed",
        [
            (p.ebn0_db, p.m_order, p.pulse, p.shape_n, p.bits_sent, p.bit_errors,
             p.ber, p.ci_lo, p.ci_hi, p.seed)
            for p in points
        ],
    )
    return ("ber", {"points": points, "cfg": cfg})


def dispatch(subcommand: str, cfg: RunConfig) -> int:
    """Run one subcommand, writing its CSVs and a summary file."""
    if subcommand not in SUBCOMMANDS:
        raise PaprShaperError(f"unknown subcommand {subcommand!r}")
    outdir = cfg.output_path
    os.makedirs(outdir, exist_ok=True)
    runner = {
        "xcorr": _run_xcorr,
        "papr": _run_papr,
        "ccdf": _run_ccdf,
        "ber": _run_ber,
    }[subcommand]
    result = runner(cfg, outdir)
    emit_report([result], os.path.join(outdir, "summary.txt"))
    return 0


def emit_report(results, output_path: str) -> None:
    """Plain-text summary of one or more result sets."""
    if not results:
        raise PaprShaperError("emit_report needs at least one result set")
    lines = []
    for kind, data in results:
        if kind == "xcorr":
            lines.append(f"# Crosscorrelation metrics ({data['family']}, f up to {_fmt(data['f_max'])}/T)")
            lines.append("n cutoff_3db cutoff_null sidelobe_db ortho_band")
            rows = data["rows"]
            for r in rows:
                mark = "  [partial: " + r.error + "]" if r.error else ""
                lines.append(
                    f"{r.shape_n} {_fmt(r.cutoff_3db)} {_fmt(r.cutoff_first_null)} "
                    f"{_fmt(r.peak_sidelobe_db)} {_fmt(r.orthogonality_band)}{mark}"
                )
            usable = [r for r in rows if r.cutoff_3db is not None]
            for a, b in zip(usable, usable[1:]):
                lines.append(
                    f"cutoff_3db ratio n={b.shape_n}/n={a.shape_n}: "
                    f"{_fmt(b.cutoff_3db / a.cutoff_3db)}"
                )
        elif kind == "papr":
            cfg = data["cfg"]
            lines.append(
                f"# Max PAPR (N={cfg.n_subcarriers}, M={cfg.m}, pulse={cfg.pulse_family}, "
                f"n={cfg.shape_n}, trials={cfg.trials}, seed={cfg.seed})"
            )
            for method, v in data["values"].items():
                lines.append(f"{method}: {_fmt(v)} ({_fmt(10.0 * np.log10(v))} dB)")
        elif kind == "ccdf":
            cfg = data["cfg"]
            curve = data["curve"]
            lines.append(
                f"# PAPR CCDF (N={cfg.n_subcarriers}, M={cfg.m}, pulse={cfg.pulse_family}, "
                f"trials={curve.trials}, seed={cfg.seed})"
            )
            crossing = _ccdf_crossing(curve, 1e-2)
            if crossing is not None:
                lines.append(f"gamma at P=1e-2: {_fmt(crossing)} dB")
                if cfg.pulse_family == "rect":
                    ref = _reference_crossing(cfg.n_subcarriers, 1e-2)
                    lines.append(f"rect reference gamma at P=1e-2: {_fmt(ref)} dB")
                    lines.append(f"horizontal deviation: {_fmt(crossing - ref)} dB")
        elif kind == "ber":
            cfg = data["cfg"]
            points = data["points"]
            lines.append(
                f"# BER sweep (N={cfg.n_subcarriers}, M={cfg.m}, pulse={cfg.pulse_family}, "
                f"n={cfg.shape_n}, seed={cfg.seed})"
            )
            try:
                enh = zf_noise_enhancement_db(cfg.ofdm_config())
                lines.append(f"ZF noise enhancement: {_fmt(enh)} dB")
            except PaprShaperError as exc:
                lines.append(f"ZF noise enhancement: unavailable ({exc})")
            lines.append("ebn0_db ber ci_lo ci_hi theory delta")
            for p in points:
                th = theoretical_ber(p.m_order, p.ebn0_db)
                lines.append(
                    f"{_fmt(p.ebn0_db)} {_fmt(p.ber)} {_fmt(p.ci_lo)} {_fmt(p.ci_hi)} "
                    f"{_fmt(th)} {_fmt(p.ber - th)}"
                )
        else:
            raise PaprShaperError(f"unknown result kind {kind!r}")
        lines.append("")
    with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))


def _ccdf_crossing(curve, level: float):
    """Threshold (dB) where the empirical CCDF falls to ``level``."""
    below = np.flatnonzero(curve.prob <= level)
    if not below.size or below[0] == 0:
        return None
    i = int(below[0])
    g0, g1 = curve.gamma_db[i - 1], curve.gamma_db[i]
    p0, p1 = curve.prob[i - 1], curve.prob[i]
    if p1 == p0:
        return float(g1)
    return float(g0 + (level - p0) * (g1 - g0) / (p1 - p0))


def _reference_crossing(N: int, level: float) -> float:
    gamma = -np.log(1.0 - (1.0 - level) ** (1.0 / N))
    assert abs(reference_ccdf(N, gamma) - level) < 1e-9
    return float(10.0 * np.log10(gamma))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line machine-parsable errors
        raise PaprShaperError(f"cli: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="papr-shaper", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
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
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--workers", type=int, help="worker thread count")
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
    except PaprShaperError as exc:
        print(f"error: run: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: output_path: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
