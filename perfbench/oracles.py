"""Independent oracles for the CSV output of one campaign.

An operation is one BER sweep point, one PAPR/CCDF run or one xcorr
row. Each oracle reads the CSV text the CLI wrote and compares it with
values computed here from closed forms (``math.erfc``, binomial Wilson
intervals from ``statistics.NormalDist``), never with the package's own
helpers. Statistical oracles use a two-sided confidence of 1 - 1e-6 per
interval; a run checks a few dozen intervals, so a correct program fails
about once in 10^4 runs. The deterministic ones use the tolerances below.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from statistics import NormalDist

from workloads import Invocation, setting

CONFIDENCE = 1.0 - 1e-6
Z = NormalDist().inv_cdf(0.5 + CONFIDENCE / 2.0)

# |rho| below this is a null of the crosscorrelation curve.
NULL_LEVEL = 1e-6
# The exhaustive N-subcarrier rect PAPR is exactly N (all symbols equal).
EXHAUSTIVE_TOL_DB = 1e-6
# Both PAPR columns are printed to 9 significant digits.
PRINT_REL_TOL = 1e-8
CCDF_LEVEL = 1e-2
CCDF_TOL_DB = 0.5


@dataclass
class Op:
    label: str
    ok: bool
    detail: str = ""


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def wilson(errors: int, n: int, z: float = Z) -> tuple[float, float]:
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def qpsk_ber(ebn0_db: float) -> float:
    """Exact Gray QPSK bit error rate over AWGN: Q(sqrt(2 Eb/N0))."""
    return 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))


@dataclass
class _Point:
    op: Op
    ebn0_db: float
    m: int
    lo: float
    hi: float


def _ber_points(inv: Invocation, files: dict[str, str]) -> tuple[list[_Point], int]:
    n_sub = int(setting(inv, "n_subcarriers"))
    bits_per_frame = n_sub * (int(setting(inv, "m")).bit_length() - 1)
    points, frames = [], 0
    for row in _rows(files["ber.csv"]):
        ebn0, m = float(row["ebn0_db"]), int(row["m"])
        bits, errors, ber = int(row["bits"]), int(row["errors"]), float(row["ber"])
        op = Op(f"ber N={n_sub} M={m} {row['pulse']} n={row['shape_n']} @ {ebn0:g} dB", True)
        problems = []
        if bits < 1 or bits % bits_per_frame or not 0 <= errors <= bits:
            problems.append(f"bits={bits} errors={errors} not whole frames of {bits_per_frame}")
        elif not math.isclose(ber, errors / bits, rel_tol=PRINT_REL_TOL):
            problems.append(f"ber {ber} != errors/bits {errors / bits}")
        lo, hi = wilson(errors, bits) if bits >= 1 else (0.0, 1.0)
        if m == 4 and row["pulse"] == "rect" and not problems:
            th = qpsk_ber(ebn0)
            if not lo <= th <= hi:
                problems.append(f"theory {th:.4g} outside Wilson [{lo:.4g}, {hi:.4g}]")
        op.ok, op.detail = not problems, "; ".join(problems)
        frames += bits // bits_per_frame
        points.append(_Point(op, ebn0, m, lo, hi))
    return points, frames


def _order(points: list[_Point], key, what: str, rising: bool) -> None:
    """Consecutive points (by ``key``) must have disjoint Wilson intervals
    in the stated direction; a violation fails the later point."""
    ordered = sorted(points, key=key)
    for a, b in zip(ordered, ordered[1:]):
        ok = a.hi < b.lo if rising else a.lo > b.hi
        if not ok:
            b.op.ok = False
            b.op.detail += f"; BER does not {'rise' if rising else 'fall'} with {what}"


def _check_ber(invs, outputs, by_m: bool):
    points, frames = [], 0
    for inv, files in zip(invs, outputs):
        p, f = _ber_points(inv, files)
        points += p
        frames += f
    if by_m:
        _order(points, lambda p: p.m, "M", rising=True)
    else:
        _order(points, lambda p: p.ebn0_db, "Eb/N0", rising=False)
    return [p.op for p in points], frames


def _ccdf_crossing(rows: list[dict[str, str]], level: float) -> float | None:
    g = [float(r["gamma_db"]) for r in rows]
    p = [float(r["prob"]) for r in rows]
    for i in range(1, len(p)):
        if p[i] <= level < p[i - 1]:
            return g[i - 1] + (level - p[i - 1]) * (g[i] - g[i - 1]) / (p[i] - p[i - 1])
    return None


def _check_ccdf(inv: Invocation, files: dict[str, str]) -> tuple[Op, int]:
    n_sub, trials = int(setting(inv, "n_subcarriers")), int(setting(inv, "trials"))
    family = setting(inv, "pulse_family")
    rows = _rows(files["ccdf.csv"])
    probs = [float(r["prob"]) for r in rows]
    problems = []
    if not rows or any(int(r["trials"]) != trials for r in rows):
        problems.append(f"trials column is not {trials}")
    if any(not 0.0 <= p <= 1.0 for p in probs) or any(b > a for a, b in zip(probs, probs[1:])):
        problems.append("prob is not a nonincreasing curve in [0, 1]")
    if family == "rect":
        ref = 10.0 * math.log10(-math.log(1.0 - (1.0 - CCDF_LEVEL) ** (1.0 / n_sub)))
        crossing = _ccdf_crossing(rows, CCDF_LEVEL)
        if crossing is None or abs(crossing - ref) > CCDF_TOL_DB:
            problems.append(f"crossing of {CCDF_LEVEL:g} at {crossing} dB, reference {ref:.4f} dB")
    op = Op(f"ccdf N={n_sub} {family}", not problems, "; ".join(problems))
    return op, trials


def _check_papr(inv: Invocation, files: dict[str, str]) -> tuple[Op, int]:
    n_sub, trials = int(setting(inv, "n_subcarriers")), int(setting(inv, "trials"))
    by_method = {r["method"]: r for r in _rows(files["papr.csv"])}
    problems = []
    exact_db = float(by_method["exhaustive"]["papr_db"])
    if abs(exact_db - 10.0 * math.log10(n_sub)) > EXHAUSTIVE_TOL_DB:
        problems.append(f"exhaustive {exact_db} dB != 10 log10({n_sub})")
    rand, bound = float(by_method["random"]["papr_linear"]), float(by_method["bound"]["papr_linear"])
    if rand > bound * (1.0 + PRINT_REL_TOL):
        problems.append(f"random max {rand} above bound {bound}")
    return Op(f"papr N={n_sub} {setting(inv, 'pulse_family')}", not problems, "; ".join(problems)), trials


def _check_papr_ccdf(invs, outputs):
    ops, trials = [], 0
    for inv, files in zip(invs, outputs):
        op, t = (_check_ccdf if inv.subcommand == "ccdf" else _check_papr)(inv, files)
        ops.append(op)
        trials += t
    return ops, trials


def _check_xcorr(invs, outputs):
    (inv,), (files,) = invs, outputs
    f_max = float(setting(inv, "f_max"))
    curve = _rows(files["xcorr.csv"])
    bands = {int(r["n"]): r["ortho_band"] for r in _rows(files["metrics.csv"])}
    ops = []
    for n in (int(x) for x in setting(inv, "n_list").split(",")):
        at = {}
        for r in curve:
            f = float(r["f_over_invT"])
            if int(r["n"]) == n and abs(f - round(f)) < 1e-9 and round(f) >= 1:
                at[round(f)] = float(r["rho_abs"])
        ks = range(1, int(f_max) + 1)
        problems = []
        if sorted(at) != list(ks):
            problems.append("curve lacks the integer spacings")
        # sin^n: p^2 has harmonics 0..n only, so rho(k/T) = 0 exactly for k > n.
        elif any((at[k] < NULL_LEVEL) != (k > n) for k in ks):
            problems.append(f"nulls not exactly at integer spacings k > {n}")
        if bands.get(n) != str(n + 1):
            problems.append(f"orthogonality band {bands.get(n)} != {n + 1}")
        if n == 1 and 1 in at and abs(at[1] - 0.5) > NULL_LEVEL:
            problems.append(f"|rho(1/T)| = {at[1]} != 0.5")
        ops.append(Op(f"xcorr sine_power n={n}", not problems, "; ".join(problems)))
    return ops, len(curve)


_CHECKS = {
    "ber-n64-deep": lambda invs, outs: _check_ber(invs, outs, by_m=True),
    "ber-n1024-sweep": lambda invs, outs: _check_ber(invs, outs, by_m=False),
    "papr-ccdf": _check_papr_ccdf,
    "xcorr-report": _check_xcorr,
}

# Operations per campaign, so that a campaign without usable output
# counts all of them as failed.
OPS_PER_CAMPAIGN = {"ber-n64-deep": 3, "ber-n1024-sweep": 3, "papr-ccdf": 3, "xcorr-report": 5}


def failed(workload: str, why: str) -> list[Op]:
    return [Op("campaign", False, why)] * OPS_PER_CAMPAIGN[workload]


def check(workload: str, invs, outputs: list[dict[str, str]]) -> tuple[list[Op], int]:
    """Oracle verdicts for one campaign, plus its units of useful work:
    BER frames counted, random PAPR trials, or xcorr curve points."""
    try:
        return _CHECKS[workload](invs, outputs)
    except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        return failed(workload, f"unreadable output: {exc!r}"), 0
