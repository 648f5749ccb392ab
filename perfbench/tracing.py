"""Layer spans taken from outside the package.

The tracer replaces, for the length of a traced phase, each name a
caller looks up across a module boundary (``harness.get_kernel``,
``cli.xcorr_curve``, ...) with a wrapper that records a span: name,
start, end and the enclosing span. Spans stay in memory; the per-layer
metrics are computed from them when the run ends. A name that no longer
exists in the package is reported as absent, never patched.
"""

from __future__ import annotations

import importlib
from time import perf_counter


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _uniform_counts(args, kwargs):
    n_trials = _arg(args, kwargs, 2, "n_trials")
    return {"items": n_trials, "draws": n_trials * _arg(args, kwargs, 3, "n_words")}


def _exhaustive_frames(args, kwargs):
    if _arg(args, kwargs, 1, "method") != "exhaustive":
        return {}
    cfg = _arg(args, kwargs, 0, "cfg")
    return {"items": cfg.m_order**cfg.n_subcarriers}


# (span name, module, attribute looked up there, optional work counter)
SPANS = (
    ("config.parse_config", "papr_shaper.config", "parse_config", None),
    ("config.parse_config", "papr_shaper.cli", "parse_config", None),
    ("cli.dispatch", "papr_shaper.cli", "dispatch", None),
    ("harness.run_ber_point", "papr_shaper.harness", "run_ber_point", None),
    ("harness.zf_noise_enhancement_db", "papr_shaper.cli", "zf_noise_enhancement_db", None),
    ("harness.run_xcorr_report", "papr_shaper.cli", "run_xcorr_report", None),
    ("analysis.ccdf_empirical", "papr_shaper.cli", "ccdf_empirical", None),
    ("analysis.max_papr", "papr_shaper.cli", "max_papr", _exhaustive_frames),
    ("analysis.xcorr_curve", "papr_shaper.cli", "xcorr_curve", None),
    ("analysis.xcorr_curve", "papr_shaper.harness", "xcorr_curve", None),
    ("analysis.pulse_metrics", "papr_shaper.harness", "pulse_metrics", None),
    ("modem.get_kernel", "papr_shaper.modem", "get_kernel", None),
    ("modem.get_kernel", "papr_shaper.harness", "get_kernel", None),
    ("modem.get_kernel", "papr_shaper.analysis", "get_kernel", None),
    ("modem.solve_zf", "papr_shaper.modem", "ModemKernel.solve_zf", None),
    ("modem.gram_condition", "papr_shaper.modem", "GramMatrix.condition", None),
    ("pulses.sample_pulse", "papr_shaper.modem", "sample_pulse", None),
    ("pulses.sample_pulse", "papr_shaper.analysis", "sample_pulse", None),
    ("seeding.trial_uniforms", "papr_shaper.seeding", "trial_uniforms", _uniform_counts),
    ("seeding.uniforms_to_bits", "papr_shaper.seeding", "uniforms_to_bits", None),
    ("seeding.uniforms_to_normals", "papr_shaper.seeding", "uniforms_to_normals", None),
    ("seeding.uniforms_to_indices", "papr_shaper.seeding", "uniforms_to_indices", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, parent, counts):
        self.name, self.parent, self.counts = name, parent, counts
        self.start = perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            try:
                counts = counter(args, kwargs) if counter else {}
            except (IndexError, KeyError, AttributeError, TypeError):
                counts = {}  # a changed signature loses the count, not the call
            self.spans.append(Span(name, self._stack[-1] if self._stack else -1, counts))
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[self._stack.pop()].end = perf_counter()

        return traced

    def install(self) -> None:
        for name, module, path, counter in SPANS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr) if outer else getattr(owner, attr, None)
            if raw is None:
                self.absent.append(f"{module}.{path}")
                continue
            if isinstance(raw, property):
                new = property(self._wrap(name, raw.fget, counter))
            else:
                new = self._wrap(name, raw, counter)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)


PER_LAYER = (
    ("seeding.trial_uniforms.us_per_frame", "us", "lower"),
    ("seeding.uniforms_to_normals.us_per_frame", "us", "lower"),
    ("seeding.uniforms_to_bits.us_per_frame", "us", "lower"),
    ("seeding.draws_per_frame", "count", "lower"),
    ("seeding.uniforms_to_indices.us_per_trial", "us", "lower"),
    ("modem.solve_zf.us_per_frame", "us", "lower"),
    ("modem.get_kernel.s", "s", "lower"),
    ("modem.gram_condition.s", "s", "lower"),
    ("pulses.sample_pulse.s", "s", "lower"),
    ("harness.self.us_per_frame", "us", "lower"),
    ("harness.frames_computed", "count", "lower"),
    ("harness.frames_used", "count", "higher"),
    ("harness.useful_frame_ratio", "ratio", "higher"),
    ("harness.zf_noise_enhancement_db.s", "s", "lower"),
    ("analysis.self.us_per_trial", "us", "lower"),
    ("analysis.trials_computed", "count", "lower"),
    ("analysis.xcorr_curve.s", "s", "lower"),
    ("analysis.pulse_metrics.s", "s", "lower"),
    ("analysis.xcorr_curves_computed", "count", "lower"),
    ("config.parse_config.s", "s", "lower"),
    ("cli.self.s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.absent_spans", "count", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span], mark: int, reps: int, frames_used: int, csv_bytes: int
) -> dict[str, float]:
    """Per-layer numbers of one traced process, bar the ``trace.*`` ones.

    ``spans[:mark]`` cover set-up and ``spans[mark:]`` cover ``reps``
    campaigns; ``frames_used`` and ``csv_bytes`` are per campaign. Counts
    are per campaign, and ``*.s`` figures are seconds in set-up plus
    seconds per campaign, so a cost moved between the two stays visible.
    """
    inner = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            inner[s.parent] += s.duration
    campaign = spans[mark:]

    def under(s: Span, prefix: str) -> bool:
        p = s.parent
        while p >= 0:
            if spans[p].name.startswith(prefix):
                return True
            p = spans[p].parent
        return False

    def total(name: str, layer: str = "") -> float:
        return sum(s.duration for s in campaign if s.name == name and (not layer or under(s, layer)))

    def seconds(name: str) -> float:
        return sum(s.duration for s in spans[:mark] if s.name == name) + total(name) / reps

    def self_time(*names: str) -> float:
        return sum(s.duration - inner[i] for i, s in enumerate(spans[mark:], mark) if s.name in names)

    def count(name: str, key: str, layer: str = "") -> int:
        return sum(s.counts.get(key, 0) for s in campaign if s.name == name and (not layer or under(s, layer)))

    ber, ana = "harness.run_ber_point", "analysis."
    frames = count("seeding.trial_uniforms", "items", ber)
    random_trials = count("seeding.trial_uniforms", "items", ana)
    trials = random_trials + count("analysis.max_papr", "items")
    us = 1e6
    return {
        "seeding.trial_uniforms.us_per_frame": _ratio(us * total("seeding.trial_uniforms", ber), frames),
        "seeding.uniforms_to_normals.us_per_frame": _ratio(us * total("seeding.uniforms_to_normals", ber), frames),
        "seeding.uniforms_to_bits.us_per_frame": _ratio(us * total("seeding.uniforms_to_bits", ber), frames),
        "seeding.draws_per_frame": _ratio(count("seeding.trial_uniforms", "draws", ber), frames),
        "seeding.uniforms_to_indices.us_per_trial": _ratio(us * total("seeding.uniforms_to_indices", ana), random_trials),
        "modem.solve_zf.us_per_frame": _ratio(us * total("modem.solve_zf"), frames),
        "modem.get_kernel.s": seconds("modem.get_kernel"),
        "modem.gram_condition.s": seconds("modem.gram_condition"),
        "pulses.sample_pulse.s": seconds("pulses.sample_pulse"),
        "harness.self.us_per_frame": _ratio(us * self_time(ber), frames),
        "harness.frames_computed": frames / reps,
        "harness.frames_used": frames_used,
        "harness.useful_frame_ratio": _ratio(frames_used * reps, frames),
        "harness.zf_noise_enhancement_db.s": seconds("harness.zf_noise_enhancement_db"),
        "analysis.self.us_per_trial": _ratio(
            us * self_time("analysis.ccdf_empirical", "analysis.max_papr"), trials
        ),
        "analysis.trials_computed": trials / reps,
        "analysis.xcorr_curve.s": seconds("analysis.xcorr_curve"),
        "analysis.pulse_metrics.s": seconds("analysis.pulse_metrics"),
        "analysis.xcorr_curves_computed": sum(s.name == "analysis.xcorr_curve" for s in campaign) / reps,
        "config.parse_config.s": seconds("config.parse_config"),
        "cli.self.s": self_time("cli.dispatch") / reps,
        "cli.csv_bytes": csv_bytes,
    }
