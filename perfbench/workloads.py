"""The benchmark's workloads: fixed CLI campaigns, sized once and kept.

Each workload is a list of ``papr-shaper`` invocations (one *campaign*
runs all of them once). Set-up parses each invocation's config and
builds its modem kernel cold, as a user's first run would; the timed
campaign then runs every invocation through ``papr_shaper.cli.main``.
See README.md for why each workload exists and what it is sized to.
"""

from __future__ import annotations

from dataclasses import dataclass

# A BER point in ber-n64-deep runs to its frame cap: the error target is
# out of reach, so every computed frame counts in the reported BER.
DEEP = ("target_errors=1000000", "max_frames=6144")


@dataclass(frozen=True)
class Invocation:
    subcommand: str
    overrides: tuple[str, ...]

    @property
    def builds_kernel(self) -> bool:
        return self.subcommand != "xcorr"

    def argv(self, seed: int, outdir: str) -> list[str]:
        args = [self.subcommand, "--output", outdir, "--seed", str(seed)]
        for item in self.overrides:
            args += ["--set", item]
        return args


def _inv(subcommand: str, *overrides: str) -> Invocation:
    return Invocation(subcommand, overrides)


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "ber-n64-deep": (
        _inv("ber", "n_subcarriers=64", "m=4", "pulse_family=rect", "ebn0_db_list=10", *DEEP),
        _inv("ber", "n_subcarriers=64", "m=32", "pulse_family=rect", "ebn0_db_list=10", *DEEP),
        _inv("ber", "n_subcarriers=64", "m=16", "pulse_family=sine_power", "shape_n=1",
             "ebn0_db_list=24", *DEEP),
    ),
    # CLI defaults for target_errors (200) and max_frames (1e6).
    "ber-n1024-sweep": (
        _inv("ber", "n_subcarriers=1024", "m=4", "pulse_family=rect", "ebn0_db_list=0,4,8"),
    ),
    "papr-ccdf": (
        _inv("ccdf", "n_subcarriers=64", "m=4", "pulse_family=rect", "trials=100000"),
        _inv("ccdf", "n_subcarriers=256", "m=4", "pulse_family=sine_power", "shape_n=1",
             "trials=10000"),
        _inv("papr", "n_subcarriers=4", "m=4", "pulse_family=rect", "trials=100000"),
    ),
    "xcorr-report": (
        _inv("xcorr", "n_list=0,1,2,4,8", "f_max=10"),
    ),
}


def setting(inv: Invocation, key: str) -> str:
    """Value of one ``--set`` override of an invocation."""
    for item in inv.overrides:
        k, v = item.split("=", 1)
        if k == key:
            return v
    raise KeyError(key)
