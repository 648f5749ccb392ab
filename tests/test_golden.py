"""Golden CLI outputs: byte identity of every file the CLI writes.

Each case runs one small fixed ``papr-shaper`` invocation and compares
the SHA-256 of every file it wrote against digests recorded before any
performance work touched the pipeline. A change that alters one output
byte (a flipped decision, a reordered draw, a changed float format)
fails here. Regenerate the table only for a change that is meant to
alter outputs, and say so where the change is recorded.

The BER digests of ``GOLDEN`` were recorded through the waveform frame
(synthesis, AWGN, matched filter, ZF), which reads nbits + 2S uniforms per
frame, its bits first. They are checked with that frame,
``helpers.waveform_frame_errors``, put in place of the symbol-domain one,
so the oracle is the recorded pipeline bit for bit. ``SYMBOL_GOLDEN``
holds what the CLI writes for the same cases today, on stream layout 2
(``seeding``): N labels from whole words and 2N noise uniforms per frame.
The PAPR and CCDF digests of ``GOLDEN`` were re-recorded for layout 2.
"""

import hashlib

import pytest

from helpers import waveform_frame_errors
from papr_shaper import harness
from papr_shaper.cli import main

BER_N16 = ("n_subcarriers=16", "target_errors=200")

CASES = {
    # 0/4/6 dB stop on frames 77 and 509 of the first 1024-frame batch
    # and on frame 2643 of the third
    "ber-rect-m4": ("ber", "seed=3", *BER_N16, "m=4", "pulse_family=rect",
                    "ebn0_db_list=0,4,6", "max_frames=20000"),
    # 14 dB runs out of frames before the error target
    "ber-rect-m32": ("ber", "seed=4", *BER_N16, "m=32", "pulse_family=rect",
                     "ebn0_db_list=10,14", "max_frames=3000"),
    "ber-sine1-m16": ("ber", "seed=5", *BER_N16, "m=16", "pulse_family=sine_power",
                      "shape_n=1", "ebn0_db_list=16,20", "max_frames=6000"),
    "ber-rect-m4-workers2": ("ber", "seed=6", "workers=2", *BER_N16, "m=4",
                             "pulse_family=rect", "ebn0_db_list=2,5", "max_frames=50000"),
    "ccdf-rect-n16": ("ccdf", "seed=7", "n_subcarriers=16", "m=4",
                      "pulse_family=rect", "trials=2000"),
    "papr-rect-n4": ("papr", "seed=8", "n_subcarriers=4", "m=4",
                     "pulse_family=rect", "trials=5000"),
    "xcorr-sine": ("xcorr", "n_list=0,1,2", "f_max=8"),
    # summary branches the cases above do not reach
    "ber-rect-m8-inf": ("ber", "seed=12", *BER_N16, "m=8", "pulse_family=rect",
                        "ebn0_db_list=4,inf", "max_frames=3000"),
    # shaped pulse: no rect-reference lines
    "ccdf-sine1-n16": ("ccdf", "seed=9", "n_subcarriers=16", "m=4",
                       "pulse_family=sine_power", "shape_n=1", "trials=2000"),
    # the CCDF never falls to 1e-2 below 2 dB: no crossing line
    "ccdf-rect-n4-no-crossing": ("ccdf", "seed=10", "n_subcarriers=4", "m=4",
                                 "pulse_family=rect", "trials=50", "gamma_max_db=2"),
    # 4^16 frames exceed the exhaustive cap: no exhaustive row
    "papr-rect-n16": ("papr", "seed=11", "n_subcarriers=16", "m=4",
                      "pulse_family=rect", "trials=2000"),
    # 4^8 frames: the exhaustive search at its cap, on two workers
    "papr-sine1-n8-cap": ("papr", "seed=14", "n_subcarriers=8", "m=4",
                          "pulse_family=sine_power", "shape_n=1", "trials=2000", "workers=2"),
    # n=16 has no null below 8/T: a [partial: ...] row
    "xcorr-sine-partial": ("xcorr", "n_list=0,16", "f_max=8"),
    # no orthogonality band inside 8/T
    "xcorr-sinc": ("xcorr", "pulse_family=truncated_sinc", "bandwidth_factor=1",
                   "n_list=0,16", "f_max=8"),
    # the xcorr-report benchmark campaign: 6406 rows, |rho| down to 1.4e-18 and 0
    "xcorr-bench": ("xcorr", "n_list=0,1,2,4,8", "f_max=10"),
    # negative gamma on a finer step than the default grid
    "ccdf-rect-n16-fine-gamma": ("ccdf", "seed=15", "n_subcarriers=16", "m=4",
                                 "pulse_family=rect", "trials=2000", "gamma_min_db=-1",
                                 "gamma_step_db=0.05"),
}

GOLDEN = {
    "ber-rect-m8-inf": {
        "ber.csv": "a9f413dc64826f4f75d00750c8bc48e5e661cf450b1f91952c87a5c322c4e37c",
        "summary.txt": "29a407545517b8a632ec85351c583e0934d36ec047790f76c906e74d9e788def",
    },
    "ber-rect-m32": {
        "ber.csv": "960eaf9be0acc59e6d129cf2099e7360b78cf64c7c9d84d5356534a99b03d455",
        "summary.txt": "7d46c1d91c40e4ee8385a854eba65d681d5f7c084dce2c55bb380d99e2f60d57",
    },
    "ber-rect-m4": {
        "ber.csv": "50a69bf827fb7c585bee27dccaedb3072b4e89506e71665a2ca4daf16d2d1573",
        "summary.txt": "a285fb7ef668e72a210292d5ed9944e7e707ae3d649d18009a8b6d7511a40ad5",
    },
    "ber-rect-m4-workers2": {
        "ber.csv": "f40da054472c0c05f148bfede3460c98914f04a0a6859091b9efc83cba4d269c",
        "summary.txt": "cf98984be8e60647bc3eca57581492a663eff5f6a790dd4bd00d8dfca8b1ed32",
    },
    "ber-sine1-m16": {
        "ber.csv": "9a6e2fb2167804444c294f09610a35221a9ec848ef56fcbb40445befdfcd8873",
        "summary.txt": "84e0e39ef63bc757a33ef52d6db4028ee2549e89386e221dde901de53932d26c",
    },
    "ccdf-rect-n4-no-crossing": {
        "ccdf.csv": "4953af8a99fa5ed5e36850da70f59d09effda08a4cf7fe640c31cc2ec3f0bb30",
        "summary.txt": "576dfa1f6768c18245b0c14e269515db0e489b08d0538c4fa4761d6e649a533b",
    },
    "ccdf-rect-n16": {
        "ccdf.csv": "9f86312239f7f05379393a71ca43bd06f59b14a6c71fc2d35628420581df7fe1",
        "summary.txt": "70ac1f5c65527bf5037e689eafd3f356d31d3913c4dff93288f3c1e5f1d34a8f",
    },
    "ccdf-rect-n16-fine-gamma": {
        "ccdf.csv": "8f627d1d99693f36796f5597c69926df3a08cc06df5124003963edafa5862338",
        "summary.txt": "f48b5b66ca71e28f79f1c7d65784e5272f723b6b65f5fb6754c308a3396aeb8f",
    },
    "ccdf-sine1-n16": {
        "ccdf.csv": "eae8544299397c24f9a3e7cde2e2b111a490bec64bf6605def40202e51443cef",
        "summary.txt": "8894eb1473bbed62253e6f51d241e29f31ef944992991bf637b2e4ae5ab39d1d",
    },
    "papr-rect-n16": {
        "papr.csv": "89a5c7b6cd12c8423667239eec6efd248e4bbb62e476ef2be01d942081a07704",
        "summary.txt": "76b69e9a3534ac90c62e8441386210f9ddf8431002522137f00bfa90f12c48cb",
    },
    "papr-sine1-n8-cap": {
        "papr.csv": "73f05ecd181292bfa1ab7dd1eb1223eb606b9eba36b020c24697e479ec389db4",
        "summary.txt": "d8b27ba121011691d73233b9d2569bf52a3eb97f6163c505086613dfb809f8ae",
    },
    "papr-rect-n4": {
        "papr.csv": "1a04873cbe99c0fa84232bd42599aa4cdb57d59e2afaa49efd290d46b9c7d618",
        "summary.txt": "552063d834557f5eaf74c3c032d6dfa4cccf5bf42704fe2b4fef7944ca45e982",
    },
    "xcorr-sine": {
        "metrics.csv": "8417666754d6df8814766b8bf21efcd90c406c375f419035c45f697d88b5a2ff",
        "summary.txt": "3d349cb71b754f42adbb9f6ef3f95479007b1f8bf1d3522ec99efcf075e38917",
        "xcorr.csv": "f4208df55fef808fa292a1e47a746bd12903c8db335569374eb1eb48accd3fc0",
    },
    "xcorr-bench": {
        "metrics.csv": "14f089bb965e7478457c099dc88224a58f827fb9f0a9ac580ee64008f3e2fe6b",
        "summary.txt": "9772ce9d5a4c1ae90b26e032ed85c046d53005ec4c90ea1c13f62bae3fb19963",
        "xcorr.csv": "52a9578ef6c80ce93040c21e0c66c380a133f410a0731d8dab6d43e7de34bc33",
    },
    "xcorr-sine-partial": {
        "metrics.csv": "a5844f65564fd2073503c5e7bc1e82dbf6f56716a0035d7863630ab5817a1bab",
        "summary.txt": "501232174b4a61d947f7b8f44f985b03af38e661f64a137992b0462f91b294d9",
        "xcorr.csv": "781da7ff58b0f9b276bd89f4c1ba4f2c876033307eaea383059c38dfdaf8231d",
    },
    "xcorr-sinc": {
        "metrics.csv": "0d43b935ada2e9c57634361cf67b0d2363c18e29a7a4a4d81ae37e0d7894219a",
        "summary.txt": "1d63aee5cbc2efa925462770a9e208c62d71a36710e322b39174f8471336ec33",
        "xcorr.csv": "cbf977790b27957aef0434b58baa6a3e2ebb8fc2ee13b11b7361bab8f48380c6",
    },
}


SYMBOL_GOLDEN = {
    "ber-rect-m8-inf": {
        "ber.csv": "997c5180a171e809779b435104d57486207ef89d7757930b1babec6e104ba3d3",
        "summary.txt": "79a433e3246c8b0dbc2539447a8f8079b3d8edffd63c1a7a5ee7a216648635b4",
    },
    "ber-rect-m32": {
        "ber.csv": "54298eea2053bf1ce1c12d3f059d71c9286bb9789e8bbce883d000a4def98f9a",
        "summary.txt": "0a36861f8fb72413363eece585c489daf616c432b1066ab8b3e96dcdd140f3c5",
    },
    "ber-rect-m4": {
        "ber.csv": "683f7ed58c5242b7393f60fb76118dc931cee60a7cb4e2e3450bba9f432e46a6",
        "summary.txt": "19f22c1ff00551b2985359f6e698729925e81ef914cefe7b51ceb8c1cb3ae1d0",
    },
    "ber-rect-m4-workers2": {
        "ber.csv": "9515ed7c910b981a31d871ab16c8d65ee381628c07b5290afe6706f7fcf88439",
        "summary.txt": "0dc576db6372325a361a5c4aba429b5643d9d64c70722bff66dde5cb20e01cca",
    },
    "ber-sine1-m16": {
        "ber.csv": "0a1fd949ab8df09181134adab993fde33f09148673b76a5504f457286ac5f964",
        "summary.txt": "0c31f15894453631fdc8087ae18e3a0ed8ff447eca4ca1dc385a403c9ef0d6a5",
    },
}


def _argv(case, outdir):
    subcommand, *settings = case
    return [subcommand, "--output", str(outdir)] + [
        arg for item in settings for arg in ("--set", item)
    ]


def _digests(outdir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(name, tmp_path):
    assert main(_argv(CASES[name], tmp_path)) == 0
    assert _digests(tmp_path) == SYMBOL_GOLDEN.get(name, GOLDEN[name])


@pytest.mark.parametrize("name", sorted(SYMBOL_GOLDEN))
def test_waveform_oracle_matches_recorded_ber(name, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_frame_errors_batch", waveform_frame_errors)
    assert main(_argv(CASES[name], tmp_path)) == 0
    assert _digests(tmp_path) == GOLDEN[name]
