"""Golden CLI outputs: byte identity of every file the CLI writes.

Each case runs one small fixed ``papr-shaper`` invocation and compares
the SHA-256 of every file it wrote against digests recorded before any
performance work touched the pipeline. A change that alters one output
byte (a flipped decision, a reordered draw, a changed float format)
fails here. Regenerate the table only for a change that is meant to
alter outputs, and say so where the change is recorded.

The BER digests of ``GOLDEN`` were recorded through the waveform frame
(synthesis, AWGN, matched filter, ZF), which reads nbits + 2S draws per
frame. They are checked with that frame, ``helpers.waveform_frame_errors``,
put in place of the symbol-domain one, so the oracle is the recorded
pipeline bit for bit. ``SYMBOL_GOLDEN`` holds what the CLI writes for the
same cases today, with nbits + 2N draws per frame.
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
        "ccdf.csv": "b5509eeb761b27bb17009a882dd82bdc5178e567a726a7860122b4518ddbdb67",
        "summary.txt": "4570ecccefbeeded6db29c3a331590fd9e6050b79b3e1f26ad0100b8650faa00",
    },
    "ccdf-sine1-n16": {
        "ccdf.csv": "8903541d6ed69916b3be5679513f2d144b09c48e2519e0acd965257478e0053b",
        "summary.txt": "6e5acd76bc7d58a697c6a9964141d7d0d53618bb37e1b502fa36753336fd229b",
    },
    "papr-rect-n16": {
        "papr.csv": "9adb397eb87593709da0f8ffadefce05a096fbb34b5470f8f0fb5f23649b26d3",
        "summary.txt": "2f03ccddc8c499d08ad6bdc7674460ff8fad46bbc462ea3e85e8c3233cd0e502",
    },
    "papr-sine1-n8-cap": {
        "papr.csv": "44dfbc2b00c4a7dde95f2173c30962c4867b2e8c301c6c0db2a72da05880905c",
        "summary.txt": "fbdd2485bbebb82ece40c80b7b6a7f80d3e7ae79a1e44f5889bffc7a40681028",
    },
    "papr-rect-n4": {
        "papr.csv": "1a04873cbe99c0fa84232bd42599aa4cdb57d59e2afaa49efd290d46b9c7d618",
        "summary.txt": "552063d834557f5eaf74c3c032d6dfa4cccf5bf42704fe2b4fef7944ca45e982",
    },
    "xcorr-sine": {
        "metrics.csv": "8417666754d6df8814766b8bf21efcd90c406c375f419035c45f697d88b5a2ff",
        "summary.txt": "3d349cb71b754f42adbb9f6ef3f95479007b1f8bf1d3522ec99efcf075e38917",
        "xcorr.csv": "9717fb9ba7b4c1965d6192f11a74b6467f383131f50b5e97f2de18d5a972a560",
    },
    "xcorr-sine-partial": {
        "metrics.csv": "a5844f65564fd2073503c5e7bc1e82dbf6f56716a0035d7863630ab5817a1bab",
        "summary.txt": "501232174b4a61d947f7b8f44f985b03af38e661f64a137992b0462f91b294d9",
        "xcorr.csv": "cb33ee178ced8862a9bfd33f98ac37d40e741773d806a6e095d533d2b0d762bd",
    },
    "xcorr-sinc": {
        "metrics.csv": "0d43b935ada2e9c57634361cf67b0d2363c18e29a7a4a4d81ae37e0d7894219a",
        "summary.txt": "1d63aee5cbc2efa925462770a9e208c62d71a36710e322b39174f8471336ec33",
        "xcorr.csv": "855d49613e83e52e79d785a1919ad9856103a1b3cf428e2c354b4c7ac425d9bc",
    },
}


SYMBOL_GOLDEN = {
    "ber-rect-m8-inf": {
        "ber.csv": "4ad6bedc111b66942a6680b33e084a5446b23bfffd78d60dda0a7823545033e2",
        "summary.txt": "a0b75a96039c886ecb4ace035f5b1f4fd58f16d956c3fd3a1a7c0553aa0f43be",
    },
    "ber-rect-m32": {
        "ber.csv": "845c167fb6caf2ee66f0987bc047fedd0d43eb0b8631fae1fa3ead5305708a64",
        "summary.txt": "d0858653f87a5baab412522656108373586b04e41e4146a8aa0e5bf6c2541f1b",
    },
    "ber-rect-m4": {
        "ber.csv": "d837be1473bfcba3799c68f55c68752d1224e2cea23bb5d8b1ced37f0ed6a25b",
        "summary.txt": "6784b8812100bc9d13990d86f27c73ef4f41a0ee2edbd01d0623c8ce80f0b2d3",
    },
    "ber-rect-m4-workers2": {
        "ber.csv": "f8aa9659330df9f403a4762bc52f53cda18534298c0fb8ba4dce059c2776036e",
        "summary.txt": "ef9a4484ab666a7b4375f1f59ad39e83bed79f0a3f2b5d48553613e8c7a3b958",
    },
    "ber-sine1-m16": {
        "ber.csv": "484aff7b7de17d6ade2e7ccc94ec4c5d1c88d8197499ff200bdac1cd71415ae1",
        "summary.txt": "97b1005ad00d00740370bd3e3ce62387f9510c371e32bc52996a181c41d14f5c",
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
