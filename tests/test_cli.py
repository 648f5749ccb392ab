import os

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papr_shaper.cli import dispatch, emit_report, main
from papr_shaper.config import FAMILY_NAMES, ConfigKeyError, RunConfig, parse_config
from papr_shaper.errors import PaprShaperError


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestParseConfig:
    def test_empty_is_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert cfg.n_subcarriers == 64
        assert cfg.m == 4
        assert cfg.seed == 1

    def test_file_overrides_defaults(self):
        cfg = parse_config("m = 16\ntrials = 500\n")
        assert cfg.m == 16
        assert cfg.trials == 500

    def test_flag_beats_file(self):
        cfg = parse_config("m = 16", ["m=32"])
        assert cfg.m == 32

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nm = 8  # trailing\n")
        assert cfg.m == 8

    def test_out_of_range_names_key(self):
        with pytest.raises(ConfigKeyError) as exc:
            parse_config("m = 7")
        assert exc.value.key == "m"

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigKeyError) as exc:
            parse_config("m = 4\nbogus = 1\n")
        assert exc.value.key == "bogus"
        assert exc.value.line == 2

    def test_malformed_value(self):
        with pytest.raises(ConfigKeyError) as exc:
            parse_config("trials = many")
        assert exc.value.key == "trials"

    def test_list_values(self):
        cfg = parse_config("ebn0_db_list = 0, 2.5, 5\nn_list = 0,4,16\n")
        assert cfg.ebn0_db_list == [0.0, 2.5, 5.0]
        assert cfg.n_list == [0, 4, 16]

    def test_inf_sentinel(self):
        cfg = parse_config("ebn0_db_list = inf")
        assert cfg.ebn0_db_list == [float("inf")]

    def test_minus_inf_rejected(self):
        with pytest.raises(ConfigKeyError) as exc:
            parse_config("ebn0_db_list = -inf, 0, 4")
        assert exc.value.key == "ebn0_db_list"

    def test_bool_values(self):
        assert parse_config("normalize = true").normalize is True
        assert parse_config("normalize = 0").normalize is False
        with pytest.raises(ConfigKeyError):
            parse_config("normalize = maybe")

    def test_env_seed_lowest_precedence(self, monkeypatch):
        monkeypatch.setenv("PAPR_SHAPER_SEED", "99")
        assert parse_config("").seed == 99
        assert parse_config("seed = 5").seed == 5
        monkeypatch.delenv("PAPR_SHAPER_SEED")
        assert parse_config("").seed == 1

    def test_malformed_env_seed(self, monkeypatch):
        monkeypatch.setenv("PAPR_SHAPER_SEED", "abc")
        with pytest.raises(ConfigKeyError) as exc:
            parse_config("")
        assert exc.value.key == "PAPR_SHAPER_SEED"

    def test_parse_serialize_parse_fixed_point(self):
        cfg = parse_config("m = 32\nebn0_db_list = 0,3,6\nnormalize = yes\nf_max = 10\n")
        again = parse_config(cfg.serialize())
        assert again == cfg
        assert parse_config(again.serialize()) == again

    # The config format has no escapes: '#' starts a comment, a line ends
    # a value and values are stripped, so paths are drawn without those.
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.builds(
            RunConfig,
            n_subcarriers=st.integers(1, 4096),
            m=st.sampled_from([4, 8, 16, 32]),
            oversample=st.integers(4, 64),
            pulse_family=st.sampled_from(sorted(FAMILY_NAMES)),
            shape_n=st.integers(0, 64),
            taper_alpha=st.floats(0.0, 1.0),
            bandwidth_factor=st.floats(1e-3, 1e3),
            normalize=st.booleans(),
            ebn0_db_list=st.lists(
                st.floats(-50.0, 50.0) | st.just(math.inf), min_size=1, max_size=6
            ).map(sorted),
            trials=st.integers(1, 10**6),
            target_errors=st.integers(1, 10**6),
            max_frames=st.integers(1, 10**9),
            seed=st.integers(-(2**63), 2**63 - 1),
            output_path=st.from_regex(
                r"[\w./-]([\w ./=-]*[\w./-])?", fullmatch=True
            ),
            n_list=st.none() | st.lists(st.integers(0, 64), min_size=1, max_size=6),
            f_max=st.none() | st.floats(1.0, 100.0),
            gamma_min_db=st.floats(-20.0, 0.0),
            gamma_max_db=st.floats(0.0, 20.0),
            gamma_step_db=st.floats(1e-3, 1.0),
            workers=st.integers(1, 64),
        )
    )
    def test_serialize_roundtrip_property(self, cfg):
        assert parse_config(cfg.serialize()) == cfg


class TestDispatch:
    def test_noiseless_ber_zero_errors(self, tmp_path):
        cfg = parse_config(
            "ebn0_db_list = inf\nn_subcarriers = 8\ntarget_errors = 5\nmax_frames = 20\n",
            [f"output_path={tmp_path}"],
        )
        assert dispatch("ber", cfg) == 0
        lines = read(tmp_path / "ber.csv").decode().splitlines()
        assert lines[0] == "ebn0_db,m,pulse,shape_n,bits,errors,ber,ci_lo,ci_hi,seed"
        assert lines[1].split(",")[5] == "0"

    def test_byte_identical_rerun(self, tmp_path):
        for d in ("a", "b"):
            cfg = parse_config(
                "trials = 500\nn_subcarriers = 8\n",
                [f"output_path={tmp_path / d}"],
            )
            dispatch("ccdf", cfg)
        assert read(tmp_path / "a" / "ccdf.csv") == read(tmp_path / "b" / "ccdf.csv")
        assert read(tmp_path / "a" / "summary.txt") == read(tmp_path / "b" / "summary.txt")

    def test_xcorr_metrics_ascending(self, tmp_path):
        cfg = parse_config("n_list = 0,4,16\nf_max = 20\n", [f"output_path={tmp_path}"])
        assert dispatch("xcorr", cfg) == 0
        lines = read(tmp_path / "metrics.csv").decode().splitlines()
        assert lines[0] == "n,cutoff_3db,cutoff_null,sidelobe_db,ortho_band"
        cutoffs = [float(l.split(",")[1]) for l in lines[1:]]
        assert cutoffs == sorted(cutoffs)
        assert len(lines) == 4

    def test_xcorr_csv_header(self, tmp_path):
        cfg = parse_config("n_list = 1\n", [f"output_path={tmp_path}"])
        dispatch("xcorr", cfg)
        header = read(tmp_path / "xcorr.csv").decode().splitlines()[0]
        assert header == "n,f_over_invT,rho_re,rho_im,rho_abs"

    def test_papr_methods(self, tmp_path):
        cfg = parse_config(
            "n_subcarriers = 4\ntrials = 2000\n", [f"output_path={tmp_path}"]
        )
        assert dispatch("papr", cfg) == 0
        lines = read(tmp_path / "papr.csv").decode().splitlines()
        assert lines[0] == "method,papr_linear,papr_db"
        methods = [l.split(",")[0] for l in lines[1:]]
        assert methods == ["exhaustive", "random", "bound"]

    def test_papr_skips_exhaustive_when_too_large(self, tmp_path):
        cfg = parse_config(
            "n_subcarriers = 16\ntrials = 200\n", [f"output_path={tmp_path}"]
        )
        dispatch("papr", cfg)
        methods = [
            l.split(",")[0] for l in read(tmp_path / "papr.csv").decode().splitlines()[1:]
        ]
        assert methods == ["random", "bound"]

    def test_unknown_subcommand(self):
        with pytest.raises(PaprShaperError):
            dispatch("frobnicate", RunConfig())

    def test_lf_line_endings(self, tmp_path):
        cfg = parse_config("n_list = 0\n", [f"output_path={tmp_path}"])
        dispatch("xcorr", cfg)
        raw = read(tmp_path / "metrics.csv")
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestEmitReport:
    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(PaprShaperError):
            emit_report([], str(tmp_path / "summary.txt"))

    def test_regenerated_identical(self, tmp_path):
        rows = []
        result = ("papr", {"values": {"bound": 4.0}, "cfg": RunConfig()})
        emit_report([result], str(tmp_path / "s1.txt"))
        emit_report([result], str(tmp_path / "s2.txt"))
        assert read(tmp_path / "s1.txt") == read(tmp_path / "s2.txt")


class TestMain:
    def test_success_exit_zero(self, tmp_path):
        rc = main(["xcorr", "--output", str(tmp_path), "--set", "n_list=0"])
        assert rc == 0

    def test_config_file(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("n_list = 0,1\nf_max = 8\n")
        rc = main(["xcorr", "--config", str(cfile), "--output", str(tmp_path)])
        assert rc == 0
        assert len(read(tmp_path / "metrics.csv").decode().splitlines()) == 3

    def test_bad_key_exit_nonzero(self, tmp_path, capsys):
        rc = main(["ber", "--output", str(tmp_path), "--set", "m=7"])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error: m:")
        assert err.count("\n") == 1

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        rc = main(["xcorr", "--config", str(missing), "--output", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: cannot read {missing}")
        assert err.count("\n") == 1

    def test_non_utf8_config_file(self, tmp_path, capsys):
        cfile = tmp_path / "latin1.cfg"
        cfile.write_bytes("output_path = caf\u00e9\n".encode("latin-1"))
        rc = main(["xcorr", "--config", str(cfile), "--output", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {cfile} is not UTF-8")
        assert err.count("\n") == 1

    def test_malformed_env_seed_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PAPR_SHAPER_SEED", "abc")
        rc = main(["xcorr", "--output", str(tmp_path), "--set", "n_list=0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: PAPR_SHAPER_SEED:")

    def test_unwritable_output(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["xcorr", "--output", str(blocker), "--set", "n_list=0"])
        assert rc != 0
        assert capsys.readouterr().err.startswith("error:")

    def test_seed_flag(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d, s in ((a, "7"), (b, "7")):
            main(["ccdf", "--output", str(d), "--seed", s, "--set", "trials=300",
                  "--set", "n_subcarriers=8"])
        assert read(a / "ccdf.csv") == read(b / "ccdf.csv")
