import math
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cli_error, run_fresh
from papr_shaper.cli import RUNNERS, _csv, _fmt, dispatch, main
from papr_shaper.config import RunConfig, parse_config
from papr_shaper.errors import ConfigKeyError
from papr_shaper.pulses import PulseFamily


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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("m = 7", "m: must be one of [4, 8, 16, 32], got 7"),
            # a non-finite gamma bound is named, not blamed on the other bound or the step
            ("gamma_min_db = nan", "gamma_min_db: must lie in "
             "[-1.7976931348623157e+308, 1.7976931348623157e+308], got nan"),
            ("gamma_min_db = -inf", "gamma_min_db: must lie in "
             "[-1.7976931348623157e+308, 1.7976931348623157e+308], got -inf"),
            ("gamma_max_db = inf", "gamma_max_db: must lie in [0.0, 1.7976931348623157e+308], "
             "got inf"),
            # a set f_max is capped at parse time, whatever the subcommand
            ("f_max = inf", "f_max: must lie in [1, 128], got inf"),
            ("f_max = 1e9", "f_max: must lie in [1, 128], got 1000000000.0"),
            ("pulse_family = gauss", "pulse_family: must be one of ['rect', 'sine_power', "
             "'tapered_flat_top', 'truncated_sinc'], got 'gauss'"),
            ("f_max = 0.5", "f_max: must lie in [1, 128], got 0.5"),
            ("f_max = nan", "f_max: must lie in [1, 128], got nan"),
            ("gamma_step_db = 0", "gamma_step_db: must lie in [5e-324, 1.7976931348623157e+308], "
             "got 0.0"),
            # an infinite step once made a one-point grid at gamma_min_db + 0 * inf = NaN
            ("gamma_step_db = inf", "gamma_step_db: must lie in "
             "[5e-324, 1.7976931348623157e+308], got inf"),
            ("gamma_min_db = 5\ngamma_max_db = 4", "gamma_max_db: must lie in "
             "[5.0, 1.7976931348623157e+308], got 4.0"),
            # a count without a cap reads its range as [1, inf]
            ("target_errors = 0", "target_errors: must lie in [1, inf], got 0"),
            # an integer past 20 digits is shown in e-notation
            (f"shape_n = {10**400}", "shape_n: must lie in [0, 1.7976931348623157e+308], "
             "got 1e+400"),
        ],
        ids=["m-7", "gamma_min-nan", "gamma_min-minus-inf", "gamma_max-inf", "f_max-inf",
             "f_max-1e9", "pulse_family-gauss", "f_max-0.5", "f_max-nan", "gamma_step-0",
             "gamma_step-inf", "gamma_max-below-min", "target_errors-0", "shape_n-huge"],
    )
    def test_out_of_range_names_key(self, text, message):
        with pytest.raises(ConfigKeyError) as exc:
            parse_config(text)
        assert exc.value.key == message.split(":")[0]
        assert str(exc.value) == message

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigKeyError) as exc:
            parse_config("m = 4\nbogus = 1\n")
        assert exc.value.key == "bogus"
        assert exc.value.line == 2
        # normalize was removed: no consumer's output depends on pulse scale
        with pytest.raises(ConfigKeyError) as exc:
            parse_config("m = 4\nnormalize = true\n")
        assert str(exc.value) == "normalize: unknown key (line 2)"

    @pytest.mark.parametrize(
        "text,overrides,message",
        [
            ("= 5", [], "= 5: expected 'key = value' (line 1)"),
            ("m = 4\nm 8", [], "m 8: expected 'key = value' (line 2)"),
            ("", ["=5"], "=5: expected 'key=value'"),
            ("", ["m"], "m: expected 'key=value'"),
        ],
        ids=["line-empty-key", "line-no-equals", "set-empty-key", "set-no-equals"],
    )
    def test_item_without_key_is_named_whole(self, text, overrides, message):
        # an empty key is no key: the error names the raw item, not ""
        with pytest.raises(ConfigKeyError) as exc:
            parse_config(text, overrides)
        assert str(exc.value) == message

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

    # parsed only: a missing cap would otherwise allocate or spawn without bound
    @pytest.mark.parametrize(
        "key,value,limit",
        [
            ("gamma_step_db", "1e-9", "1.3e-4"),
            ("workers", str(10**6), "64"),
            ("ebn0_db_list", "-4000", "-100"),
            ("max_frames", str(10**9 + 1), str(10**9)),
            ("trials", str(10**15), str(10**8)),
            ("n_subcarriers", str(10**9), "4096"),
            ("oversample", str(10**9), "64"),
            # a sin^n pulse raises a float to the power n
            pytest.param("shape_n", str(10**400), str(int(sys.float_info.max)), id="shape_n-huge"),
            pytest.param("n_list", f"0,{10**400}", f"0,{int(sys.float_info.max)}",
                         id="n_list-huge"),
        ],
    )
    def test_size_caps(self, key, value, limit):
        with pytest.raises(ConfigKeyError) as exc:
            parse_config("", [f"{key}={value}"])
        assert exc.value.key == key
        assert "\n" not in str(exc.value) and len(str(exc.value)) < 200
        parse_config("", [f"{key}={limit}"])  # the largest accepted size

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

    # The config format has no escapes: '#' starts a comment, a line ends
    # a value and values are stripped, so paths are drawn without those.
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.builds(
            RunConfig,
            n_subcarriers=st.integers(1, 4096),
            m=st.sampled_from([4, 8, 16, 32]),
            oversample=st.integers(4, 64),
            pulse_family=st.sampled_from(sorted(f.value for f in PulseFamily)),
            shape_n=st.integers(0, 64),
            taper_alpha=st.floats(0.0, 1.0),
            bandwidth_factor=st.floats(1e-3, 1e3),
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
    def test_every_drawn_config_parses_back(self, cfg):
        def text(v):  # floats by repr, which float() reads back exactly
            if isinstance(v, list):
                return ",".join(map(repr, v))
            return v if isinstance(v, str) else repr(v)

        values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
        lines = [f"{k} = {text(v)}" for k, v in values.items() if v is not None]
        assert parse_config("\n".join(lines)) == cfg


class TestFormat:
    # 2**40 stands for ber.csv's bits column, which can pass 1e9: "%.9g" would
    # print it as 1.09951163e+12
    @pytest.mark.parametrize(
        "value,text",
        [
            (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-0.0, "-0"),
            (5e-324, "4.94065646e-324"), (1e300, "1e+300"), (0.1, "0.1"),
            (2**40, "1099511627776"), (np.int64(7), "7"), (None, "nan"), ("sine_power", "sine_power"),
        ],
    )
    def test_csv_column_and_summary_value_share_one_rule(self, value, text):
        assert _fmt(value) == text
        if isinstance(value, float):
            assert text == f"{value:.9g}"
        assert _csv("x", [value]) == ["x", text]
        assert _csv("x", [value, value]) == ["x", text, text]
        assert _csv("x,y", value, [1, 2]) == ["x,y", f"{text},1", f"{text},2"]  # a repeated label
        if isinstance(value, (int, float, np.integer)):  # an int or float array, by its dtype
            column = np.array([value, value])
            assert column.dtype.kind == ("f" if isinstance(value, float) else "i")
            assert _csv("x", column) == ["x", text, text]

    def test_array_columns_match_the_value_by_value_rule(self):
        # the reference: _fmt on each value of each row
        rng = np.random.default_rng(0)
        floats = rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 300, 2000)
        ints = rng.integers(-(2**62), 2**62, 2000)
        rows = [f"{_fmt(f)},{_fmt(i)},7" for f, i in zip(floats, ints)]
        assert _csv("f,i,n", floats, ints, 7) == ["f,i,n", *rows]


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

    @pytest.mark.parametrize("family", sorted(f.value for f in PulseFamily))
    def test_ber_csv_labels_come_from_the_config(self, tmp_path, family):
        cfg = parse_config(
            f"pulse_family = {family}\nshape_n = 2\nn_subcarriers = 8\n"
            "ebn0_db_list = inf\nmax_frames = 1\n",
            [f"output_path={tmp_path}"],
        )
        assert dispatch("ber", cfg) == 0
        (row,) = read(tmp_path / "ber.csv").decode().splitlines()[1:]
        assert row.split(",")[2:4] == [family, "2"]

    def test_byte_identical_rerun(self, tmp_path):
        for d in ("a", "b"):
            cfg = parse_config(
                "trials = 500\nn_subcarriers = 8\n",
                [f"output_path={tmp_path / d}"],
            )
            dispatch("ccdf", cfg)
        assert read(tmp_path / "a" / "ccdf.csv") == read(tmp_path / "b" / "ccdf.csv")
        assert read(tmp_path / "a" / "summary.txt") == read(tmp_path / "b" / "summary.txt")

    @pytest.mark.parametrize(
        "flat",
        [
            ["pulse_family=sine_power", "shape_n=0"],
            ["pulse_family=tapered_flat_top", "taper_alpha=0"],
        ],
        ids=["sine0", "tapered0"],
    )
    def test_flat_pulse_ccdf_is_rect(self, tmp_path, flat):
        # every sample of these pulses is 1.0: rect OFDM, with rect's reference lines
        out = {}
        for name, overrides in (("rect", ["pulse_family=rect"]), ("flat", flat)):
            cfg = parse_config(
                "trials = 2000\nn_subcarriers = 8\n", [*overrides, f"output_path={tmp_path / name}"]
            )
            assert dispatch("ccdf", cfg) == 0
            out[name] = [read(tmp_path / name / f).decode().splitlines()
                         for f in ("ccdf.csv", "summary.txt")]
        (rect_csv, rect_summary), (flat_csv, flat_summary) = out["rect"], out["flat"]
        assert flat_csv == rect_csv
        assert flat_summary[1:] == rect_summary[1:]
        assert rect_summary[2].startswith("rect reference gamma at P=1e-2: ")

    @pytest.mark.parametrize(
        "step,grid",
        [
            ("0.3", ["0", "0.3", "0.6", "0.9"]),
            ("0.25", ["0", "0.25", "0.5", "0.75", "1"]),
            ("1.5", ["0"]),
        ],
        ids=["non-dividing", "dividing", "above-span"],
    )
    def test_ccdf_gamma_grid_steps_from_min(self, tmp_path, step, grid):
        # min + k * step up to max: a step that does not divide the span stops short of it
        cfg = parse_config(
            f"trials = 100\nn_subcarriers = 4\ngamma_max_db = 1\ngamma_step_db = {step}\n",
            [f"output_path={tmp_path}"],
        )
        assert dispatch("ccdf", cfg) == 0
        rows = read(tmp_path / "ccdf.csv").decode().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == grid

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

    @pytest.mark.parametrize(
        "subcommand,names",
        [
            ("xcorr", ["xcorr.csv", "metrics.csv", "summary.txt"]),
            ("papr", ["papr.csv", "summary.txt"]),
            ("ccdf", ["ccdf.csv", "summary.txt"]),
            ("ber", ["ber.csv", "summary.txt"]),
        ],
        ids=["xcorr", "papr", "ccdf", "ber"],
    )
    def test_runner_returns_files_and_writes_nothing(self, tmp_path, subcommand, names):
        out = tmp_path / "out"
        cfg = parse_config(
            "n_subcarriers = 4\ntrials = 50\nebn0_db_list = inf\nmax_frames = 2\nn_list = 1\n",
            [f"output_path={out}"],
        )
        files = RUNNERS[subcommand](cfg)
        assert list(files) == names
        assert all(lines and all(isinstance(l, str) for l in lines) for lines in files.values())
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigKeyError) as exc:
            dispatch("frobnicate", RunConfig())
        assert exc.value.key == "cli"

    @pytest.mark.parametrize("workers", [0, -3, 65])
    def test_bad_workers_writes_nothing(self, tmp_path, workers):
        # one 500-trial batch: without the bound, workers=0 wrote a 2893 dB PAPR
        out = tmp_path / "out"
        cfg = RunConfig(n_subcarriers=16, trials=500, workers=workers, output_path=str(out))
        with pytest.raises(ConfigKeyError) as exc:
            dispatch("papr", cfg)
        with pytest.raises(ConfigKeyError) as parsed:
            parse_config("", [f"workers={workers}"])
        assert (exc.value.key, str(exc.value)) == ("workers", str(parsed.value))
        assert not out.exists()

    @pytest.mark.parametrize(
        "f_max,band,note",
        [("8.3", "2", ""), ("1.004", "nan", "  [partial: no null below f = 1.0078125/T]")],
        ids=["8.3", "1.004"],
    )
    def test_xcorr_f_max_off_the_grid(self, tmp_path, f_max, band, note):
        # the grid runs on to the first multiple of 1/128 at or above f_max
        rc = main(["xcorr", "--output", str(tmp_path), "--set", "n_list=1",
                   "--set", f"f_max={f_max}"])
        assert rc == 0
        row = read(tmp_path / "metrics.csv").decode().splitlines()[1]
        assert row.split(",")[4] == band  # sine n=1
        assert read(tmp_path / "summary.txt").decode().splitlines()[2].endswith(f" {band}{note}")

    def test_xcorr_tapered_alpha1_is_sine2(self, tmp_path):
        # oracle: 0.5 (1 - cos 2 pi t) = sin^2(pi t), so the full taper is sine n=2
        out = {}
        for name, family in (("tapered", ["pulse_family=tapered_flat_top", "taper_alpha=1"]),
                             ("sine2", ["pulse_family=sine_power", "shape_n=2"])):
            cfg = parse_config("", [*family, f"output_path={tmp_path / name}"])
            dispatch("xcorr", cfg)
            lines = read(tmp_path / name / "metrics.csv").decode().splitlines()
            out[name] = [line.split(",", 1)[1] for line in lines[1:]]
        assert out["tapered"] == out["sine2"]

    def test_xcorr_honours_bandwidth_factor(self, tmp_path):
        for w in ("1", "4"):
            main(["xcorr", "--output", str(tmp_path / w), "--set", "pulse_family=truncated_sinc",
                  "--set", f"bandwidth_factor={w}"])
        assert read(tmp_path / "1" / "metrics.csv") != read(tmp_path / "4" / "metrics.csv")

    def test_lf_line_endings(self, tmp_path):
        cfg = parse_config("n_list = 0\n", [f"output_path={tmp_path}"])
        dispatch("xcorr", cfg)
        raw = read(tmp_path / "metrics.csv")
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


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
        out = tmp_path / "out"
        err = cli_error(capsys, ["ber", "--output", str(out), "--set", "m=7"], 2, out)
        assert err.startswith("error: m:")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["papr", "--bogus"], "cli: unrecognized arguments: --bogus"),
            ([], "cli: the following arguments are required: subcommand"),
            (["ber", "--set", "=5"], "=5: expected 'key=value'"),
        ],
        ids=["unknown-flag", "no-subcommand", "empty-key"],
    )
    def test_usage_error_exit_two_and_writes_nothing(self, tmp_path, capsys, monkeypatch, argv,
                                                      message):
        # nothing has run: a usage error is an input error, not a run failure
        monkeypatch.chdir(tmp_path)  # the default output_path
        assert cli_error(capsys, argv, 2) == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_file(self, tmp_path, capsys):
        missing, out = tmp_path / "nope.cfg", tmp_path / "out"
        err = cli_error(capsys, ["xcorr", "--config", str(missing), "--output", str(out)], 2, out)
        assert err.startswith(f"error: config: cannot read {missing}")

    def test_non_utf8_config_file(self, tmp_path, capsys):
        cfile = tmp_path / "latin1.cfg"
        cfile.write_bytes("output_path = caf\u00e9\n".encode("latin-1"))
        out = tmp_path / "out"
        err = cli_error(capsys, ["xcorr", "--config", str(cfile), "--output", str(out)], 2, out)
        assert err.startswith(f"error: config: {cfile} is not UTF-8")

    def test_malformed_env_seed_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PAPR_SHAPER_SEED", "abc")
        out = tmp_path / "out"
        err = cli_error(capsys, ["xcorr", "--output", str(out), "--set", "n_list=0"], 2, out)
        assert err.startswith("error: PAPR_SHAPER_SEED:")

    @pytest.mark.parametrize(
        "key,override,reason",
        [("f_max", "f_max=129", "must lie in [1, 128], got 129.0"),
         ("n_list", "n_list=0,127", "gives f_max = "), ("shape_n", "shape_n=127", "gives f_max = ")],
        ids=["f_max-f_max=129", "n_list-n_list=0,127", "shape_n-shape_n=127"],
    )
    def test_xcorr_f_max_cap_writes_nothing(self, tmp_path, capsys, monkeypatch, key, override,
                                            reason):
        def no_curve(*args):
            raise AssertionError("an over-cap xcorr grid was built")

        monkeypatch.setattr("papr_shaper.harness.xcorr_curve", no_curve)
        out = tmp_path / "out"
        err = cli_error(capsys, ["xcorr", "--output", str(out), "--set", override], 2, out)
        assert err.startswith(f"error: {key}: {reason}")

    def test_n_list_cap_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # without the cap, 10^5 entries at f_max = 128 meant 1.6e9 CSV rows held in memory
        def no_curve(*args):
            raise AssertionError("an over-cap n_list was run")

        monkeypatch.setattr("papr_shaper.harness.xcorr_curve", no_curve)
        out = tmp_path / "out"
        n_list = "n_list=" + ",".join(["0"] * 100_000)
        err = cli_error(capsys, ["xcorr", "--output", str(out), "--set", n_list, "--set", "f_max=128"],
                        2, out)
        assert err == "error: n_list: must hold at most 64 entries, got 100000\n"
        assert len(parse_config("", ["n_list=" + ",".join(["0"] * 64)]).n_list) == 64

    BIG = str(10**400)

    @pytest.mark.parametrize(
        "key,argv",
        [
            ("seed", ["papr", "--seed", "abc"]),
            ("workers", ["ber", "--workers", "x"]),
            ("shape_n", ["papr", "--set", "pulse_family=sine_power", "--set", f"shape_n={BIG}"]),
            ("n_list", ["xcorr", "--set", "f_max=8", "--set", f"n_list=1,{BIG}"]),
        ],
        ids=["seed", "workers", "shape_n", "n_list"],
    )
    def test_bad_value_names_key_and_writes_nothing(self, tmp_path, capsys, key, argv):
        out = tmp_path / "out"
        err = cli_error(capsys, [*argv, "--output", str(out)], 2, out)
        assert err.startswith(f"error: {key}: ")
        assert len(err) < 200

    def test_infinite_gamma_step_writes_nothing(self, tmp_path, capsys):
        # the step's finite cap: an infinite step once wrote the ccdf.csv row nan,0,32
        out = tmp_path / "out"
        err = cli_error(capsys, ["ccdf", "--output", str(out), "--set", "n_subcarriers=4",
                                 "--set", "trials=32", "--set", "gamma_step_db=inf"], 2, out)
        assert err.startswith("error: gamma_step_db: ")

    @pytest.mark.parametrize("subcommand", ["ber", "xcorr", "papr", "ccdf"])
    def test_infinite_bandwidth_factor_exit_two(self, tmp_path, capsys, subcommand):
        # 1e308 and 6e307 are finite, but pi * W overflows in np.sinc
        for w in ("inf", "1e308", "6e307"):
            out = tmp_path / "out"
            argv = [subcommand, "--output", str(out), "--set", "pulse_family=truncated_sinc",
                    "--set", f"bandwidth_factor={w}", "--set", "n_subcarriers=2", "--set", "trials=10"]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                err = cli_error(capsys, argv, 2, out)
            assert err.startswith("error: bandwidth_factor:")

    def test_large_shape_n_outside_xcorr(self, tmp_path):
        rc = main(["papr", "--output", str(tmp_path), "--set", "shape_n=1000",
                   "--set", "pulse_family=sine_power", "--set", "n_subcarriers=2",
                   "--set", "trials=10"])
        assert rc == 0

    # sin^100000 underflows to zero at every sample of a 5-sample frame
    ZERO_ENERGY = ("n_subcarriers=1", "oversample=5", "pulse_family=sine_power", "shape_n=100000")
    # so do the squares of a truncated sinc this narrow, though its samples do not
    ZERO_ENERGY_SINC = ("n_subcarriers=1", "oversample=5", "pulse_family=truncated_sinc",
                        "bandwidth_factor=1e300")

    @pytest.mark.parametrize("subcommand", ["papr", "ccdf", "ber"])
    def test_zero_energy_pulse_names_shape_n(self, tmp_path, capsys, subcommand):
        cases = [
            (self.ZERO_ENERGY, "shape_n: sin^100000 is zero at all 5 samples"),
            (self.ZERO_ENERGY_SINC,
             "bandwidth_factor: the truncated_sinc pulse has zero energy at 5 samples"),
        ]
        for items, message in cases:
            out = tmp_path / "out"
            argv = [subcommand, "--output", str(out)]
            for item in items:
                argv += ["--set", item]
            assert cli_error(capsys, argv, 2, out) == f"error: {message}\n"

    def test_zero_energy_frame_pulse_still_runs_xcorr(self, tmp_path):
        # xcorr's 1024-point grid samples t = T/2, where sin^n is 1
        argv = ["xcorr", "--output", str(tmp_path), "--set", "f_max=8"]
        for item in self.ZERO_ENERGY:
            argv += ["--set", item]
        assert main(argv) == 0

    def test_ill_conditioned_ber_writes_nothing(self, tmp_path, capsys):
        # sine n=4 at N=64 is beyond the ZF limit; the sweep fails before
        # the output directory is made
        out = tmp_path / "out"
        err = cli_error(capsys, ["ber", "--output", str(out), "--set", "pulse_family=sine_power",
                                 "--set", "shape_n=4", "--set", "max_frames=10"], 1, out)
        assert err.startswith("error: run: gram matrix condition ")

    def test_unwritable_output(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        err = cli_error(capsys, ["xcorr", "--output", str(blocker), "--set", "n_list=0"], 1)
        assert err.startswith("error:")
        assert blocker.read_text() == "x"  # the file in the way is left as it was

    def test_seed_flag(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d, s in ((a, "7"), (b, "7")):
            main(["ccdf", "--output", str(d), "--seed", s, "--set", "trials=300",
                  "--set", "n_subcarriers=8"])
        assert read(a / "ccdf.csv") == read(b / "ccdf.csv")


COLD_START = """
import os, sys, tempfile
from papr_shaper.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(cmd, out, *sets):
    argv = [cmd, "--output", out]
    for s in sets:
        argv += ["--set", s]
    assert main(argv) == 0, argv

with tempfile.TemporaryDirectory() as tmp:
    run("papr", os.path.join(tmp, "papr"), "n_subcarriers=4", "trials=200")
    run("ccdf", os.path.join(tmp, "ccdf"), "n_subcarriers=8", "trials=200")
    run("xcorr", os.path.join(tmp, "xcorr"), "n_list=0,1", "f_max=2")
    assert not scipy_modules(), scipy_modules()[:5]

    # the first BER call of the process runs two worker threads at once
    ber = ("n_subcarriers=16", "ebn0_db_list=2,5", "max_frames=2000", "seed=6")
    run("ber", os.path.join(tmp, "w2"), *ber, "workers=2")
    run("ber", os.path.join(tmp, "w1"), *ber, "workers=1")
    csv = [open(os.path.join(tmp, w, "ber.csv"), "rb").read() for w in ("w2", "w1")]
    assert csv[0] == csv[1]
    assert "scipy.special" in sys.modules
"""


def test_cold_start_loads_scipy_only_for_ber():
    # a fresh interpreter: papr, ccdf and xcorr must not import scipy,
    # and a two-worker first BER call must match workers=1 byte for byte
    run_fresh(COLD_START)
