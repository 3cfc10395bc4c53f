import dataclasses

import numpy as np
import pytest

from fslvlasov import cases, solver
from fslvlasov.cases import (CaseConfig, ConfigError, apply_overrides, case_defaults,
                             parse_config)
from fslvlasov.cli import main
from fslvlasov.solver import read_snapshot

#: a grid small enough for a quick run
SMALL = ["--set", "nx=8", "--set", "nv=8"]


class TestParseConfig:
    def test_case_with_override(self):
        cfg = parse_config("case=landau\nk=0.4\n")
        assert cfg.case == "landau"
        assert cfg.k == 0.4
        assert cfg.nx == 64  # untouched default

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\ncase=landau  # trailing\nnx=32\n")
        assert cfg.nx == 32

    def test_negative_dt_names_key(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config("case=landau\ndt=-1\n")

    def test_empty_requires_case(self):
        with pytest.raises(ConfigError, match="case"):
            parse_config("")

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config("case=landau\nfrobnicate=3\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("case=landau\nwhat is this\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("case=landau\nnx=8\nnx=16\n")

    def test_echo_roundtrip(self):
        cfg = apply_overrides(case_defaults("two_stream"),
                              {"dt": "0.25", "scheme": "hybrid", "T": "3"})
        assert parse_config(cases.format_config(cfg)) == cfg

    def test_echo_roundtrip_all_cases(self):
        for name in cases.CASES:
            cfg = case_defaults(name)
            assert parse_config(cases.format_config(cfg)) == cfg

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config("case=landau\nscheme=magic\n")

    @pytest.mark.parametrize("case, accepted, message", [
        ("landau", ("verlet", "rk2", "rk4"), "unknown pusher 'rk3'"),
        ("hill", ("verlet", "rk2", "rk4"), "unknown pusher 'rk3'"),
        ("kelvin_helmholtz", ("euler", "rk2", "rk3", "rk4"),
         "unknown guiding-center pusher 'verlet'"),
    ])
    def test_pusher_names_are_those_of_the_model(self, case, accepted, message):
        for name in accepted:
            assert apply_overrides(case_defaults(case), {"pusher": name}).pusher == name
        with pytest.raises(ConfigError, match=message):
            apply_overrides(case_defaults(case), {"pusher": message.split("'")[1]})

    def test_t_end_below_one_step_is_rejected(self):
        with pytest.raises(ConfigError, match=r"t_end=0\.1 or 0\.2"):
            apply_overrides(case_defaults("landau"), {"t_end": 0.01, "dt": 0.1})

    def test_t_end_off_the_step_grid_names_the_nearest_valid(self):
        hill = case_defaults("hill")
        with pytest.raises(ConfigError, match="t_end") as err:
            apply_overrides(hill, {"t_end": 600.0})
        nearest = [float(v) for v in str(err.value).rsplit("t_end=", 1)[1].split(" or ")]
        steps = [apply_overrides(hill, {"t_end": v}).n_steps() for v in nearest]
        assert steps == [2387, 2388]

    def test_t_end_within_round_off_of_a_step_is_accepted(self):
        for name in cases.CASES:
            apply_overrides(case_defaults(name), {})
        # the benchmark workloads: hill 4 pi over dt = 2 pi / 25 is 50 steps
        for name, t_end, steps in [("kelvin_helmholtz", 15.0, 30), ("bump_on_tail", 50.0, 100),
                                   ("hill", 4.0 * np.pi, 50), ("landau", 0.3, 3)]:
            assert apply_overrides(case_defaults(name), {"t_end": t_end}).n_steps() == steps

    def test_conversion_error_in_a_file_names_its_line(self):
        with pytest.raises(ConfigError, match="line 2: key 'nx': cannot parse 'abc' as int"):
            parse_config("case=landau\nnx=abc\n")

    def test_every_field_is_a_key_and_round_trips(self):
        # one non-default value per CaseConfig field; a field added without
        # an entry here fails the first assertion
        values = {
            "case": "two_stream", "scheme": "hybrid", "T": "3", "pusher": "rk4",
            "nx": "8", "nv": "10", "dt": "0.25", "t_end": "1.0", "v_max": "5.0",
            "k": "0.4", "alpha": "0.01", "Lx": "9.0", "eps": "0.02", "a_mean": "0.7",
            "a_eps": "0.1", "omega0": "1.1", "deriv_v": "0.5", "diag_every": "2",
            "snapshot_every": "3", "snapshot_format": "csv",
        }
        assert set(values) == {f.name for f in dataclasses.fields(CaseConfig)}
        cfg = parse_config("".join(f"{k}={v}\n" for k, v in values.items()))
        default = case_defaults("landau")
        for key, raw in values.items():
            assert str(getattr(cfg, key)) == raw and getattr(cfg, key) != getattr(default, key)
        assert parse_config(cases.format_config(cfg)) == cfg

    def test_numpy_float_values_echo_as_plain_numbers(self):
        cfg = apply_overrides(case_defaults("landau"), {"alpha": np.float64(0.0022)})
        assert "alpha=0.0022\n" in cases.format_config(cfg)
        assert parse_config(cases.format_config(cfg)) == cfg


class TestCli:
    def test_list_cases(self, capsys):
        assert main(["--list-cases"]) == 0
        out = capsys.readouterr().out.split()
        assert "landau" in out and "kelvin_helmholtz" in out

    def test_no_case_is_config_error(self, capsys):
        assert main([]) == 2

    def test_bad_override_is_config_error(self, capsys):
        assert main(["--case", "landau", "--set", "dt=-1"]) == 2
        assert "dt" in capsys.readouterr().err

    def test_case_override_is_config_error(self, tmp_path, capsys):
        assert main(["--case", "landau", "--set", "case=hill", "--set", "t_end=0.2"]) == 2
        assert "case=landau" in capsys.readouterr().err
        cfg = tmp_path / "c.cfg"
        cfg.write_text("case=landau\nt_end=0.2\n")
        assert main(["--config", str(cfg), "--set", "case=hill"]) == 2
        assert "case=landau" in capsys.readouterr().err
        # naming the selected case again changes nothing
        assert apply_overrides(case_defaults("hill"), {"case": "hill"}) == case_defaults("hill")

    def test_t_end_not_a_whole_number_of_steps_exits_2(self, capsys):
        assert main(["--case", "landau", "--set", "t_end=0.01"]) == 2
        assert "t_end" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["fsl", "bsl"])
    def test_remap_period_outside_hybrid_is_config_error(self, scheme, capsys):
        with pytest.raises(ConfigError, match="scheme=hybrid"):
            apply_overrides(case_defaults("landau"), {"scheme": scheme, "T": 4})
        assert main(["--case", "landau", "--set", f"scheme={scheme}", "--set", "T=4"]) == 2
        assert "'T'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["nx", "nv"])
    def test_grid_below_four_cells_is_config_error(self, key, capsys):
        assert main(["--case", "landau", "--set", f"{key}=2"]) == 2
        assert key in capsys.readouterr().err

    def test_non_finite_step_exits_3_with_partial_series(self, tmp_path, capsys, nan_field):
        nan_field(7)
        out = tmp_path / "run"
        code = main([
            "--case", "landau", "--out", str(out),
            "--set", "t_end=1.0", "--set", "nx=16", "--set", "nv=16",
        ])
        assert code == 3
        assert "numeric abort" in capsys.readouterr().err
        series = (out / "series.csv").read_text().splitlines()
        assert series[0].startswith("t,mass,") and len(series) == 5

    def test_vp_grid_of_five_cells_reports_e3_as_nan(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "--case", "two_stream", "--out", str(out),
            "--set", "nx=5", "--set", "nv=5", "--set", "t_end=1",
        ])
        assert code == 0
        lines = (out / "series.csv").read_text().splitlines()
        col = lines[0].split(",").index("E3")
        e3 = [float(line.split(",")[col]) for line in lines[1:]]
        assert len(e3) == 3 and np.all(np.isnan(e3))

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent/path.cfg"]) == 2

    def test_case_and_config_exclusive(self, tmp_path, capsys):
        # the conflict is found before the file is read: neither a missing
        # file nor a bad value in it hides it
        good, bad = tmp_path / "c.cfg", tmp_path / "nx3.cfg"
        good.write_text("case=landau\n")
        bad.write_text("case=landau\nnx=3\n")
        for path in (good, bad, tmp_path / "missing.cfg"):
            assert main(["--config", str(path), "--case", "landau"]) == 2
            err = capsys.readouterr().err
            assert "--case and --config are exclusive" in err, err

    def test_landau_run_produces_outputs(self, tmp_path, capsys):
        out = tmp_path / "run1"
        code = main([
            "--case", "landau", "--out", str(out),
            "--set", "t_end=1.0", "--set", "nx=16", "--set", "nv=16",
            "--set", "snapshot_every=5",
        ])
        assert code == 0
        assert (out / "config.echo").exists()
        series = (out / "series.csv").read_text().splitlines()
        assert series[0].startswith("t,mass,")
        assert len(series) == 12  # header + t=0 + 10 steps
        snaps = sorted((out / "snapshots").iterdir())
        names = [s.name for s in snaps]
        assert "snap_000000.bin" in names and "snap_000010.txt" in names
        arr = read_snapshot(str(out / "snapshots" / "snap_000000.bin"))
        assert arr.shape == (16, 17)

    def test_config_file_run(self, tmp_path):
        cfgfile = tmp_path / "landau.cfg"
        cfgfile.write_text("case=landau\nt_end=0.5\nnx=16\nnv=16\n")
        out = tmp_path / "run2"
        assert main(["--config", str(cfgfile), "--out", str(out)]) == 0
        echo = parse_config((out / "config.echo").read_text())
        assert echo.t_end == 0.5 and echo.nx == 16

    def test_snapshot_csv_format(self, tmp_path):
        out = tmp_path / "run3"
        code = main([
            "--case", "landau", "--out", str(out),
            "--set", "t_end=0.5", "--set", "nx=16", "--set", "nv=16",
            "--set", "snapshot_format=csv", "--set", "snapshot_every=5",
        ])
        assert code == 0
        arr = np.loadtxt(out / "snapshots" / "snap_000000.csv", delimiter=",")
        assert arr.shape == (16, 17)

    def test_byte_identical_outputs(self, tmp_path):
        args = ["--case", "landau", "--set", "t_end=1.0", "--set", "nx=16",
                "--set", "nv=16"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("config.echo", "series.csv", "snapshots/snap_000000.bin"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_kh_large_dt_stability_invocation(self, tmp_path):
        # the large-timestep stability check drives through the CLI path
        out = tmp_path / "kh"
        code = main([
            "--case", "kelvin_helmholtz", "--out", str(out),
            "--set", "Lx=10", "--set", "dt=1", "--set", "pusher=rk4",
            "--set", "t_end=5", "--set", "nx=32", "--set", "nv=32",
        ])
        assert code == 0

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(CaseConfig)
                                     if "float" in f.type])
    def test_non_finite_float_is_config_error(self, key, value, capsys):
        assert main(["--case", "landau", "--set", f"{key}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"key {key!r} must be finite" in err

    @pytest.mark.parametrize("t_end, dt", [("1e308", "0.1"), ("60", "1e-320")])
    def test_step_count_overflow_is_config_error(self, t_end, dt, capsys):
        assert main(["--case", "landau", "--set", f"t_end={t_end}", "--set", f"dt={dt}"]) == 2
        assert "overflows the step count" in capsys.readouterr().err

    def test_repeated_set_key_is_config_error(self, tmp_path, capsys):
        assert main(["--case", "landau", "--set", "nx=8", "--set", "nx=16"]) == 2
        assert "--set 2: duplicate key 'nx'" in capsys.readouterr().err
        # a --set may still override a key of the config file
        cfg = tmp_path / "c.cfg"
        cfg.write_text("case=landau\nnx=16\nnv=8\nt_end=0.2\n")
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--set", "nx=8", "--out", str(out)]) == 0
        assert parse_config((out / "config.echo").read_text()).nx == 8

    @pytest.mark.parametrize("args, code, message", [
        (["--case", "hill", "--set", "omega0=1e-300", *SMALL], 2,
         "config error: non-finite initial f: check omega0"),
        (["--case", "hill", "--set", "a_eps=1e300", *SMALL], 2,
         "config error: non-finite initial f: check omega0, a_mean, a_eps"),
        # rejected from the estimate: nothing of the grid is allocated
        (["--case", "landau", "--set", "nx=100000000", "--set", "nv=100000000"], 2,
         "config error: a 100000000x100000000 grid needs over"),
        (["--case", "landau", "--set", "t_end=0.2", "--out", "{afile}/sub", *SMALL], 4,
         "output error: cannot write to"),
        # f overflows the t = 0 row's field solve: no float warning comes first
        (["--case", "kelvin_helmholtz", "--set", "eps=1e307", "--set", "t_end=1", *SMALL], 3,
         "numeric abort: non-finite right-hand side at t = 0\n"),
    ])
    def test_failure_ends_in_one_line_and_an_exit_code(self, args, code, message,
                                                        tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("a regular file\n")
        assert main([a.format(afile=afile) for a in args]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_grid_past_the_memory_is_config_error(self, monkeypatch, capsys):
        # the estimate is per model: with 1 GiB a 1400x1400 guiding-center
        # grid is rejected before anything runs, the Vlasov-Poisson one is not
        monkeypatch.setattr(cases, "MEMORY", 2**30)
        monkeypatch.setattr(solver, "run", lambda *args, **kw: pytest.fail("the grid ran"))
        big = ["--set", "nx=1400", "--set", "nv=1400"]
        assert main(["--case", "kelvin_helmholtz", *big]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: a 1400x1400 grid needs over") and "GiB" in err
        assert err.count("\n") == 1
        cases.apply_overrides(cases.case_defaults("landau"), {"nx": 1400, "nv": 1400})

    def test_hill_outside_a_stable_zone_is_config_error(self, capsys):
        code = main(["--case", "hill", "--set", "a_mean=0.25",
                     "--set", "nx=16", "--set", "nv=16"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "stable zone" in err and "omega0" in err
