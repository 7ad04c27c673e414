import json

import numpy as np
import pytest

from sle_dyson.cli import main
from sle_dyson.dyson import PATH_COUNTERS
from sle_dyson.validation import RNG_SEED


def read_csv(path):
    meta, rows = {}, []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                k, v = line[1:].split("=", 1)
                meta[k.strip()] = v.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


class TestSimulate:
    def test_trajectory_columns(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--t-end", "0.02", "-o", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["t", "theta_1", "theta_2"]
        assert meta["kappa"] == "2"
        assert len(rows) == 11

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--t-end", "0.05", "--kappa", "3", "--seed", "9"]
        main(args + ["-o", str(a)])
        main(args + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_float_round_trip(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["simulate", "--t-end", "0.02", "--kappa", "3", "-o", str(out)])
        _, _, rows = read_csv(out)
        vals = np.array([[float(x) for x in row] for row in rows])
        rewritten = [[format(v, ".17g") for v in row] for row in vals]
        assert rewritten == rows

    def test_stationary_mode(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["simulate", "--n-samples", "20", "-o", str(out)])
        meta, header, rows = read_csv(out)
        assert header == ["sample", "theta_1", "theta_2"]
        assert len(rows) == 20
        assert meta["n_samples"] == "20"

    def test_path_counters_in_metadata(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["simulate", "--n-samples", "20", "--burn-in", "1", "-o",
              str(out)])
        meta, _, _ = read_csv(out)
        counts = {k: int(meta[k]) for k in PATH_COUNTERS}
        # 20 chains, one row each: burn-in 1 plus one thinning of 0.4
        assert (counts["em_steps"] + counts["pair_jumps"]
                + counts["rare_steps"]) == 20 * (500 + 200)

    def test_t_end_not_multiple_of_dt_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="multiple of dt"):
            main(["simulate", "--t-end", "0.0101", "-o",
                  str(tmp_path / "t.csv")])

    @pytest.mark.parametrize("args, problem", [
        (["simulate", "--kappa", "0"], "kappa must be positive"),
        (["simulate", "--dt", "-1"], "dt must be positive"),
        (["simulate", "--n-particles", "0"], "n_particles must be >= 1"),
        (["simulate", "--thinning", "0.001", "--n-samples", "10"],
         "thinning must be >= dt"),
        (["trace", "--kappa", "0"], "kappa must be positive"),
        (["trace", "--dt", "-1"], "dt must be positive"),
        (["simulate", "--t-end", "inf"], "t_end must be positive and finite"),
        (["trace", "--t-end", "inf"], "t_end must be positive and finite"),
        (["simulate", "--thinning", "inf", "--n-samples", "5"],
         "thinning must be finite"),
        (["simulate", "--burn-in", "inf", "--n-samples", "5"],
         "burn_in must be nonnegative and finite"),
        (["simulate", "--burn-in", "nan", "--n-samples", "5"],
         "burn_in must be nonnegative and finite"),
        (["simulate", "--dt", "inf"], "dt must be positive and finite"),
        (["trace", "--kappa", "inf"], "kappa must be positive and finite"),
    ])
    def test_invalid_process_params_rejected(self, args, problem):
        with pytest.raises(SystemExit, match=problem):
            main(args + ["-o", "/dev/null"])


@pytest.mark.parametrize("args, problem", [
    (["simulate", "--n-samples", "-5"], "simulate: n_samples must be >= 0"),
    (["trace", "--n-points", "-1"], "trace: n_points must be >= 1"),
    (["trace", "--n-points", "0"], "trace: n_points must be >= 1"),
    (["spectrum", "--m", "8"], "spectrum: need at least 16 grid nodes"),
    (["spectrum", "--m", "0"], "spectrum: need at least 16 grid nodes"),
    (["spectrum", "--kappas", "abc"], "spectrum: could not convert"),
    (["spectrum", "--kappas", "0"], "spectrum: kappa must be positive"),
    (["spectrum", "--kappas", "nan"], "spectrum: kappa must be positive"),
    (["spectrum", "--kappas", "2,3"], "spectrum: no decaying one-arm mode"),
    (["exponents", "--kappas", "0"], "exponents: kappa must be positive"),
    (["exponents", "--kappas", "1.5x"], "exponents: Invalid literal"),
    (["simulate", "--burn-in", "-5", "--n-samples", "5"],
     "simulate: burn_in must be nonnegative"),
    (["validate", "--quick", "7", "--criteria", "9"],
     "validate: quick must be 0 or 1"),
])
def test_bad_input_exits_with_command_and_message(args, problem):
    with pytest.raises(SystemExit, match=problem):
        main(args + ["-o", "/dev/null"])


class TestConfigResolution:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("kappa = 3\nbogus = 1\n")
        with pytest.raises(SystemExit):
            main(["simulate", "--config", str(cfg), "-o", "/dev/null"])

    def test_bad_type_in_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 1\nkappa = three\n")
        with pytest.raises(SystemExit, match=rf"{cfg}:2: kappa = 'three' "
                                             r"is not a valid float"):
            main(["simulate", "--config", str(cfg), "-o", "/dev/null"])

    def test_bad_type_in_environment(self, monkeypatch):
        monkeypatch.setenv("SLE_SEED", "1.5")
        with pytest.raises(SystemExit, match=r"SLE_SEED: seed = '1.5' "
                                             r"is not a valid int"):
            main(["simulate", "-o", "/dev/null"])

    def test_env_overrides_file_flag_overrides_env(self, tmp_path,
                                                   monkeypatch):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("kappa = 3.0\nt_end = 0.01  # comment\n")
        monkeypatch.setenv("SLE_KAPPA", "4.0")
        out = tmp_path / "o.csv"
        main(["simulate", "--config", str(cfg), "--kappa", "5.0",
              "-o", str(out)])
        meta, _, rows = read_csv(out)
        assert meta["kappa"] == "5"          # flag beats env beats file
        assert len(rows) == 6                # file t_end survives


class TestSpectrum:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(["spectrum", "--kappas", "6,8", "--m", "256", "-o", str(out)])
        _, header, rows = read_csv(out)
        assert header == ["kappa", "lambda_numeric", "lambda_exact",
                          "abs_error"]
        assert float(rows[0][2]) == pytest.approx(5.0 / 48.0)
        assert float(rows[1][3]) < 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectrum", "-o", str(a)])
        main(["spectrum", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_dyson_columns_are_twice_lsw_half(self, tmp_path):
        cols = {}
        for conv in ("LSW_HALF", "DYSON"):
            out = tmp_path / f"{conv}.csv"
            main(["spectrum", "--kappas", "4,4.5,6,8", "--m", "256",
                  "--convention", conv, "-o", str(out)])
            _, _, rows = read_csv(out)
            cols[conv] = np.array(rows, dtype=float)
        lsw, dys = cols["LSW_HALF"], cols["DYSON"]
        assert np.array_equal(dys[:, 0], lsw[:, 0])
        assert np.array_equal(dys[:, 1:], 2.0 * lsw[:, 1:])

    def test_unknown_convention_rejected(self):
        with pytest.raises(SystemExit, match="LSW_HALF, DYSON"):
            main(["spectrum", "--convention", "FOO", "-o", "/dev/null"])


class TestExponents:
    def test_exact_fraction_csv(self, tmp_path):
        out = tmp_path / "exp.csv"
        main(["exponents", "--kappas", "2,8/3", "-o", str(out)])
        _, header, rows = read_csv(out)
        assert rows[1][header.index("beta_dyson")] == "3/2"
        assert rows[0][header.index("h21")] == "1"

    def test_stdout_stays_open(self, capsys):
        # two calls in one process, both writing to stdout
        args = ["exponents", "--kappas", "2"]
        assert main(args) == 0
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("beta_dyson") == 2


class TestTrace:
    def test_polylines_inside_disc(self, tmp_path):
        out = tmp_path / "trace.csv"
        main(["trace", "--t-end", "0.2", "--n-points", "4", "--kappa", "3",
              "-o", str(out)])
        _, header, rows = read_csv(out)
        assert len(rows) == 8   # two curves, four points each
        radii = [float(r[2]) ** 2 + float(r[3]) ** 2 for r in rows]
        assert all(r <= 1.0 + 1e-9 for r in radii)

    def test_unresolved_count_and_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["trace", "--t-end", "0.2", "--n-points", "5", "--n-particles",
                "3", "--seed", "4"]
        main(args + ["-o", str(a)])
        main(args + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()
        meta, _, rows = read_csv(a)
        assert int(meta["unresolved"]) == sum(r[4] == "unresolved"
                                              for r in rows)


class TestValidate:
    def test_report_schema_and_exit(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["validate", "--criteria", "9", "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        entry = report["results"][0]
        assert set(entry) >= {"criterion_id", "value", "threshold", "pass"}
        assert entry["pass"] is True
        assert report["all_pass"] is True

    def test_report_times_and_provenance(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["validate", "--criteria", "9,10", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        for entry in report["results"]:
            assert isinstance(entry["seconds"], float)
            assert entry["seconds"] >= 0.0
        prov = report["provenance"]
        assert set(prov) == {"version", "numpy", "scipy", "git_sha",
                             "rng_seed"}
        assert prov["version"] == report["version"]
        assert prov["numpy"] == np.__version__
        assert prov["rng_seed"] == RNG_SEED
        sha = prov["git_sha"]
        assert sha is None or (len(sha) == 40
                               and set(sha) <= set("0123456789abcdef"))

    @pytest.mark.parametrize("criteria", ["11", ",", "0", "3,x"])
    def test_unknown_criteria_rejected(self, criteria):
        with pytest.raises(SystemExit, match="valid ids are 1 to 10"):
            main(["validate", "--criteria", criteria, "-o", "/dev/null"])
