from dataclasses import replace
import io
import json
import os
from pathlib import Path
import shutil
import subprocess
import sys

import numpy as np
import pytest

from sle_dyson import __version__, dyson, validation
from sle_dyson.cli import _write_csv, build_parser, main
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
        # a trajectory runs from t = 0: it has no burn-in and no thinning
        assert "burn_in" not in meta and "thinning" not in meta

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

    def test_default_burn_in_is_the_time_that_ran(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["simulate", "--n-samples", "8", "-o", str(out)])
        meta, _, _ = read_csv(out)
        # 10 + 2 ln 2 = 11.386... runs as 5,693 steps of dt = 0.002
        assert meta["burn_in"] == format(5693 * 0.002, ".17g")
        counts = {k: int(meta[k]) for k in PATH_COUNTERS}
        assert (counts["em_steps"] + counts["pair_jumps"]
                + counts["rare_steps"]) == 8 * (5693 + 200)

    def test_t_end_not_multiple_of_dt_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="multiple of dt"):
            main(["simulate", "--t-end", "0.0101", "-o",
                  str(tmp_path / "t.csv")])

    @pytest.mark.parametrize("args, problem", [
        (["simulate", "--kappa", "0"], "kappa must be positive"),
        (["simulate", "--dt", "-1"], "dt must be positive"),
        (["simulate", "--n-particles", "0"],
         "n_particles must be an integer >= 1"),
        (["simulate", "--thinning", "0.001", "--n-samples", "10"],
         "thinning must be >= dt"),
        (["trace", "--kappa", "0"], "kappa must be positive"),
        (["trace", "--dt", "-1"], "dt must be positive"),
        (["simulate", "--t-end", "inf"], "t_end must be positive and finite"),
        (["trace", "--t-end", "inf"], "t_end must be positive and finite"),
        (["simulate", "--thinning", "inf", "--n-samples", "5"],
         "thinning must be positive and finite"),
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
    (["simulate", "--n-samples", "-5"],
     "simulate: n_samples must be an integer >= 0"),
    (["trace", "--n-points", "-1"], "trace: n_points must be an integer >= 1"),
    (["trace", "--n-points", "0"], "trace: n_points must be an integer >= 1"),
    (["spectrum", "--m", "8"], "spectrum: m must be an integer >= 16"),
    (["spectrum", "--m", "0"], "spectrum: m must be an integer >= 16"),
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
    (["simulate", "--n-samples", "8", "--dt", "0.3"],
     "simulate: thinning=0.4 is not an integer multiple of dt=0.3"),
    (["simulate", "--n-samples", "8", "--burn-in", "0.0009"],
     "simulate: burn_in=0.0009 is not an integer multiple of dt=0.002"),
    (["spectrum", "--kappas", "inf"],
     "spectrum: kappa must be positive and finite"),
    (["simulate", "--t-end", "0.02", "--burn-in", "5"],
     "simulate: --burn-in is read only when --n-samples is > 0"),
    (["simulate", "--t-end", "0.02", "--thinning", "0.7"],
     "simulate: --thinning is read only when --n-samples is > 0"),
    (["simulate", "--n-samples", "0", "--burn-in", "1"],
     "simulate: --burn-in is read only when --n-samples is > 0"),
    (["simulate", "--n-samples", "8", "--t-end", "0.02"],
     "simulate: --t-end is read only when --n-samples is 0"),
    (["exponents", "--p-max", "1"],
     "exponents: p_max must be an integer >= 2"),
    (["exponents", "--kappas", "1/0"],
     "exponents: kappa '1/0' has a zero denominator"),
    (["simulate", "--seed", "-1"], "simulate: seed must be an integer >= 0$"),
    (["trace", "--seed", "-3"], "trace: seed must be an integer >= 0$"),
])
def test_bad_input_exits_with_command_and_message(args, problem):
    with pytest.raises(SystemExit, match=problem):
        main(args + ["-o", "/dev/null"])


@pytest.mark.parametrize("good, bad, problem", [
    (["simulate", "--t-end", "0.01"], ["simulate", "--n-particles", "0"],
     "simulate: n_particles must be an integer >= 1"),
    (["spectrum", "--kappas", "6"], ["spectrum", "--m", "8"],
     "spectrum: m must be an integer >= 16"),
    (["exponents"], ["exponents", "--kappas", "0"],
     "exponents: kappa must be positive and finite"),
    (["trace", "--n-points", "2"], ["trace", "--n-points", "0"],
     "trace: n_points must be an integer >= 1"),
], ids=["simulate", "spectrum", "exponents", "trace"])
def test_main_writes_each_table_after_its_command(tmp_path, good, bad,
                                                  problem):
    # main writes every CSV command's table, led by the version line, and
    # opens -o only once the command has returned
    out = tmp_path / "good.csv"
    assert main(good + ["-o", str(out)]) == 0
    assert out.read_text().split("\n", 1)[0] == f"# version = {__version__}"
    out = tmp_path / "bad.csv"
    with pytest.raises(SystemExit) as exc:
        main(bad + ["-o", str(out)])
    assert exc.value.code == problem
    assert not out.exists()


def test_options_come_from_flags_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("SLE_M", "16")
    monkeypatch.setenv("SLE_KAPPA", "5")
    spec, traj = tmp_path / "spec.csv", tmp_path / "traj.csv"
    assert main(["spectrum", "--kappas", "6", "-o", str(spec)]) == 0
    assert main(["simulate", "--t-end", "0.02", "-o", str(traj)]) == 0
    assert read_csv(spec)[0]["m"] == "4096"
    assert read_csv(traj)[0]["kappa"] == "2"


def test_bad_flag_type_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--seed", "1.5", "-o", "/dev/null"])
    assert exc.value.code != 0
    assert "--seed: invalid int value: '1.5'" in capsys.readouterr().err


def test_in_process_calls_match_first_calls(tmp_path, capsys):
    # the parser is built once per process and reused: a bad flag before a
    # call, or another subcommand's defaults, leave its output as it is
    # when the call comes first
    calls = {"trace": ["trace", "--t-end", "0.2", "--n-points", "4"],
             "simulate": ["simulate", "--t-end", "0.02"]}

    def run(name, tag):
        out = tmp_path / f"{name}-{tag}.csv"
        assert main(calls[name] + ["-o", str(out)]) == 0
        return out.read_bytes()

    first = {}
    for name in calls:
        build_parser.cache_clear()
        first[name] = run(name, "first")
    build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--n-curves", "3", "-o", "/dev/null"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-curves 3" in capsys.readouterr().err
    assert run("trace", "after") == first["trace"]
    assert run("simulate", "after") == first["simulate"]
    meta = read_csv(tmp_path / "simulate-after.csv")[0]
    assert (meta["kappa"], meta["dt"]) == ("2", "0.002")
    assert build_parser() is build_parser()


def test_csv_fields_print_as_the_per_field_rule():
    # each row prints through the %-template of its field types; the
    # bytes are those of the per-field rule it replaced, joined
    def field(x):
        if isinstance(x, float) or isinstance(x, np.floating):
            return format(float(x), ".17g")
        return str(x)

    meta = {"version": "0.1.0", "kappa": 8 / 3, "n": np.int64(3)}
    rows = [[0, 0.1, -0.0, "x"], [7, np.float64(1 / 3), np.float32(0.1), "y"],
            [2 ** 70, float("inf"), float("-inf"), "unresolved"],
            [-3, float("nan"), 5e-324, "ok"], [True, 1e300, np.int64(5), 2.5],
            [0, 0.1, -0.0, "x"], [1, 2, 3, 4]]
    want = ("".join(f"# {k} = {field(v)}\n" for k, v in meta.items())
            + "a,b,c,d\n"
            + "".join(",".join(map(field, row)) + "\n" for row in rows))
    out = io.StringIO()
    _write_csv(out, meta, ["a", "b", "c", "d"], (tuple(r) for r in rows))
    assert out.getvalue() == want


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
                             "git_dirty", "rng_seed"}
        assert prov["version"] == report["version"]
        assert prov["numpy"] == np.__version__
        assert prov["rng_seed"] == RNG_SEED
        sha = prov["git_sha"]
        assert sha is None or (len(sha) == 40
                               and set(sha) <= set("0123456789abcdef"))
        assert prov["git_dirty"] in ((None,) if sha is None else (False, True))

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_git_sha_only_where_the_package_is_tracked(self, tmp_path):
        # a copy of the package inside another project's repository, as a
        # wheel in its .venv, must not report that repository's commit
        shutil.copytree(Path(validation.__file__).parent,
                        tmp_path / "sle_dyson",
                        ignore=shutil.ignore_patterns("__pycache__"))
        git = ["git", "-C", str(tmp_path), "-c", "user.name=t",
               "-c", "user.email=t@localhost", "-c", "commit.gpgsign=false"]

        def commit(path):
            subprocess.run([*git, "add", path], check=True)
            subprocess.run([*git, "commit", "-qm", path], check=True)
            return subprocess.run([*git, "rev-parse", "HEAD"], check=True,
                                  capture_output=True, text=True).stdout

        def reported():
            code = ("import json, sle_dyson.validation as v; "
                    "print(json.dumps([v.__file__, v.provenance()]))")
            out = subprocess.run(
                [sys.executable, "-c", code], cwd=tmp_path, check=True,
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(tmp_path)}).stdout
            where, prov = json.loads(out)
            assert Path(where).parent == tmp_path / "sle_dyson"
            return prov["git_sha"], prov["git_dirty"]

        subprocess.run([*git, "init", "-q"], check=True)
        (tmp_path / "other.txt").write_text("another project\n")
        commit("other.txt")
        assert reported() == (None, None)
        head = commit("sle_dyson").strip()
        # the import leaves an untracked __pycache__, which is no change
        assert reported() == (head, False)
        with open(tmp_path / "sle_dyson" / "exponents.py", "a") as fh:
            fh.write("# edited\n")
        assert reported() == (head, True)

    def test_sampled_criteria_report_their_paths(self, tmp_path,
                                                 monkeypatch):
        # 64 rows after a short burn-in keep this a check of the report,
        # not of the law; the counters must be those of the batches sampled
        batches = []

        def few_rows(params, n_samples):
            batches.append(sample_stationary(replace(params, burn_in=0.4),
                                             64))
            return batches[-1]

        sample_stationary = dyson.sample_stationary
        monkeypatch.setattr(dyson, "sample_stationary", few_rows)
        out = tmp_path / "report.json"
        main(["validate", "--criteria", "1,2", "--quick", "1", "-o", str(out)])
        c1, c2 = json.loads(out.read_text())["results"]
        paths = [c1["detail"].pop("paths"), c2["detail"].pop("paths")]
        assert [list(p) for p in paths] == [list(c1["detail"]),
                                            list(c2["detail"])]
        assert [counts for p in paths for counts in p.values()] == [
            {k: b.meta[k] for k in PATH_COUNTERS} for b in batches]
        # the KS maxima see only KS values
        assert c1["value"] == max(c1["detail"].values())
        assert c2["value"] == max(e["d"] / e["threshold"]
                                  for e in c2["detail"].values())

    @pytest.mark.parametrize("criteria", ["12", ",", "0", "3,x", "7", "8"])
    def test_unknown_criteria_rejected(self, criteria):
        with pytest.raises(SystemExit,
                           match="valid ids are 1, 2, 3, 4, 5, 6, 9, 10, 11$"):
            main(["validate", "--criteria", criteria, "-o", "/dev/null"])

    def test_criteria_selected_by_id(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["validate", "--criteria", "11", "-o", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert [r["criterion_id"] for r in results] == [11]
