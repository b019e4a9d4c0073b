import json

import numpy as np
import pytest

from causalpch.cli import main, read_numeric_csv

from conftest import VETERAN_CSV


@pytest.fixture()
def tiny_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 30
    a = (rng.random(n) < 0.5).astype(int)
    x = rng.standard_normal(n).round(3)
    y = rng.exponential(3.0, n).clip(0.1, 11.9).round(3)
    y[0] = 12.0
    delta = (rng.random(n) < 0.8).astype(int)
    delta[0] = 1
    lines = ["y,delta,A,x"]
    lines += [f"{y[i]},{delta[i]},{a[i]},{x[i]}" for i in range(n)]
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def run_fit(tmp_path, tiny_csv, out="fit", model="independent", K=4, extra=()):
    out_dir = tmp_path / out
    # ar1 on tiny data needs a cautious step size to stay under the
    # divergence-rate gate
    tuning = ("--target-accept", "0.95", "--warmup", "150") if model == "ar1" \
        else ("--warmup", "60")
    rc = main(["fit", "--data", str(tiny_csv),
               "--formula", "Surv(y, delta) ~ A + x",
               "--model", model, "--partitions", str(K),
               "--iters", "40", "--seed", "9",
               "--leapfrog-steps", "8", *tuning,
               "--out-dir", str(out_dir), *extra])
    assert rc == 0
    return out_dir


class TestFit:
    def test_outputs_and_column_count(self, tmp_path, tiny_csv):
        out = run_fit(tmp_path, tiny_csv)
        names, mat = read_numeric_csv(out / "draws.csv")
        K, p = 4, 2
        assert len(names) == K + p + 1 + K + 2
        assert mat.shape == (40, len(names))
        assert names[:4] == ["theta_1", "theta_2", "theta_3", "theta_4"]
        assert names[4:6] == ["A", "x"]
        assert names[6] == "eta"
        assert names[-2:] == ["chain", "iter"]
        meta = json.loads((out / "meta.json").read_text())
        assert meta["model_kind"] == "independent"
        assert meta["K"] == 4
        assert len(meta["partition"]["endpoints"]) == 5
        assert meta["n"] == 30

    def test_ar1_adds_rho_column(self, tmp_path, tiny_csv):
        out = run_fit(tmp_path, tiny_csv, out="fit_ar1", model="ar1")
        names, _ = read_numeric_csv(out / "draws.csv")
        assert "rho" in names
        assert len(names) == 4 + 2 + 1 + 1 + 4 + 2

    def test_rerun_is_byte_identical(self, tmp_path, tiny_csv):
        a = run_fit(tmp_path, tiny_csv, out="fit_a")
        b = run_fit(tmp_path, tiny_csv, out="fit_b")
        assert (a / "draws.csv").read_bytes() == (b / "draws.csv").read_bytes()

    def test_round_trip_bit_exact(self, tmp_path, tiny_csv):
        from causalpch import PriorConfig, SamplerConfig, load_csv, sample
        from causalpch.formula import parse_formula

        out = run_fit(tmp_path, tiny_csv)
        names, mat = read_numeric_csv(out / "draws.csv")
        data = load_csv(tiny_csv)
        post = sample(data, parse_formula("Surv(y, delta) ~ A + x"),
                      PriorConfig(model_kind="independent", K=4),
                      SamplerConfig(warmup=60, post_iter=40, seed=9,
                                    leapfrog_steps=8))
        assert np.array_equal(mat[:, :-2], post.draws)

    def test_config_file_with_flag_override(self, tmp_path, tiny_csv):
        cfg = {"data": str(tiny_csv), "formula": "Surv(y, delta) ~ A",
               "model": "ar1", "partitions": 3, "warmup": 30, "iters": 20,
               "seed": 4, "leapfrog-steps": 6}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "cfg_fit"
        rc = main(["fit", "--config", str(cfg_path), "--model", "independent",
                   "--out-dir", str(out)])
        assert rc == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["model_kind"] == "independent"   # flag beats file
        assert meta["K"] == 3

    def test_unknown_config_key(self, tmp_path, tiny_csv):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"no_such_key": 1}))
        rc = main(["fit", "--config", str(cfg_path), "--data", str(tiny_csv),
                   "--formula", "Surv(y, delta) ~ A"])
        assert rc == 2

    def test_missing_required(self):
        assert main(["fit"]) == 1

    def test_time_col_conflict(self, tmp_path, tiny_csv):
        rc = main(["fit", "--data", str(tiny_csv),
                   "--formula", "Surv(y, delta) ~ A",
                   "--time-col", "other"])
        assert rc == 2

    def test_bad_data_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,delta,A\n1,7,0\n2,1,1\n")
        rc = main(["fit", "--data", str(bad),
                   "--formula", "Surv(y, delta) ~ A"])
        assert rc == 2

    def test_single_arm_data_exit_code(self, tmp_path, tiny_csv, capsys):
        lines = tiny_csv.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        treated = tmp_path / "all_treated.csv"
        treated.write_text("\n".join([lines[0]] + [",".join(r[:2] + ["1"] + r[3:])
                                                  for r in rows]) + "\n")
        rc = main(["fit", "--data", str(treated),
                   "--formula", "Surv(y, delta) ~ A + x",
                   "--warmup", "10", "--iters", "10",
                   "--out-dir", str(tmp_path / "one_arm")])
        assert rc == 2
        assert "not identified" in capsys.readouterr().err
        assert not (tmp_path / "one_arm").exists()

    def test_numerical_failure_exit_code(self, tmp_path, tiny_csv, capsys):
        # ar1 with an aggressive step diverges past the 20% gate -> exit 3
        rc = main(["fit", "--data", str(tiny_csv),
                   "--formula", "Surv(y, delta) ~ A + x",
                   "--model", "ar1", "--partitions", "8",
                   "--warmup", "40", "--iters", "40", "--seed", "3",
                   "--leapfrog-steps", "8", "--target-accept", "0.5",
                   "--out-dir", str(tmp_path / "nf")])
        assert rc == 3
        assert "divergent" in capsys.readouterr().err


class TestGcomp:
    def test_default_grid_files(self, tmp_path, tiny_csv):
        fit = run_fit(tmp_path, tiny_csv)
        out = tmp_path / "gc"
        rc = main(["gcomp", "--draws", str(fit / "draws.csv"),
                   "--meta", str(fit / "meta.json"), "--ref", "0",
                   "--B", "32", "--out-dir", str(out)])
        assert rc == 0
        for name in ("surv_ref.csv", "surv_trt.csv", "ate.csv"):
            header, mat = read_numeric_csv(out / name)
            assert mat.shape == (40, 4)       # draws x midpoints
        gmeta = json.loads((out / "gcomp_meta.json").read_text())
        assert gmeta["grid"] == "midpoints"
        assert gmeta["B"] == 32

    def test_user_times(self, tmp_path, tiny_csv, capsys):
        fit = run_fit(tmp_path, tiny_csv)
        out = tmp_path / "gc2"
        rc = main(["gcomp", "--draws", str(fit / "draws.csv"),
                   "--meta", str(fit / "meta.json"), "--times", "3,9",
                   "--B", "16", "--out-dir", str(out)])
        assert rc == 0
        header, mat = read_numeric_csv(out / "ate.csv")
        assert [float(h) for h in header] == [3.0, 9.0]
        assert mat.shape == (40, 2)
        # summarizing the contrast file yields one row per requested time
        rc = main(["summarize", "--file", str(out / "ate.csv"),
                   "--out", str(tmp_path / "ate_summary.csv")])
        assert rc == 0
        capsys.readouterr()
        with open(tmp_path / "ate_summary.csv") as fh:
            assert len(fh.read().splitlines()) == 3   # header + 2 rows

    def test_gcomp_files_bit_exact_vs_library(self, tmp_path, tiny_csv):
        from causalpch import gcompute
        from causalpch.cli import posterior_from_files

        fit = run_fit(tmp_path, tiny_csv)
        out = tmp_path / "gc_exact"
        rc = main(["gcomp", "--draws", str(fit / "draws.csv"),
                   "--meta", str(fit / "meta.json"), "--B", "16",
                   "--seed", "3", "--out-dir", str(out)])
        assert rc == 0
        post = posterior_from_files(fit / "draws.csv", fit / "meta.json")
        res = gcompute(post, ref=0, b=16, seed=3)
        for name, mat in (("surv_ref.csv", res.surv_ref),
                          ("surv_trt.csv", res.surv_trt),
                          ("ate.csv", res.ate)):
            _, parsed = read_numeric_csv(out / name)
            assert np.array_equal(parsed, mat)

    def test_time_beyond_horizon(self, tmp_path, tiny_csv, capsys):
        fit = run_fit(tmp_path, tiny_csv)
        rc = main(["gcomp", "--draws", str(fit / "draws.csv"),
                   "--meta", str(fit / "meta.json"), "--times", "1200",
                   "--out-dir", str(tmp_path / "gc3")])
        assert rc == 2
        assert "maximum observed time" in capsys.readouterr().err

    def test_ate_equals_difference(self, tmp_path, tiny_csv):
        fit = run_fit(tmp_path, tiny_csv)
        out = tmp_path / "gc4"
        main(["gcomp", "--draws", str(fit / "draws.csv"),
              "--meta", str(fit / "meta.json"), "--B", "16",
              "--out-dir", str(out)])
        _, ref = read_numeric_csv(out / "surv_ref.csv")
        _, trt = read_numeric_csv(out / "surv_trt.csv")
        _, ate = read_numeric_csv(out / "ate.csv")
        assert np.array_equal(ate, trt - ref)

    def test_single_arm_design_exit_code(self, tmp_path, tiny_csv, capsys):
        fit = run_fit(tmp_path, tiny_csv)
        meta = json.loads((fit / "meta.json").read_text())
        col = meta["design_columns"].index("A")
        for row in meta["design_matrix"]:
            row[col] = 1.0
        (fit / "meta.json").write_text(json.dumps(meta))
        rc = main(["gcomp", "--draws", str(fit / "draws.csv"),
                   "--meta", str(fit / "meta.json"), "--B", "8",
                   "--out-dir", str(tmp_path / "gc_one_arm")])
        assert rc == 2
        assert "not identified" in capsys.readouterr().err
        assert not (tmp_path / "gc_one_arm" / "ate.csv").exists()

    def test_mismatched_meta(self, tmp_path, tiny_csv):
        fit_a = run_fit(tmp_path, tiny_csv, out="mm_a")
        fit_b = run_fit(tmp_path, tiny_csv, out="mm_b", model="ar1")
        rc = main(["gcomp", "--draws", str(fit_a / "draws.csv"),
                   "--meta", str(fit_b / "meta.json"),
                   "--out-dir", str(tmp_path / "mm")])
        assert rc == 2


class TestSummarize:
    def test_table_and_csv(self, tmp_path, tiny_csv, capsys):
        fit = run_fit(tmp_path, tiny_csv)
        out_csv = tmp_path / "summary.csv"
        rc = main(["summarize", "--file", str(fit / "draws.csv"),
                   "--probs", "0.025,0.975", "--out", str(out_csv)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Quantiles for each variable" in text
        header, _ = read_numeric_csv_rows(out_csv)
        assert header[:5] == ["param", "mean", "sd", "naive_se", "ts_se"]

    def test_constant_column_sd_zero(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("a,b\n" + "\n".join("1.5,2" for _ in range(10)) + "\n")
        out_csv = tmp_path / "s.csv"
        rc = main(["summarize", "--file", str(path), "--out", str(out_csv)])
        assert rc == 0
        with open(out_csv) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        assert float(rows[1][2]) == 0.0


def read_numeric_csv_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


class TestDiag:
    def test_psrf_table(self, tmp_path, tiny_csv, capsys):
        fits = [run_fit(tmp_path, tiny_csv, out=f"chain{s}",
                        extra=()) for s in range(1)]
        # three chains in one file via --chains
        out_dir = tmp_path / "multi"
        rc = main(["fit", "--data", str(tiny_csv),
                   "--formula", "Surv(y, delta) ~ A + x",
                   "--model", "independent", "--partitions", "4",
                   "--warmup", "60", "--iters", "40", "--seed", "9",
                   "--leapfrog-steps", "8", "--chains", "3",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        out_csv = tmp_path / "psrf.csv"
        rc = main(["diag", "--files", str(out_dir / "draws.csv"),
                   "--out", str(out_csv)])
        assert rc == 0
        assert "Potential scale reduction factors" in capsys.readouterr().out
        header, rows = read_numeric_csv_rows(out_csv)
        assert header == ["param", "point_est", "upper_ci"]
        assert len(rows) == 4 + 2 + 1 + 4

    def test_mismatched_columns(self, tmp_path, tiny_csv):
        a = run_fit(tmp_path, tiny_csv, out="da")
        b = run_fit(tmp_path, tiny_csv, out="db", model="ar1")
        rc = main(["diag", "--files", str(a / "draws.csv"),
                   str(b / "draws.csv")])
        assert rc == 2

    def test_single_chain_rejected(self, tmp_path, tiny_csv):
        a = run_fit(tmp_path, tiny_csv, out="dc")
        rc = main(["diag", "--files", str(a / "draws.csv")])
        assert rc == 2


class TestHazardExport:
    def test_rows_and_columns(self, tmp_path, tiny_csv):
        fit = run_fit(tmp_path, tiny_csv)
        out_csv = tmp_path / "hazard.csv"
        rc = main(["hazard-export", "--draws", str(fit / "draws.csv"),
                   "--meta", str(fit / "meta.json"), "--out", str(out_csv)])
        assert rc == 0
        header, mat = read_numeric_csv(out_csv)
        assert header == ["midpoint", "post_mean", "lo", "hi", "mle_hazard"]
        assert mat.shape == (4, 5)
        assert np.all(mat[:, 2] <= mat[:, 1]) and np.all(mat[:, 1] <= mat[:, 3])

    def test_degenerate_draws_collapse_band(self, tmp_path, tiny_csv):
        fit = run_fit(tmp_path, tiny_csv)
        names, mat = read_numeric_csv(fit / "draws.csv")
        mat[:, :-2] = mat[0, :-2]            # every draw identical
        path = fit / "draws_flat.csv"
        with open(path, "w") as fh:
            fh.write(",".join(names) + "\n")
            for row in mat:
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
        out_csv = tmp_path / "hz_flat.csv"
        rc = main(["hazard-export", "--draws", str(path),
                   "--meta", str(fit / "meta.json"), "--out", str(out_csv)])
        assert rc == 0
        _, m = read_numeric_csv(out_csv)
        assert np.allclose(m[:, 1], m[:, 2])
        assert np.allclose(m[:, 1], m[:, 3])


class TestUsage:
    def test_unknown_command(self):
        assert main(["bogus"]) == 1

    def test_bad_times_format(self, tmp_path, tiny_csv):
        fit = run_fit(tmp_path, tiny_csv)
        rc = main(["gcomp", "--draws", str(fit / "draws.csv"),
                   "--meta", str(fit / "meta.json"), "--times", "a,b"])
        assert rc == 1

    def test_veteran_end_to_end_smoke(self, tmp_path):
        # minimal end-to-end pass over the real demonstration dataset
        out = tmp_path / "vet"
        rc = main(["fit", "--data", str(VETERAN_CSV),
                   "--formula", "Surv(y, delta) ~ A",
                   "--model", "independent", "--partitions", "10",
                   "--warmup", "50", "--iters", "30", "--seed", "1",
                   "--leapfrog-steps", "8", "--out-dir", str(out)])
        assert rc == 0
        rc = main(["gcomp", "--draws", str(out / "draws.csv"),
                   "--meta", str(out / "meta.json"), "--times", "365,730",
                   "--B", "20", "--out-dir", str(out)])
        assert rc == 0
        header, mat = read_numeric_csv(out / "ate.csv")
        assert mat.shape == (30, 2)
