import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from causalpch import PriorConfig, SamplerConfig
from causalpch.cli import _RECORDED, build_parser, main, read_numeric_csv

from conftest import VETERAN_CSV, run_fresh_python


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


def run_fit(tmp_path, tiny_csv, out="fit", model="independent", K=4, extra=(),
            formula="Surv(y, delta) ~ A + x"):
    out_dir = tmp_path / out
    # ar1 on tiny data needs a cautious step size to stay under the
    # divergence-rate gate
    tuning = ("--target-accept", "0.95", "--warmup", "150") if model == "ar1" \
        else ("--warmup", "60")
    rc = main(["fit", "--data", str(tiny_csv),
               "--formula", formula,
               "--model", model, "--partitions", str(K),
               "--iters", "40", "--seed", "9",
               "--leapfrog-steps", "8", *tuning,
               "--out-dir", str(out_dir), *extra])
    assert rc == 0
    return out_dir


def relabel(line, chain=None, it=None):
    """A draws.csv line with its chain and/or iter label replaced."""
    head, old_chain, old_it = line.rsplit(",", 2)
    return f"{head},{chain or old_chain},{it or old_it}"


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
        assert meta["leapfrog_steps"] == 6            # file beats class default
        assert (meta["warmup"], meta["post_iter"]) == (30, 20)

    @pytest.mark.parametrize("key, value", [
        ("no_such_key", 1),
        ("leapfrog_steps", 6),       # names a dest, not a flag
        ("iter", 5),                 # flags are not abbreviated
        ("config", "other.json"),
        ("iters", True),
        ("partitions", 3.7),
        ("chains", 2.9),
        ("model", "foo"),
        ("init-jitter", 0.5),        # the start radius is not a setting
    ], ids=str)
    def test_unknown_config_key(self, tmp_path, tiny_csv, capsys, key, value):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({key: value}))
        rc = main(["fit", "--config", str(cfg_path), "--data", str(tiny_csv),
                   "--formula", "Surv(y, delta) ~ A",
                   "--out-dir", str(tmp_path / "never")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(cfg_path) in err and repr(key) in err
        assert not (tmp_path / "never").exists()

    def test_flags_match_config_fields(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = [a.dest for a in sub.choices["fit"]._actions
                 if a.option_strings and a.dest != "help"]
        settings = [f.name for cls in (PriorConfig, SamplerConfig)
                    for f in fields(cls)]
        assert set(dests) - set(settings) == {"data", "formula", "treat_col",
                                              "out_dir", "config"}
        assert all(dests.count(name) == 1 for name in settings)
        assert _RECORDED == tuple(f.name for f in fields(SamplerConfig)
                                  if f.name != "threads")

    def test_init_jitter_flag_is_gone(self, tmp_path, tiny_csv):
        rc = main(["fit", "--data", str(tiny_csv),
                   "--formula", "Surv(y, delta) ~ A", "--init-jitter", "0.5",
                   "--out-dir", str(tmp_path / "never")])
        assert rc == 1
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_code(self, tmp_path, tiny_csv, capsys,
                                         threads):
        rc = main(["fit", "--data", str(tiny_csv),
                   "--formula", "Surv(y, delta) ~ A",
                   "--warmup", "10", "--iters", "10", "--threads", threads,
                   "--out-dir", str(tmp_path / "never")])
        assert rc == 2
        assert "threads" in capsys.readouterr().err

    def test_missing_required(self):
        assert main(["fit"]) == 1

    def test_surv_names_missing_column(self, tmp_path, tiny_csv, capsys):
        rc = main(["fit", "--data", str(tiny_csv),
                   "--formula", "Surv(other, delta) ~ A",
                   "--out-dir", str(tmp_path / "never")])
        assert rc == 2
        assert "'other'" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

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
        # a repeated time repeats a header name, which summarize still reads
        for times in ("3,9", "3,3"):
            out = tmp_path / f"gc_{times}"
            rc = main(["gcomp", "--draws", str(fit / "draws.csv"),
                       "--meta", str(fit / "meta.json"), "--times", times,
                       "--B", "16", "--out-dir", str(out)])
            assert rc == 0
            header, mat = read_numeric_csv(out / "ate.csv")
            assert [float(h) for h in header] == [float(t)
                                                  for t in times.split(",")]
            assert mat.shape == (40, 2)
            # summarizing the contrast file yields one row per requested time
            rc = main(["summarize", "--file", str(out / "ate.csv"),
                       "--out", str(out / "ate_summary.csv")])
            assert rc == 0
            capsys.readouterr()
            with open(out / "ate_summary.csv") as fh:
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

    META_DAMAGE = {
        "artifact": lambda m: m.update(artifact="other"),
        "narrow_design": lambda m: [row.pop() for row in m["design_matrix"]],
        "short_y": lambda m: m.update(y=m["y"][:-5]),
        "empty_design": lambda m: m.update(design_matrix=[]),
        "ragged_design": lambda m: m["design_matrix"][0].append(1.0),
        "three_component_term": lambda m: m["terms"][-1].extend(["A", "A"]),
        # under A*x this drops A:x, which g-computation must rewrite
        "short_terms": lambda m: m["terms"].pop(),
        "partition": lambda m: m["partition"]["endpoints"].__setitem__(1, 0.0),
        "delta_two": lambda m: m["delta"].__setitem__(0, 2),
        "delta_nan": lambda m: m["delta"].__setitem__(0, float("nan")),
        "no_events": lambda m: m.update(delta=[0] * len(m["delta"])),
        "y_nonpositive": lambda m: m["y"].__setitem__(0, -5.0),
    }

    DRAWS_DAMAGE = {
        "truncated": lambda lines: lines[:-1],
        "chain_labels": lambda lines: lines[:1] + [
            relabel(line, chain=2) for line in lines[1:]],
        "iter_nan": lambda lines: [lines[0], relabel(lines[1], it="nan"),
                                   *lines[2:]],
        # the last draw of chain 1 moves to chain 2 of a 2 x 40 fit: the row
        # count and the set of chain labels still match meta.json
        "unbalanced_chains": lambda lines: [
            *lines[:40], relabel(lines[40], chain=2), *lines[41:]],
    }

    @pytest.mark.parametrize("damage", [*DRAWS_DAMAGE, *META_DAMAGE])
    @pytest.mark.parametrize("command", ["gcomp", "hazard-export"])
    def test_inconsistent_fit_files_exit_code(self, tmp_path, tiny_csv,
                                              capsys, damage, command):
        # the interaction fit needs a cautious step on the tiny data
        fit = (run_fit(tmp_path, tiny_csv, formula="Surv(y, delta) ~ A*x",
                       extra=("--target-accept", "0.95"))
               if damage == "short_terms" else
               run_fit(tmp_path, tiny_csv, extra=("--chains", "2"))
               if damage == "unbalanced_chains" else run_fit(tmp_path, tiny_csv))
        draws, meta = fit / "draws.csv", fit / "meta.json"
        lines = draws.read_text().splitlines()
        if damage in self.DRAWS_DAMAGE:
            draws.write_text("\n".join(self.DRAWS_DAMAGE[damage](lines)) + "\n")
        else:
            record = json.loads(meta.read_text())
            self.META_DAMAGE[damage](record)
            meta.write_text(json.dumps(record))
        out = tmp_path / "out"
        argv = (["gcomp", "--B", "8", "--out-dir", str(out)]
                if command == "gcomp"
                else ["hazard-export", "--out", str(out)])
        rc = main(argv + ["--draws", str(draws), "--meta", str(meta)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

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

    def test_ragged_draws_reported_by_row(self, tmp_path, capsys):
        path = tmp_path / "draws.csv"
        path.write_text("a,b,chain,iter\n0.1,0.2,1,1\n0.3,1,2\n0.5,0.6,1,3\n")
        rc = main(["summarize", "--file", str(path),
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "row 2 has 3 fields, expected 4" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

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


@pytest.mark.parametrize("label", ["nan", "1.5", "0"])
@pytest.mark.parametrize("command", ["summarize", "diag"])
def test_bad_chain_label_exit_code(tmp_path, tiny_csv, capsys, label, command):
    fit = run_fit(tmp_path, tiny_csv, extra=("--chains", "2"))
    draws = fit / "draws.csv"
    lines = draws.read_text().splitlines()
    draws.write_text("\n".join([lines[0], relabel(lines[1], chain=label),
                                *lines[2:]]) + "\n")
    out = tmp_path / "out.csv"
    argv = (["summarize", "--file"] if command == "summarize"
            else ["diag", "--files"])
    rc = main(argv + [str(draws), "--out", str(out)])
    assert rc == 2
    assert "chain labels must be integers >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["summarize", "hazard-export"])
def test_quantiles_leave_numpy_ma_unloaded(tmp_path, tiny_csv, command):
    # np.quantile imports numpy.ma on first use, about 18 ms per process
    fit = run_fit(tmp_path, tiny_csv)
    argv = (["summarize", "--file", str(fit / "draws.csv")]
            if command == "summarize" else
            ["hazard-export", "--draws", str(fit / "draws.csv"),
             "--meta", str(fit / "meta.json")])
    argv += ["--out", str(tmp_path / "out.csv")]
    proc = run_fresh_python(
        "import sys; from causalpch.cli import main; "
        "before = 'numpy.ma' in sys.modules; "
        f"rc = main({argv!r}); "
        "print(rc, before, 'numpy.ma' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"


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
