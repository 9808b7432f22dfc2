"""Command line interface: flags, config files, output formats, exit codes.

Commands run in-process through main(argv) so the suite stays fast; one
subprocess test confirms the installed entry point works end to end.
"""

import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from capsmooth import bounds, checks, montecarlo, volumes
from capsmooth.cli import _build_parser, _parse_args, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVolumes:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "volumes", "--n", "4",
                           "--sigma", "0.25,0.5,1.0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,sigma,sphere_volume,cap_integral")
        assert len(lines) == 4
        # sigma = 1 row covers the half sphere
        last = lines[-1].split(",")
        assert np.isclose(float(last[7]), 1.0, rtol=1e-12)

    def test_space_fraction_past_the_double_range(self, capsys):
        # O_n / 2 underflows from n = 454 and I_n(0.5) O_{n-1} from
        # n = 340; the fraction I_n(sigma) / I_n(1) does neither, and is
        # exactly 1 at sigma = 1
        code, out, _ = run(capsys, "volumes", "--n", "500",
                           "--sigma", "0.5,1")
        assert code == 0
        assert out.splitlines()[-1].split(",")[-1] == "1"
        code, out, _ = run(capsys, "volumes", "--n", "340", "--sigma", "0.5")
        assert code == 0
        frac = float(out.splitlines()[1].split(",")[-1])
        want = math.exp(volumes.log_cap_integral(340, 0.5)
                        - volumes.log_cap_integral(340, 1.0))
        assert want > 1e-105
        assert abs(frac - want) <= 1e-12 * want

    def test_needs_n(self, capsys):
        code, _, err = run(capsys, "volumes")
        assert code == 2
        assert "error:" in err

    def test_n_below_one_names_n(self, capsys):
        # checked as the dimension n, not left to the cap integral
        code, out, err = run(capsys, "volumes", "--n", "0")
        assert (code, out) == (2, "")
        assert err == "error: n must be an integer in [1, inf), got 0\n"

    @pytest.mark.parametrize("sigma,entry", [("0.5,x", "x"), ("0.5,,1", ""),
                                             ("", "")])
    def test_bad_sigma_entry_names_sigma(self, sigma, entry, capsys):
        code, out, err = run(capsys, "volumes", "--n", "3", "--sigma", sigma)
        assert (code, out) == (2, "")
        assert err == ("error: --sigma expects comma-separated numbers, "
                       "got %r\n" % entry)


class TestSample:
    def test_reproducible(self, capsys):
        args = ("sample", "--n", "3", "--samples", "20", "--seed", "5",
                "--beta", "1.0")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        rows = out1.strip().splitlines()
        assert rows[0] == "x0,x1,x2,x3,radius"
        assert len(rows) == 21
        vals = np.array([[float(c) for c in r.split(",")]
                         for r in rows[1:]])
        np.testing.assert_allclose(np.linalg.norm(vals[:, :4], axis=1),
                                   1.0, rtol=1e-12)
        assert np.all(vals[:, 4] <= 0.5 + 1e-12)

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CAPSMOOTH_SEED", "5")
        _, out_env, _ = run(capsys, "sample", "--n", "3",
                            "--samples", "20", "--beta", "1.0")
        monkeypatch.delenv("CAPSMOOTH_SEED")
        _, out_flag, _ = run(capsys, "sample", "--n", "3",
                             "--samples", "20", "--seed", "5",
                             "--beta", "1.0")
        assert out_env == out_flag

    def test_pole_center_rejected_without_problem(self, capsys):
        code, _, err = run(capsys, "sample", "--n", "3",
                           "--center", "pole")
        assert code == 2
        assert "error:" in err

    def test_coords_center(self, capsys):
        code, out, _ = run(capsys, "sample", "--n", "2", "--samples", "5",
                           "--seed", "1",
                           "--center", "coords:0,0,1")
        assert code == 0
        vals = np.array([[float(c) for c in r.split(",")]
                         for r in out.strip().splitlines()[1:]])
        # all draws stay within sigma of the requested center
        d = np.sqrt(vals[:, 0] ** 2 + vals[:, 1] ** 2)
        assert np.all(d <= 0.5 + 1e-12)

    def test_large_n(self, capsys):
        # n = 200: the kernel's lowest nodes have q^(n/2) below the
        # double range
        code, out, _ = run(capsys, "sample", "--n", "200", "--samples", "3",
                           "--seed", "1")
        assert code == 0
        radii = [float(r.split(",")[-1]) for r in out.strip().splitlines()[1:]]
        assert len(radii) == 3
        assert all(0.0 < r <= 0.5 for r in radii)

    def test_coords_wrong_length(self, capsys):
        code, _, err = run(capsys, "sample", "--n", "3",
                           "--center", "coords:1,0")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("n", ["0", "-1", "-3"])
    def test_n_below_one_names_n(self, n, capsys):
        # checked before the center is resolved
        code, out, err = run(capsys, "sample", "--n", n)
        assert (code, out) == (2, "")
        assert err == "error: n must be an integer in [1, inf), got %s\n" % n


@pytest.mark.parametrize("argv,name", [
    (("sample", "--n", "1", "--center", "coords:1,x"), "--center coords:"),
    (("sample", "--n", "3", "--center", "bogus"), "--center"),
    (("tail", "--problem", "hyperplane"), "--n"),
    (("tail", "--problem", "union:2"), "--n"),
    (("sample",), "--n"),
    (("boost-check", "--rho-steps", "x"), "--rho-steps"),
    (("volumes", "--config", "{config}"), "config file"),
    (("sample", "--n", "3", "--samples", "0"), "samples"),
    (("sample", "--n", "3", "--profile", "{header}"), "--profile"),
    (("sample", "--n", "3", "--profile", "{ragged}"), "--profile"),
    (("sample", "--n", "3", "--profile", "{semicolons}"), "--profile"),
    (("sample", "--n", "3", "--profile", "{column}"), "--profile"),
    (("sample", "--n", "3", "--profile", "{empty}"), "--profile"),
    (("sample", "--n", "3", "--profile", "{comment}"), "--profile"),
    (("sample", "--n", "3", "--center", "coords:0,0,0,0"),
     "--center coords:")],
    ids=["coords-entry", "center", "hyperplane-n", "union-n", "sample-n",
         "rho-steps", "config-list", "samples", "profile-header",
         "profile-ragged", "profile-semicolons", "profile-column",
         "profile-empty", "profile-comment", "coords-zero"])
def test_invalid_argument_named(argv, name, capsys, tmp_path):
    # each error line leads with "error:" and names the argument; argparse
    # exits itself
    files = {"config": "[1, 2]", "header": "r,h\n0,2\n0.5,1\n",
             "ragged": "0,2\n0.25,1.5,7\n0.5,1\n",
             "semicolons": "0;2\n0.5;1\n", "column": "0\n0.5\n",
             "empty": "", "comment": "# r,h\n"}
    for key, text in files.items():
        files[key] = tmp_path / key
        files[key].write_text(text)
    try:
        code = main([a.format(**files) for a in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert name in err.splitlines()[0]


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "300", "--sigma", "0.05", "--samples", "3"),
    ("tail", "--problem", "hyperplane", "--n", "300", "--sigma", "0.05"),
    ("expect", "--problem", "hyperplane", "--n", "300", "--sigma", "0.05",
     "--samples", "10")], ids=["sample", "tail", "expect"])
def test_unsampleable_law_exits_2(capsys, argv):
    # I_300(0.05) ~ 1e-393 is no double, so no radius can be inverted:
    # an error line and exit 2, not a traceback and the exit code of a
    # violated bound
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the radial mass I_300(0.05)")
    assert "double range" in err and err.count("\n") == 1


def test_unconverged_solve_exits_2(capsys):
    # at beta = n - 1e-7 the incomplete beta inverse that builds the
    # kernel cannot converge for a = 5e-8: a solve that fails is an
    # error line and exit 2, not a traceback and the exit code of a
    # violated bound
    code, out, err = run(capsys, "expect", "--problem", "hyperplane", "--n",
                         "3", "--beta", "2.9999999", "--samples", "1000")
    assert (code, out) == (2, "")
    assert err.startswith("error: incomplete beta inverse did not converge")
    assert err.count("\n") == 1


class TestTailAndExpect:
    def test_tail_healthy(self, capsys):
        code, out, _ = run(capsys, "tail", "--problem", "hyperplane",
                           "--n", "3", "--samples", "5000", "--seed", "2",
                           "--t-steps", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,count,survival")
        assert len(lines) == 7

    def test_tail_json(self, capsys):
        code, out, _ = run(capsys, "tail", "--problem", "hyperplane",
                           "--n", "3", "--samples", "2000", "--seed", "2",
                           "--t-steps", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "capsmooth-report-v1"
        assert len(doc["rows"]) == 4

    def test_sigma_out_of_range(self, capsys):
        code, _, err = run(capsys, "tail", "--problem", "hyperplane",
                           "--n", "3", "--sigma", "1.5",
                           "--samples", "100")
        assert code == 2
        assert "error:" in err

    def test_union_problem(self, capsys):
        code, out, _ = run(capsys, "tail", "--problem", "union:2", "--n",
                           "3", "--samples", "2000", "--t-steps", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        # k counts standard-basis normals, so 1 <= k <= n + 1
        for k in ("0", "5"):
            code, out, err = run(capsys, "tail", "--problem", "union:" + k,
                                 "--n", "3", "--samples", "100")
            assert code == 2
            assert out == ""
            assert "union:k needs" in err

    def test_union_needs_n_at_least_one(self, capsys):
        # union:1 at n = 0 has k <= n + 1, but one coordinate is no
        # projective space: an error line and exit 2, as for hyperplane
        code, out, err = run(capsys, "tail", "--problem", "union:1", "--n",
                             "0", "--samples", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error: normals") and err.count("\n") == 1

    def test_empty_t_grid(self, capsys):
        code, out, err = run(capsys, "tail", "--problem", "hyperplane",
                             "--n", "3", "--samples", "100", "--t-steps", "0")
        assert code == 2
        assert out == ""
        assert err == "error: t_grid must not be empty\n"

    @pytest.mark.parametrize("bounds", [("--t-min", "nan"),
                                        ("--t-max", "inf")])
    def test_non_finite_threshold(self, capsys, bounds):
        code, out, err = run(capsys, "tail", "--problem", "hyperplane",
                             "--n", "3", "--beta", "1.5", "--samples", "100",
                             *bounds)
        assert code == 2
        assert out == ""
        assert err == "error: t_grid must hold finite thresholds\n"

    def test_unknown_problem(self, capsys):
        code, _, err = run(capsys, "tail", "--problem", "sphere",
                           "--n", "3", "--samples", "100")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("spec,form", [("matrix:2.5", "matrix:m"),
                                           ("union:x", "union:k")])
    def test_problem_size_not_an_integer(self, spec, form, capsys):
        code, out, err = run(capsys, "tail", "--problem", spec, "--n", "3",
                             "--samples", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error: --problem must be %s with an integer"
                              % form)

    def test_missing_problem(self, capsys):
        for cmd in ("tail", "expect"):
            code, _, err = run(capsys, cmd, "--n", "3", "--samples", "100")
            assert code == 2
            assert err == "error: tail and expect need --problem\n"

    def test_degree_check(self, capsys):
        code, _, err = run(capsys, "tail", "--problem", "hyperplane",
                           "--n", "3", "--d", "2", "--samples", "100")
        assert code == 2
        assert "does not match" in err

    def test_matrix_dimension_check(self, capsys):
        for cmd, m, n in (("expect", "3", "5"), ("tail", "2", "7")):
            code, _, err = run(capsys, cmd, "--problem", "matrix:" + m,
                               "--n", n, "--samples", "100")
            assert code == 2
            assert "does not match" in err

    def test_pole_law_on_linear_scale_rejected(self, capsys):
        # no theorem bounds P(C >= t) for beta > 0, so every row would
        # read bound_applicable=false
        code, out, err = run(capsys, "tail", "--problem", "hyperplane",
                             "--n", "3", "--beta", "1.5", "--scale",
                             "linear", "--samples", "2000", "--t-steps", "3")
        assert code == 2
        assert out == ""
        assert "no tail theorem" in err

    def test_grid_below_theorem_range_rejected(self, capsys):
        # the uniform theorem starts at t0 = 9 for n = 3, d = 1, sigma = 1
        code, out, err = run(capsys, "tail", "--problem", "hyperplane",
                             "--n", "3", "--samples", "2000", "--t-steps",
                             "3", "--t-min", "1", "--t-max", "2")
        assert code == 2
        assert out == ""
        assert "below" in err

    def test_expect_healthy(self, capsys):
        code, out, _ = run(capsys, "expect", "--problem", "matrix:2",
                           "--n", "3", "--samples", "3000", "--seed", "4",
                           "--center", "random")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("n_samples,n_effective")
        cells = row.split(",")
        assert cells[0] == "3000"
        assert float(cells[6]) > 0  # margin

    def test_expect_redraws_are_reported_on_stderr(self, capsys):
        # near beta = n some draws have C = inf; they are redrawn, which
        # biases the mean low, and stderr says how many
        args = ("expect", "--problem", "hyperplane", "--n", "3",
                "--samples", "20000", "--seed", "1")
        code, out, err = run(capsys, *args, "--beta", "2.99")
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "491"
        assert err == ("expect: 491 draws had C = inf and were redrawn, so "
                       "mean_ln_c is biased low\n")
        code, out, err = run(capsys, *args)
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "0"
        assert err == ""

    def test_tabulated_workers_do_not_change_output(self, capsys, tmp_path):
        # a tabulated law builds its segment fits lazily, in whichever
        # worker thread inverts first
        sigma = 0.5
        r = np.linspace(0.0, sigma, 1025)
        profile = tmp_path / "profile.csv"
        np.savetxt(profile, np.column_stack((r, 2.0 - r / sigma)),
                   delimiter=",", fmt="%.17g")
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / ("w%s.csv" % workers)
            code, _, _ = run(capsys, "tail", "--problem", "matrix:3", "--n",
                             "8", "--beta", "4", "--profile", str(profile),
                             "--seed", "5", "--workers", workers,
                             "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_nan_profile_node(self, capsys, tmp_path):
        # a NaN node is invalid input (exit 2), not a failed bound (1)
        profile = tmp_path / "profile.csv"
        profile.write_text("0,1\nnan,1\n0.5,1\n")
        code, out, err = run(capsys, "tail", "--problem", "hyperplane",
                             "--n", "3", "--beta", "0", "--sigma", "0.5",
                             "--profile", str(profile))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @staticmethod
    def steep_profile(tmp_path):
        # beta = 0 with a falling profile: h = 1 on the first two of 201
        # nodes r_i = i / 400 and 0 after, normalized sup H = 2.3e6
        r = np.arange(201) / 400.0
        path = tmp_path / "steep.csv"
        np.savetxt(path, np.column_stack((r, (r <= 1 / 400).astype(float))),
                   delimiter=",", fmt="%.17g")
        return ("--problem", "hyperplane", "--n", "3", "--beta", "0",
                "--sigma", "0.5", "--profile", str(path), "--samples",
                "20000", "--seed", "1")

    def test_falling_profile_boosted(self, capsys, tmp_path):
        # held to the boosted theorem from t_eps = 35.44 on the log
        # scale, not to the uniform one, which it violates
        code, out, _ = run(capsys, "tail", *self.steep_profile(tmp_path),
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["scale"] == "log"
        rows = doc["rows"]
        assert len(rows) == 25
        assert rows[0]["t"] == pytest.approx(35.436, abs=1e-3)
        assert all(r["bound_applicable"] and not r["violation"]
                   for r in rows)

    def test_falling_profile_on_linear_scale_rejected(self, capsys,
                                                      tmp_path):
        code, out, err = run(capsys, "tail", *self.steep_profile(tmp_path),
                             "--scale", "linear")
        assert code == 2
        assert out == ""
        assert "no tail theorem" in err

    def test_falling_profile_expectation(self, capsys, tmp_path):
        code, out, _ = run(capsys, "expect", *self.steep_profile(tmp_path),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(37.5736, abs=1e-4)

    @pytest.mark.parametrize("command", ["tail", "expect"])
    def test_constant_table_sup_below_one(self, command, capsys, tmp_path):
        # a 1025-node table h = 1 normalizes to H = 1 - 1 ulp here, which
        # the theorems read as H = 1
        r = np.linspace(0.0, 0.5, 1025)
        path = tmp_path / "ones.csv"
        np.savetxt(path, np.column_stack((r, np.ones_like(r))),
                   delimiter=",", fmt="%.17g")
        code, out, err = run(capsys, command, "--problem", "hyperplane",
                             "--n", "4", "--beta", "0.5", "--sigma", "0.5",
                             "--profile", str(path), "--samples", "5000",
                             "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["H"] < 1.0

    def test_default_linear_span(self, capsys):
        # from t0 = 18 for n = 3, d = 1, sigma = 0.5 up to 1e4 t0
        code, out, _ = run(capsys, "tail", "--problem", "hyperplane",
                           "--n", "3", "--samples", "1000", "--t-steps", "3")
        assert code == 0
        ts = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:]]
        assert (ts[0], ts[-1]) == (18.0, 18.0 * 1e4)
        assert ts[1] == pytest.approx(18.0 * 1e2, rel=1e-15)

    def test_boosted_center_pole(self, capsys):
        code, out, _ = run(capsys, "tail", "--problem", "hyperplane",
                           "--n", "3", "--beta", "1.5",
                           "--samples", "5000", "--seed", "6",
                           "--t-steps", "5")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        # default grid starts at the boosted threshold, so every row
        # carries an applicable bound
        assert all(l.split(",")[6] == "true" for l in lines)


class TestCheckers:
    def test_boost_check_pinned(self, capsys):
        code, out, _ = run(capsys, "boost-check", "--n", "4",
                           "--beta", "1.0", "--sigma", "0.5", "--H", "2",
                           "--eps", "0.2", "--rho-steps", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,beta,sigma,H,eps,rho,lhs,rhs,pass"
        assert len(lines) == 11
        assert all(l.endswith(",true") for l in lines[1:])

    def test_boost_check_rows_follow_the_grid(self, capsys):
        code, out, _ = run(capsys, "boost-check", "--n", "4",
                           "--rho-steps", "2")
        assert code == 0
        rows = [tuple(map(float, l.split(",")[:5]))
                for l in out.strip().splitlines()[1::2]]
        assert rows == [(p.n, p.beta, p.sigma, p.H, p.eps)
                        for p in bounds.default_grid(n=4)]

    def test_one_radius_is_rho_eps(self, capsys, monkeypatch):
        # the log margin is smallest at rho_eps (0.2068 over the grid), so
        # a lhs shifted by 0.25 must fail a one-radius sweep
        check = bounds.boosting_check

        def shifted(*args):
            row = check(*args)
            lhs = row.lhs + 0.25
            return bounds.CheckRow(lhs, row.rhs, lhs <= row.rhs + 1e-12
                                   * max(1.0, abs(row.rhs)))

        monkeypatch.setattr(bounds, "boosting_check", shifted)
        code, out, _ = run(capsys, "boost-check", "--rho-steps", "1")
        assert code == 1
        rhos = [float(l.split(",")[5]) for l in out.strip().splitlines()[1:]]
        assert rhos == [p.rho() for p in bounds.default_grid()]

    def test_smoothness_pinned(self, capsys):
        code, out, _ = run(capsys, "smoothness", "--n", "4",
                           "--beta", "2.0")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 1
        cells = rows[0].split(",")
        assert abs(float(cells[4]) - 0.5) <= 0.02
        assert cells[6] == "true"

    def test_small_calc(self, capsys):
        code, out, _ = run(capsys, "small-calc", "--n-max", "1000",
                           "--points", "40")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert all(r.endswith(",true") for r in rows)
        # lhs column really is below rhs
        for r in rows:
            cells = r.split(",")
            assert float(cells[1]) <= float(cells[2])


class TestConfigFile:
    def test_merge_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "samples": 30, "seed": 5,
                                   "beta": 1.0}))
        _, out_cfg, _ = run(capsys, "sample", "--config", str(cfg))
        _, out_flags, _ = run(capsys, "sample", "--n", "3", "--samples",
                              "30", "--seed", "5", "--beta", "1.0")
        assert out_cfg == out_flags
        # an explicit flag beats the file
        _, out_override, _ = run(capsys, "sample", "--config", str(cfg),
                                 "--samples", "10")
        assert len(out_override.strip().splitlines()) == 11

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "bogus": 1}))
        code, _, err = run(capsys, "sample", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_type_checking(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3.5}))
        code, _, err = run(capsys, "sample", "--config", str(cfg))
        assert code == 2
        assert "integer" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "sample", "--config",
                           str(tmp_path / "nope.json"))
        assert code == 2


# every subcommand's flags and their defaults (CAPSMOOTH_SEED unset)
LAW = {"n": None, "sigma": 0.5, "beta": 0.0, "profile": None, "seed": 0,
       "out": None}
MC = dict(LAW, center="pole", problem=None, d=None, samples=100000,
          workers=1, format="csv")
COMMANDS = {
    "volumes": ("--config --n --out --sigma",
                {"n": None, "sigma": "0.1,0.25,0.5,0.75,1.0", "out": None}),
    "sample": ("--beta --center --config --n --out --profile --samples "
               "--seed --sigma", dict(LAW, center="random", samples=100)),
    "tail": ("--beta --center --config --d --format --n --out --problem "
             "--profile --samples --scale --seed --sigma --t-max --t-min "
             "--t-steps --workers",
             dict(MC, scale="auto", t_min=None, t_max=None, t_steps=25)),
    "expect": ("--beta --center --config --d --format --n --out --problem "
               "--profile --samples --seed --sigma --workers", MC),
    "boost-check": ("--H --beta --config --eps --n --out --rho-steps "
                    "--sigma", {"n": None, "beta": None, "sigma": None,
                                "H": None, "eps": None, "rho_steps": 25,
                                "out": None}),
    "smoothness": ("--beta --config --n --out --rho --sigma --tol",
                   {"n": None, "beta": None, "sigma": 0.5, "rho": 1e-6,
                    "tol": 0.02, "out": None}),
    "small-calc": ("--config --n-max --out --points",
                   {"n_max": 10 ** 6, "points": 200, "out": None}),
    "verify": ("--config --format --out --quick --seed --workers",
               {"quick": False, "seed": 0, "workers": 1, "format": "csv",
                "out": None}),
}


def flag_values(args):
    """The flag values of a namespace, without --config."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "config", "_func")}


def write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestParser:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flags_and_defaults(self, command, monkeypatch):
        monkeypatch.delenv("CAPSMOOTH_SEED", raising=False)
        flags, defaults = COMMANDS[command]
        _, commands = _build_parser()
        assert ({s for a in commands[command]._actions
                 for s in a.option_strings} - {"-h", "--help"}
                == set(flags.split()))
        got = flag_values(_parse_args([command]))
        # repr tells 0 from 0.0, so the types are pinned too
        assert {k: repr(v) for k, v in got.items()} == {
            k: repr(v) for k, v in defaults.items()}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "(default: " in capsys.readouterr().out

    @pytest.mark.parametrize("command,offers_pole", [
        ("sample", False), ("tail", True), ("expect", True)])
    def test_center_help(self, command, offers_pole, capsys):
        # sample has no problem, so it refuses --center pole; only the
        # subcommands that take one offer it
        with pytest.raises(SystemExit):
            main([command, "--help"])
        entry = re.search(r"^  --center .*?(?=^  -|\Z)",
                          capsys.readouterr().out, re.M | re.S).group(0)
        assert "coords:<c0,c1,...>" in entry
        assert ("pole" in entry) == offers_pole

    @pytest.mark.parametrize("argv", [
        ("small-calc", "--points", "0"),
        ("boost-check", "--n", "3", "--rho-steps", "0")],
        ids=["points", "rho-steps"])
    def test_empty_sweep_rejected(self, argv, capsys):
        # a sweep of no rows would report 0 failures and exit 0
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert argv[-2] in captured.err and "at least 1" in captured.err

    @pytest.mark.parametrize("argv", [
        ("boost-check", "--n", "0", "--rho-steps", "2"),
        ("smoothness", "--n", "3", "--tol", "nan"),
        ("smoothness", "--n", "3", "--tol", "-1"),
        ("smoothness", "--n", "3", "--tol", "inf"),
        ("small-calc", "--n-max", "-5", "--points", "3"),
        ("small-calc", "--n-max", "0", "--points", "3"),
        ("verify", "--quick", "--workers", "0")],
        ids=["n-0", "tol-nan", "tol-negative", "tol-inf", "n-max-negative",
             "n-max-0", "workers-0"])
    def test_invalid_value_rejected(self, argv, capsys):
        # invalid input exits 2 with an error line, never 1 (a failed
        # check), a traceback or a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("command", [
        ("verify", "--quick"),
        ("tail", "--problem", "hyperplane", "--n", "3")])
    def test_no_workers_rejected_before_any_run(self, command, capsys,
                                                monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ran with --workers 0")

        monkeypatch.setattr(checks, "BATTERY", (refuse,))
        monkeypatch.setattr(montecarlo, "estimate_tail", refuse)
        with pytest.raises(SystemExit) as exc:
            main([*command, "--workers", "0"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_choices_on_the_command_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "xml"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestConfigKeys:
    def test_null_keeps_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAPSMOOTH_SEED", "7")
        path = write_config(tmp_path, {"n": 3, "samples": None,
                                       "seed": None, "center": None})
        args = _parse_args(["sample", "--config", path])
        assert (args.n, args.samples, args.seed, args.center) == (
            3, 100, 7, "random")

    def test_config_does_not_leak(self, tmp_path):
        # set_defaults writes the shared parent actions: a later parse
        # must see the declared defaults again
        path = write_config(tmp_path, {"samples": 10, "seed": 4})
        assert _parse_args(["tail", "--config", path]).samples == 10
        assert _parse_args(["tail"]).samples == 100000
        assert _parse_args(["expect"]).samples == 100000

    @pytest.mark.parametrize("command", ["volumes", "boost-check",
                                         "smoothness", "small-calc"])
    def test_seed_rejected_without_seed_flag(self, command, tmp_path,
                                             capsys):
        path = write_config(tmp_path, {"seed": 3})
        code, out, err = run(capsys, command, "--config", path)
        assert code == 2
        assert out == ""
        assert "'seed'" in err

    @pytest.mark.parametrize("command,key,value", [
        ("tail", "format", "xml"), ("verify", "format", "xml"),
        ("tail", "scale", "bogus"), ("verify", "quick", 1),
        ("tail", "sigma", True), ("tail", "t-min", "nine"),
        ("small-calc", "points", 0), ("boost-check", "rho-steps", 2.5),
        ("sample", "samples", [1]), ("tail", "sigma", {"a": 1}),
        ("verify", "workers", [2]), ("expect", "seed", [3])])
    def test_bad_value(self, command, key, value, tmp_path, capsys):
        path = write_config(tmp_path, {key: value})
        code, _, err = run(capsys, command, "--config", path)
        assert code == 2
        assert err.startswith("error:")
        assert repr(key) in err

    def test_quick_switch(self, tmp_path):
        # parse only: the battery does not run
        path = write_config(tmp_path, {"quick": True})
        via_config = flag_values(_parse_args(["verify", "--config", path]))
        assert via_config == flag_values(_parse_args(["verify", "--quick"]))
        assert via_config["quick"] is True

    def test_dashes_or_underscores(self, tmp_path):
        for key in ("t-steps", "t_steps"):
            path = write_config(tmp_path, {key: 4})
            assert _parse_args(["tail", "--config", path]).t_steps == 4


class TestVerify:
    def test_quick_reports_known_failures(self, capsys, tmp_path):
        out_path = tmp_path / "verify.csv"
        code, _, err = run(capsys, "verify", "--quick", "--seed", "3",
                           "--out", str(out_path))
        # the closed-form lower sandwich bound genuinely fails at
        # sigma = 1, so the battery exits nonzero by design
        assert code == 1
        text = out_path.read_text()
        failing = [l for l in text.splitlines()
                   if l.endswith(",false,true")]
        assert failing
        assert all(l.startswith("delta_eps_sandwich_lower,")
                   for l in failing)
        assert all('sigma=1' in l for l in failing)
        assert "hard failures" in err
        # the JSON report holds the same rows
        json_path = tmp_path / "verify.json"
        code, _, json_err = run(capsys, "verify", "--quick", "--seed", "3",
                                "--format", "json", "--out", str(json_path))
        assert code == 1
        assert json_err == err
        doc = json.loads(json_path.read_text())
        assert doc["schema"] == "capsmooth-verify-v1"
        assert doc["quick"] is True
        assert len(doc["checks"]) == 464
        assert doc["hard_failures"] == 33
        cell = {True: "true", False: "false"}
        assert [",".join([c["check"], '"%s"' % c["params"],
                          "%.17g" % c["lhs"], "%.17g" % c["rhs"],
                          cell[c["passed"]], cell[c["hard"]]])
                for c in doc["checks"]] == text.splitlines()[1:]

    def test_workers_do_not_change_output(self, capsys, tmp_path):
        p1 = tmp_path / "w1.csv"
        p3 = tmp_path / "w3.csv"
        run(capsys, "verify", "--quick", "--seed", "3", "--workers", "1",
            "--out", str(p1))
        run(capsys, "verify", "--quick", "--seed", "3", "--workers", "3",
            "--out", str(p3))
        assert p1.read_bytes() == p3.read_bytes()


def test_entry_point_subprocess(tmp_path, child_env):
    out = tmp_path / "v.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "capsmooth", "volumes", "--n", "3",
         "--sigma", "0.5", "--out", str(out)],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert out.read_text().count("\n") == 2
