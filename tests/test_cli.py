import ast
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from clusterexp import graphs as G
from clusterexp import potentials as P
from clusterexp.cli import main
from clusterexp.verify import combinatorics_suite


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_usage_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def fresh_process(script: str, **env_vars: str) -> str:
    """The last line ``script`` prints in a fresh interpreter that imports this package,
    with ``env_vars`` set and ``OPENBLAS_NUM_THREADS`` not inherited: an in-process
    ``main`` call has set it in this process."""
    path = [str(Path(P.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def modules_loaded_by(argv: str) -> set[str]:
    """The clusterexp modules a fresh process has loaded after running ``argv``."""
    script = ("import contextlib, io, sys\n"
              "from clusterexp import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    assert cli.main({argv.split()!r}) == 0\n"
              "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'clusterexp'))\n")
    return set(ast.literal_eval(fresh_process(script)))


FAMILY_PARAMS = {
    "hard_core": {"a": 0.8},
    "square_well": {"A": 3.0, "R": 1.2, "delta": 0.3},
    "ruelle": {"R": 1.5, "delta": 0.2},
    "lj_type": {"c1": 2.0, "c2": 0.5, "eps": 0.7, "a": 0.9},
    "lennard_jones": {"epsilon": 1.5, "sigma": 0.8},
}


class TestGraphsCommand:
    def test_counts(self, capsys):
        code, data = run_json(capsys, ["graphs", "count", "--n", "4"])
        assert code == 0
        assert data["connected"] == 38
        assert data["alternating_sum"] == -6
        assert data["schema"] == "clusterexp/1"

    def test_scheme_verification(self, capsys):
        code, data = run_json(capsys, ["graphs", "verify-scheme", "--n", "4",
                                       "--scheme", "kruskal", "--seed", "3"])
        assert code == 0 and data["ok"] is True
        assert data["seed"] == 3


class TestUrsellCommand:
    def test_hardcore_triangle(self, capsys):
        code, data = run_json(capsys, ["ursell", "--matrix", "3; 0 1 inf; 0 2 inf; 1 2 inf"])
        assert code == 0
        assert data["graph_sum"] == 2.0
        assert data["max_relative_spread"] == 0.0


class TestPotentialsCommand:
    def test_eval(self, capsys):
        code, data = run_json(capsys, ["potentials", "eval", "--family", "ruelle",
                                       "--params", "R=1.0", "delta=0.3", "--r", "0.5"])
        assert code == 0 and data["value"] == 11.0

    def test_stability_echoes_seed(self, capsys):
        code, data = run_json(capsys, ["potentials", "stability", "--family", "hard_core",
                                       "--params", "a=1.0", "--n", "4", "--seed", "9"])
        assert code == 0 and data["seed"] == 9 and data["estimate"] == 0.0

    def test_fcc(self, capsys):
        code, data = run_json(capsys, ["potentials", "fcc", "--shells", "1"])
        assert code == 0 and data["n"] == 13 and data["bond_count"] == 36

    @pytest.mark.parametrize("params", [["c1=1", "c2=1", "eps=1", "a=1"], ["eps=2"], ["c2=0.1"]],
                             ids=["defaults", "eps2", "weak-tail"])
    def test_lj_type_integrals_converge_without_warnings(self, capsys, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["potentials", "integrals", "--family", "lj_type", "--params", *params,
                         "--beta", "0.7"])
        assert code == 0 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("params", [["c1=-1", "c2=1"], ["c1=1", "c2=-1", "eps=2"]],
                             ids=["attractive-core", "repulsive-tail"])
    def test_lj_type_integrals_of_either_sign(self, capsys, params):
        code, data = run_json(capsys, ["potentials", "integrals", "--family", "lj_type",
                                       "--params", *params, "--beta", "0.7"])
        assert code == 0 and 0 < data["c_tilde"] < math.inf
        assert data["c"] == ("inf" if params[0] == "c1=-1" else data["c_tilde"])

    @pytest.mark.parametrize("explicit", [False, True], ids=["default", "explicit"])
    @pytest.mark.parametrize("family", list(FAMILY_PARAMS))
    def test_every_route_builds_the_constructor_spec(self, capsys, tmp_path, family, explicit):
        params = FAMILY_PARAMS[family] if explicit else {}
        spec = getattr(P, family)(**params)
        assert P.build_spec(family, params) == spec
        assert P.spec_from_text(spec.to_text()) == spec
        flags = ["--params", *(f"{k}={v!r}" for k, v in params.items())] if params else []
        code, data = run_json(capsys, ["potentials", "eval", "--family", family, *flags])
        echoed = dict(data["spec"])
        assert code == 0 and (echoed.pop("family"), echoed.pop("dimension")) == (family, 3)
        assert P.build_spec(family, echoed) == spec
        path = tmp_path / "spec.txt"
        path.write_text(spec.to_text())
        assert run_json(capsys, ["potentials", "eval", "--spec-file", str(path)]) == (0, data)

    def test_step_table_spec_file_round_trip(self, capsys, tmp_path):
        spec = P.step_table((0.5, 1.0), (-2.0, 1.0))
        path = tmp_path / "step.spec"
        path.write_text(spec.to_text())
        code, data = run_json(capsys, ["potentials", "eval", "--spec-file", str(path), "--r", "0.7"])
        echoed = data["spec"]
        family, dimension = echoed.pop("family"), echoed.pop("dimension")
        assert code == 0 and data["value"] == 1.0
        assert P.build_spec(family, echoed, dimension) == spec

    def test_spec_file_with_family_only_takes_the_defaults(self, capsys, tmp_path):
        path = tmp_path / "hc.spec"
        path.write_text("family = hard_core\n")
        code, from_file = run_json(capsys, ["potentials", "eval", "--spec-file", str(path)])
        _, from_flag = run_json(capsys, ["potentials", "eval", "--family", "hard_core"])
        assert code == 0 and from_file == from_flag
        assert from_file["spec"] == {"family": "hard_core", "dimension": 3, "a": 1.0}

    @pytest.mark.parametrize("text,message", [
        ("a = 1\n", "no 'family' line"),
        ("family = custom\n", "unknown family 'custom'"),
        ("family = ruelle\nR = 1\ndelta = 2\n", "need 0 < delta < R"),
        ("family = hard_core\nradius = 2\n", "unknown parameter 'radius'"),
        ("family = hard_core\na\n", "'a' is not of the form key = value"),
    ], ids=["no-family", "custom", "ruelle-delta", "unknown-param", "no-equals"])
    def test_spec_file_refusals(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.spec"
        path.write_text(text)
        assert_usage_error(capsys, ["potentials", "eval", "--spec-file", str(path)], message)

    @pytest.mark.parametrize("flags", [["--family", "ruelle"], ["--params", "R=3"],
                                       ["--params"], ["--dimension", "2"]],
                             ids=["family", "params", "empty-params", "dimension"])
    def test_spec_file_excludes_the_spec_flags(self, capsys, tmp_path, flags):
        path = tmp_path / "hc.spec"
        path.write_text("family = hard_core\n")
        assert_usage_error(capsys, ["potentials", "eval", "--spec-file", str(path), *flags],
                           f"--spec-file excludes {flags[0]}")


class TestMayerCommand:
    def test_coefficient_csv_columns(self, capsys):
        code = main(["mayer", "coefficients", "--grid", "2x2", "--family", "hard_core",
                     "--params", "a=1.0", "--n-max", "3", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["n"] for r in rows] == ["1", "2", "3"]
        assert set(rows[0].keys()) == {"n", "C_n", "PR", "PY", "Basuev"}
        assert float(rows[1]["C_n"]) == -1.5

    def test_virial(self, capsys):
        code, data = run_json(capsys, ["mayer", "virial", "--beta", "1.0",
                                       "--Bbar", "0.5", "--Ctilde", "0.3"])
        assert code == 0
        assert data["max_value"] == pytest.approx(0.144767, abs=1e-6)


class TestPolymerCommand:
    def test_domino_criteria(self, capsys):
        code, data = run_json(capsys, ["polymer", "criteria", "--model", "domino"])
        assert code == 0
        assert data["kp"]["radius"] == pytest.approx(1 / (7 * math.e), rel=1e-6)
        assert data["dob"]["radius"] == pytest.approx(0.0566527, rel=1e-5)
        assert data["fp"]["radius"] == pytest.approx(1 / 13, rel=1e-6)

    def test_large_neighborhood_criteria(self, capsys):
        # the mu grid reaches e^(24 * 30), past the largest float
        code, data = run_json(capsys, ["polymer", "criteria", "--model", "delta:23"])
        assert code == 0
        assert data["kp"]["radius"] == pytest.approx(1 / (24 * math.e), rel=1e-8)

    def test_fp_says_whether_it_is_exact(self, capsys):
        code, data = run_json(capsys, ["polymer", "criteria", "--model", "domino"])
        assert code == 0 and data["fp"]["exact"] is True
        assert "exact" not in data["kp"] and "exact" not in data["dob"]
        # 1001 polymers pass the region cap: fp is the product bound, equal to dob
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the product overflows on the mu grid
            code, data = run_json(capsys, ["polymer", "criteria", "--model", "delta:1000"])
        assert code == 0 and data["fp"]["exact"] is False
        assert data["fp"]["radius"] == data["dob"]["radius"]

    def test_subset_check_exit_zero(self, capsys):
        code, data = run_json(capsys, ["polymer", "subset-check", "--vertices", "6",
                                       "--seed", "4"])
        assert code == 0 and data["induction_verified"] is True

    def test_catalog(self, capsys):
        code, data = run_json(capsys, ["polymer", "catalog", "--which", "beg_disordered",
                                       "--params", "d=3", "X=10", "Y=1"])
        assert code == 0
        assert data["threshold"] == pytest.approx(math.log(3 * 2**13) / 4, rel=1e-12)


class TestIsingCommand:
    def test_z_rows(self, capsys):
        code, data = run_json(capsys, ["ising", "z", "--L", "3", "--beta", "0.3"])
        assert code == 0
        row = data["rows"][0]
        assert row["highT_rel_err"] < 1e-12
        assert row["lowT_rel_err"] < 1e-12

    def test_empty_z_csv_is_header_only(self, capsys):
        assert main(["ising", "z", "--L", "3", "--beta", "0.3", "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert main(["ising", "z", "--L", "3", "--beta", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == [header]

    def test_duality(self, capsys):
        code, data = run_json(capsys, ["ising", "duality", "--L", "4", "--beta", "0.3"])
        assert code == 0 and data["xi_equal"] is True
        assert data["beta_c"] == pytest.approx(0.4406868, abs=1e-6)

    def test_thresholds(self, capsys):
        code, data = run_json(capsys, ["ising", "thresholds"])
        assert code == 0
        assert data["animal_counts"]["4"] == 4


class TestHardsphereCommand:
    def test_gtilde_reproducible(self, capsys):
        _, a = run_json(capsys, ["hardsphere", "gtilde", "--d", "2", "--k", "3",
                                 "--samples", "50000", "--seed", "7"])
        _, b = run_json(capsys, ["hardsphere", "gtilde", "--d", "2", "--k", "3",
                                 "--samples", "50000", "--seed", "7"])
        assert a["estimate"] == b["estimate"]
        assert a["seed"] == 7

    def test_radius(self, capsys):
        code, data = run_json(capsys, ["hardsphere", "radius"])
        assert code == 0 and data["coefficient"] >= 0.5107


class TestVerifyCommand:
    def test_identities_pass(self, capsys):
        code, data = run_json(capsys, ["verify", "--suite", "identities",
                                       "--max-n", "4", "--trials", "8"])
        assert code == 0 and data["ok"] is True

    def test_jobs_do_not_change_rows(self, capsys):
        argv = ["verify", "--suite", "identities", "--max-n", "4", "--trials", "10", "--seed", "5"]
        _, one = run_json(capsys, argv + ["--jobs", "1"])
        _, three = run_json(capsys, argv + ["--jobs", "3"])
        assert one["rows"] == three["rows"]
        assert (one["jobs"], three["jobs"]) == (1, 3)
        assert "over 10 random matrices" in one["rows"][0]["detail"]

    def test_combinatorics_pass(self, capsys):
        code, data = run_json(capsys, ["verify", "--suite", "combinatorics", "--max-n", "4"])
        assert code == 0 and data["ok"] is True

    # a repeated tree, and the triangle 0-1-2 beside vertex 3: n - 1 edges, not a tree
    @pytest.mark.parametrize("bad_mask", [None, 0b1011], ids=["duplicate", "disconnected"])
    def test_cayley_check_sees_a_broken_table(self, monkeypatch, bad_mask):
        G.penrose_added(4)  # cached from the true table
        true_table = G.tree_table
        mask = true_table(4).mask.copy()
        mask[1] = mask[0] if bad_mask is None else bad_mask
        broken = dataclasses.replace(true_table(4), mask=mask)
        monkeypatch.setattr(G, "tree_table", lambda n: broken if n == 4 else true_table(n))
        rows = {r.name: r for r in combinatorics_suite(max_n=4)}
        assert rows["cayley-count-n3"].ok and not rows["cayley-count-n4"].ok


class TestHarness:
    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["graphs", "count", "--n", "9"], "cap is 7"),
        (["ursell", "--matrix", "2; 0 1 nan"], "NaN"),
        (["ursell", "--matrix", "2; 0 5 1.0"], "not a pair"),
        (["ursell", "--matrix", "2; 0 1 1", "--format", "csv"], "no tabular form"),
        (["ursell"], "need --matrix"),
        (["polymer", "criteria", "--model", "hexagon"], "unknown model"),
        (["ursell", "--matrix", "2; 0 1 -inf"], "-inf"),
        (["ursell", "--matrix", "7; " + "; ".join(f"{i} {j} -40" for i in range(7)
                                                 for j in range(i + 1, 7))], "overflows"),
        (["mayer", "coefficients", "--grid", "8x8", "--params", "a=20", "--n-max", "16"],
         "frontier states"),
        (["mayer", "coefficients", "--family", "square_well", "--params", "A=inf", "R=0.5",
          "delta=1", "--beta", "800", "--n-max", "3"], "overflows"),
        (["hardsphere", "gtilde", "--samples", "0", "--k", "3"], "samples >= 1"),
        (["mayer", "virial", "--Ctilde", "0"], "Ctilde > 0"),
        (["ising", "z", "--L", "0"], "L >= 1"),
        (["ising", "magnetization", "--L", "0"], "L >= 1"),
        (["polymer", "subset-check", "--polymers", "0"], "n_polymers"),
        (["potentials", "ruelle-ratios", "--s-max", "2"], "s_max >= 4"),
        (["polymer", "catalog", "--which", "israel"], "missing parameter 'I_a'"),
        (["polymer", "catalog", "--which", "israel", "--params", "I_a=1", "I_bar=1", "a=1",
          "zz=2"], "unknown parameter 'zz'"),
        (["potentials", "eval", "--family", "hard_core", "--params", "radius=2"],
         "unknown parameter 'radius'"),
        (["potentials", "eval", "--family", "ruelle", "--params", "R=1", "delta=2"],
         "need 0 < delta < R"),
        (["potentials", "eval", "--params", "A"], "'A' is not of the form key = value"),
        (["potentials", "eval", "--spec-file", "no-such-dir/p.spec"], "cannot open"),
        (["ursell", "--matrix-file", "no-such-dir/m.txt"], "cannot open"),
        (["polymer", "partition", "--system-file", "no-such-dir/s.txt"], "cannot open"),
        (["graphs", "count", "--n", "3", "--output", "no-such-dir/out.json"], "cannot open"),
        (["graphs", "count", "--n", "8"], "cap is 7"),
        (["ising", "z", "--L", "7"], "capped at L=6"),
        (["potentials", "eval", "--params", "a=nan"], "a must be a positive finite length"),
        (["potentials", "integrals", "--family", "lennard_jones", "--params", "sigma=-1"],
         "sigma must be a positive finite length"),
        (["potentials", "stability", "--family", "square_well", "--params", "R=-1", "delta=-1"],
         "R must be a positive finite length"),
        (["potentials", "eval", "--family", "lj_type", "--params", "a=-1"],
         "a must be a positive finite length"),
        (["potentials", "eval", "--family", "square_well", "--params", "A=nan"],
         "A must be a number"),
        (["potentials", "integrals", "--family", "lj_type", "--params", "c2=5", "eps=3", "a=0.5",
          "--beta", "3"], "overflows a float"),
        (["ising", "duality", "--L", "0"], "need L >= 1"),
        (["ising", "duality", "--L", "-3"], "need L >= 1"),
        (["mayer", "coefficients", "--grid", "3"], "--grid '3' is not of the form WxH"),
        (["mayer", "coefficients", "--grid", "3x"], "--grid '3x' is not of the form WxH"),
        (["mayer", "coefficients", "--grid", "2x2x2"], "--grid '2x2x2' is not of the form WxH"),
        (["ursell", "--matrix", "3; 0 1"], "'0 1' is not of the form i j v"),
        (["ursell", "--matrix", "3; 0 1 1 2"], "'0 1 1 2' is not of the form i j v"),
        (["ursell", "--matrix", "x; 0 1 1"], "'x' is not a vertex count"),
        (["ursell", "--matrix", ";"], "'' is not a vertex count"),
        (["polymer", "subset-check", "--vertices", "0"], "--vertices must be at least 1"),
        (["verify", "--jobs", "0"], "--jobs must be at least 1"),
        (["verify", "--jobs", "-3"], "--jobs must be at least 1"),
        (["polymer", "subset-check", "--max-size", "0"], "--max-size must be at least 1"),
        (["hardsphere", "gtilde", "--seed", "-1"], "got seed -1"),
        (["ising", "z", "--L", "0", "--beta"], "need L >= 1"),
        (["ising", "z", "--L", "40", "--beta"], "even-subgraph enumeration capped at L=6"),
        (["mayer", "virial", "--beta", "nan"], "--beta must be a number, got nan"),
        (["mayer", "virial", "--Bbar", "nan"], "--Bbar must be a number, got nan"),
        (["mayer", "virial", "--Ctilde", "nan"], "--Ctilde must be a number, got nan"),
        (["mayer", "virial", "--beta", "1000", "--Bbar", "1"], "not a finite float"),
        (["mayer", "virial", "--beta", "-1000", "--Bbar", "1"], "not a finite float"),
        (["mayer", "virial", "--beta", "inf", "--Bbar", "0"], "not a finite float"),
        (["ising", "z", "--L", "3", "--beta", "nan"], "--beta must be a number, got nan"),
        (["ising", "z", "--L", "3", "--beta", "0.3", "nan"], "--beta must be a number, got nan"),
        (["ising", "magnetization", "--L", "3", "--beta", "nan"],
         "--beta must be a number, got nan"),
        (["mayer", "ks", "--beta", "1000", "--B", "1"], "past the float range"),
        (["mayer", "ks", "--C", "1e300", "--m-max", "40"], "past the float range"),
        (["mayer", "ks", "--beta=-1000", "--B", "1"], "past the float range"),
        (["mayer", "radii", "--beta=-1000", "--B", "1"], "past the float range"),
        (["polymer", "catalog", "--which", "nbody_lattice_gas", "--params", "z=1", "beta=1000",
          "J=1"], "past the float range"),
        (["hardsphere", "volume", "--n", "400", "--r", "10"], "past the float range"),
        (["mayer", "radii", "--beta", "inf"], "beta B = nan is not a finite float"),
        (["mayer", "ks", "--beta", "inf"], "beta B = nan is not a finite float"),
        (["polymer", "criteria", "--model", "delta:-3"], "need Delta >= 0, got -3"),
        (["polymer", "criteria", "--model", "delta:x"], "model 'delta:x' is not of the form"),
    ])
    def test_invalid_input_exit_2_one_line(self, capsys, argv, message):
        assert_usage_error(capsys, argv, message)

    def test_malformed_system_file_line_exit_2_one_line(self, capsys, tmp_path):
        path = tmp_path / "bad.sys"
        path.write_text("a ; b ; 0.5\nb ; a\n")
        assert_usage_error(capsys, ["polymer", "partition", "--system-file", str(path)],
                           "'b ; a' is not of the form id ; neighbors ; activity")

    @pytest.mark.parametrize("argv", [
        ["--L", "4", "--beta", "30"],
        ["--L", "3", "--beta", "60"],
        ["--L", "5", "--beta", "18.5"],
        ["--L", "4", "--beta", "0.3", "-30"],
        ["--L", "3", "--beta", "inf"],
        ["--L", "2", "--beta=-inf"],
    ])
    def test_ising_z_past_the_float_range_is_refused(self, capsys, argv):
        assert_usage_error(capsys, ["ising", "z"] + argv, "Z is past the largest float")

    @pytest.mark.parametrize("L,beta", [("4", "-17.7"), ("3", "-15"), ("5", "-6")])
    def test_ising_z_contour_sum_past_the_float_range_is_refused(self, capsys, L, beta):
        # for beta < 0 the contour sum's e^(-2 beta k) passes the largest
        # float at half the |beta| of Z itself
        assert_usage_error(capsys, ["ising", "z", "--L", L, "--beta", beta],
                           "the contour sum Xi is past the largest float")

    @pytest.mark.parametrize("beta", ["-8.8", "17.7"])
    def test_ising_z_just_inside_the_float_range_is_finite(self, capsys, beta):
        code, data = run_json(capsys, ["ising", "z", "--L", "4", "--beta", beta])
        assert code == 0
        row, = data["rows"]
        assert all(math.isfinite(v) for v in row.values() if not isinstance(v, str))

    @pytest.mark.parametrize("argv", [
        ["--L", "4", "--beta", "30"],
        ["--L", "4", "--beta", "-30", "--boundary", "plus"],
        ["--L", "3", "--beta", "inf"],
        ["--L", "3", "--beta=-inf"],
    ])
    def test_ising_magnetization_past_the_float_range_is_refused(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_usage_error(capsys, ["ising", "magnetization"] + argv,
                               "Z is past the largest float")

    @pytest.mark.parametrize("matrix", [
        "4; 0 1 -300; 0 2 -300; 0 3 0; 1 2 -200; 1 3 0.5; 2 3 -300",  # inf - inf in the sum
        "3; 0 1 -800; 0 2 1; 1 2 1",  # e^800 - 1 is past the largest float
    ])
    def test_ursell_overflow_is_refused(self, capsys, matrix):
        assert_usage_error(capsys, ["ursell", "--matrix", matrix],
                           "the Ursell coefficient overflows a float")

    def test_ursell_size_errors_keep_their_message(self, capsys):
        assert_usage_error(capsys, ["ursell", "--matrix", "0"], "need n >= 1")
        assert_usage_error(capsys, ["ursell", "--matrix", "8; 0 1 1"], "cap is 7")

    def test_ursell_other_route_errors_keep_their_message(self, capsys, monkeypatch):
        from clusterexp import ursell

        def refuse(V):
            raise ValueError("a route's own message")

        monkeypatch.setattr(ursell, "ursell_partition_formula", refuse)
        assert_usage_error(capsys, ["ursell", "--matrix", "3; 0 1 1; 0 2 1; 1 2 1"],
                           "a route's own message")

    @pytest.mark.parametrize("family", ["nope", "step_table"])
    def test_family_outside_the_flag_families_is_a_usage_error(self, capsys, family):
        with pytest.raises(SystemExit) as exc:
            main(["mayer", "virial", "--family", family])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument --family: invalid choice: {family!r}" in err
        assert all(repr(f) in err for f in P.FAMILIES if f != "step_table")

    def test_graphs_count_loads_only_graphs(self):
        assert modules_loaded_by("graphs count --n 6") == {"clusterexp", "clusterexp.cli",
                                                           "clusterexp.graphs"}

    def test_ising_z_and_gtilde_load_no_unrelated_module(self):
        unrelated = {f"clusterexp.{m}" for m in ("mayer", "polymer", "ursell", "hardsphere")}
        assert not modules_loaded_by("ising z --L 3") & unrelated
        assert "clusterexp.graphs" not in modules_loaded_by("hardsphere gtilde --samples 1000")

    def test_duality_and_polymer_criteria_load_no_mayer(self):
        # bisect_root and grid_max live in the leaf module numerics, so these
        # commands pay for neither mayer nor potentials
        assert not modules_loaded_by("ising duality --L 4 --beta 0.3") & {
            "clusterexp.mayer", "clusterexp.potentials"}
        assert "clusterexp.mayer" not in modules_loaded_by("polymer criteria --model domino")

    def test_commands_without_exact_series_do_not_import_decimal(self):
        # fractions imports decimal, about 0.4 MiB; numerics imports it only in Series.log
        script = ("import contextlib, io, sys\n"
                  "from clusterexp import cli\n"
                  "for argv in ('ising duality --L 4 --beta 0.3', 'hardsphere gtilde --samples 1000'):\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        assert cli.main(argv.split()) == 0, argv\n"
                  "print('decimal' in sys.modules)\n")
        assert fresh_process(script) == "False"

    def test_bare_import_and_version_load_no_submodule_and_no_numpy(self):
        script = ("import sys\n"
                  "import clusterexp\n"
                  "bare = sorted(m for m in sys.modules if m.partition('.')[0] == 'clusterexp')\n"
                  "from clusterexp import cli\n"
                  "try:\n"
                  "    cli.main(['--version'])\n"
                  "except SystemExit:\n"
                  "    pass\n"
                  "print(bare, 'numpy' in sys.modules)\n")
        assert fresh_process(script) == "['clusterexp'] False"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_a_command_runs_blas_on_one_thread_unless_the_user_chose(self):
        # OpenBLAS would start a worker thread on load that no command uses
        script = ("import contextlib, io, os\n"
                  "from clusterexp import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    assert cli.main(['graphs', 'count', '--n', '4']) == 0\n"
                  "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n")
        assert fresh_process(script) == "1 1"
        assert fresh_process(script, OPENBLAS_NUM_THREADS="2").split()[1] == "2"

    def test_the_library_sets_no_blas_thread_count(self):
        script = ("import os\n"
                  "from clusterexp import ursell\n"
                  "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
        assert fresh_process(script) == "None"

    def test_cli_imports_only_cheap_modules_at_the_top(self):
        # the --version start-up pays for every top-level import; the rest
        # is imported by the handler that needs it
        tree = ast.parse(Path(main.__code__.co_filename).read_text())
        imports = set()
        for node in (n for stmt in tree.body if not isinstance(stmt, ast.FunctionDef)
                     for n in ast.walk(stmt)):
            if isinstance(node, ast.Import):
                imports.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imports.update(f"{'.' * node.level}{node.module or ''}:{alias.name}"
                               for alias in node.names)
        assert imports <= {"argparse", "csv", "json", "math", "os", "sys", ".:__version__"}

    def test_commands_without_quadrature_do_not_import_scipy(self):
        script = ("import sys\n"
                  "from clusterexp import cli\n"
                  "for argv in ('potentials stability --family square_well --params A=5 R=1 "
                  "delta=0.5 --n 6', 'potentials fcc --shells 10', 'ising duality --L 5 --beta 0.3', "
                  "'mayer virial --beta 1 --Bbar 0.5 --Ctilde 0.3'):\n"
                  "    assert cli.main(argv.split()) == 0, argv\n"
                  "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
        assert fresh_process(script) == "[]"

    def test_scheme_and_verify_commands_do_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, which keeps about 1 MiB
        script = ("import sys\n"
                  "from clusterexp import cli\n"
                  "for argv in ('graphs verify-scheme --n 5', 'verify --max-n 5'):\n"
                  "    assert cli.main(argv.split()) == 0, argv\n"
                  "print('numpy.ma' in sys.modules)\n")
        assert fresh_process(script) == "False"

    def test_empty_csv_is_header_only(self, capsys):
        assert main(["verify", "--max-n", "1", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == ["check,ok,detail"]

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "artifact.json"
        code = main(["graphs", "count", "--n", "3", "--format", "json",
                     "--output", str(path)])
        assert code == 0
        data = json.loads(path.read_text())
        assert data["connected"] == 4

    def test_floats_emitted_with_17_digits(self, capsys):
        main(["mayer", "virial", "--beta", "1.0", "--Bbar", "0.5", "--Ctilde", "0.3",
              "--format", "json"])
        out = capsys.readouterr().out
        val = json.loads(out)["max_value"]
        assert val == float(format(0.14476699807000784, ".17g"))
