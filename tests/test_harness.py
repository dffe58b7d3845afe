import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from robust_stability import harness as hn
from robust_stability import lp
from robust_stability.errors import HypothesisViolatedError, SchemaError, ShapeMismatchError
from robust_stability.geometry import Polytope
from robust_stability.model import RobustProblem, robust_counterpart

from conftest import random_feasible_instance


def toy_problem_dict():
    return {
        "n": 1,
        "cost": [1.0],
        "constraints": [
            {"name": "u", "vertices": [[1.0, 1.0], [2.0, 1.0]]},
            {"name": "box", "vertices": [[-1.0, -10.0]]},
        ],
    }


def toy_config(tmp_path, **extra):
    cfg = {"problem": toy_problem_dict(), "seed": 1, "trials": 4,
           "magnitudes": [1e-3, 1e-4]}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestProblemIO:
    def test_round_trip_bytes(self, rng):
        rp = random_feasible_instance(rng, n=2)
        d = hn.problem_to_dict(rp)
        rp2 = hn.problem_from_dict(json.loads(json.dumps(d)))
        assert hn.report_json(hn.problem_to_dict(rp2)) == hn.report_json(d)

    def test_cost_set_round_trip(self):
        rp = RobustProblem(
            constraint_sets={"u": Polytope([[1.0, 1.0]])},
            cost_set=Polytope([[1.0], [2.0]]),
        )
        d = hn.problem_to_dict(rp)
        rp2 = hn.problem_from_dict(d)
        assert rp2.cost_set is not None
        assert hn.problem_to_dict(rp2) == d

    def test_schema_errors_name_the_constraint(self):
        bad = toy_problem_dict()
        bad["constraints"][0]["vertices"] = [[1.0]]  # wrong width
        with pytest.raises(SchemaError, match="'u'"):
            hn.problem_from_dict(bad)

    def test_schema_rejects_cost_conflicts(self):
        d = toy_problem_dict()
        d["costSet"] = {"vertices": [[1.0]]}
        with pytest.raises(SchemaError, match="cost"):
            hn.problem_from_dict(d)
        del d["costSet"]
        del d["cost"]
        with pytest.raises(SchemaError, match="cost"):
            hn.problem_from_dict(d)

    def test_schema_rejects_duplicates_and_bad_n(self):
        d = toy_problem_dict()
        d["constraints"].append(dict(d["constraints"][0]))
        with pytest.raises(SchemaError, match="duplicate"):
            hn.problem_from_dict(d)
        with pytest.raises(SchemaError, match='"n"'):
            hn.problem_from_dict({"n": 0, "cost": [], "constraints": []})

    def test_load_from_path_and_bad_json(self, tmp_path):
        p = tmp_path / "prob.json"
        p.write_text(json.dumps(toy_problem_dict()))
        rp = hn.load_problem(str(p))
        assert rp.dim == 1
        p.write_text("{not json")
        with pytest.raises(SchemaError, match="invalid JSON"):
            hn.load_problem(str(p))


class TestPerturbations:
    def test_all_kinds_bounded_by_magnitude(self, rng):
        from robust_stability.geometry import hausdorff

        U = Polytope(rng.normal(size=(5, 3)))
        for kind in hn.PERTURBATION_KINDS:
            for mag in (1e-1, 1e-3):
                V = hn._perturb_polytope(U, kind, mag, np.random.default_rng(0))
                assert hausdorff(U, V) <= mag + 1e-9, kind

    def test_trial_rng_counter_mode(self):
        a = hn._trial_rng(7, 3).standard_normal(4)
        b = hn._trial_rng(7, 3).standard_normal(4)
        c = hn._trial_rng(7, 4).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSuites:
    def test_perturbation_suite(self, rng):
        rp = random_feasible_instance(rng, n=2)
        config = hn.ExperimentConfig(seed=3, trials=6, magnitude_schedule=(1e-3, 1e-4))
        reports, summary = hn.run_perturbation_suite(rp, config)
        assert summary["passed"] and summary["trials"] == 6
        assert summary["maxSlope"] <= summary["L"]
        assert all(rep.passed for _, _, rep in reports)

    def test_preflight_rejection(self, rng):
        rp = random_feasible_instance(rng, n=2)
        config = hn.ExperimentConfig(seed=3, trials=2, magnitude_schedule=(50.0,))
        with pytest.raises(HypothesisViolatedError, match="pre-flight"):
            hn.run_perturbation_suite(rp, config)

    def test_convergence_suite_halves(self, rng):
        rp = random_feasible_instance(rng, n=2)
        config = hn.ExperimentConfig(seed=5, trials=12, magnitude_schedule=(1e-2,))
        records = hn.run_convergence_suite(rp, config)
        assert [r.step for r in records] == list(range(1, 13))
        for a, b in zip(records, records[1:]):
            assert b.d_nat == pytest.approx(0.5 * a.d_nat, rel=1e-9)
        assert records[-1].dist_to_fopt <= max(
            1e-7, 1e-3 * max(records[0].dist_to_fopt, 1e-300)
        )

    def test_convergence_suite_on_a_slow_face(self):
        # a reference whose optimal face some Dykstra projection reached only
        # after more than 20,000 sweeps; the distances halve with d_nat
        sets = {
            "u0": [[0.4977984133127603, 0.7445121980090182, -1.8214858112554502],
                   [0.6993769573124038, 0.8164743841740407, -1.7911194555048855]],
            "u1": [[0.3866028227212337, -0.9341985680164346, -0.8480375191155403],
                   [0.5769047031785282, -0.8872071805956154, -0.9763523488203165],
                   [0.6204165538083786, -0.9263671108080188, -1.055356246737283],
                   [0.44616441239257204, -1.0024351129705544, -0.8215123968007371]],
            "lo0": [[1.0, 0.0, -4.0]],
            "hi0": [[-1.0, 0.0, -4.0]],
            "lo1": [[0.0, 1.0, -4.0]],
            "hi1": [[0.0, -1.0, -4.0]],
        }
        rp = RobustProblem(
            constraint_sets={label: Polytope(V) for label, V in sets.items()},
            cost=[1.6096868317882371, 1.8402948816174964],
        )
        config = hn.ExperimentConfig(seed=113, trials=12, magnitude_schedule=(1e-2,))
        dists = [r.dist_to_fopt for r in hn.run_convergence_suite(rp, config)]
        assert dists[0] == pytest.approx(0.0344677442436, abs=1e-9)
        for a, b in zip(dists, dists[1:]):
            assert b == pytest.approx(0.5 * a, rel=1e-2)

    def test_bad_config_values(self):
        with pytest.raises(ValueError):
            hn.ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            hn.ExperimentConfig(perturbation_kind="nope")
        with pytest.raises(ValueError):
            hn.ExperimentConfig(magnitude_schedule=(0.0,))
        with pytest.raises(ValueError, match="empty"):
            hn.ExperimentConfig(magnitude_schedule=())


class TestCoupleProject:
    def test_single_scenario(self):
        rp = hn.couple_project([1.0], [[[1.0, 1.0]]])
        assert set(rp.constraint_sets) == {"row0"}
        assert lp.solve(robust_counterpart(rp).to_lp()).value == pytest.approx(1.0)

    def test_two_scenarios_worst_case(self):
        # x >= 1 or x >= 2 coupled: projected robust value is the worst, 2
        rp = hn.couple_project([1.0], [[[1.0, 1.0]], [[1.0, 2.0]]])
        assert lp.solve(robust_counterpart(rp).to_lp()).value == pytest.approx(2.0)

    def test_matches_scenario_enumeration(self, rng):
        """Projected value >= every single-scenario value (vertex rows are
        exactly the scenario rows, so the counterpart enumerates them)."""
        for _ in range(10):
            n, m, k = 2, 3, 3
            scen = [rng.normal(size=(m, n + 1)) for _ in range(k)]
            for s in scen:
                s[:, -1] = -np.abs(s[:, -1]) - 0.5
            box = np.zeros((2 * n, n + 1))
            for i in range(n):
                box[2 * i, i] = 1.0
                box[2 * i + 1, i] = -1.0
                box[:, -1] = -4.0
            scen = [np.vstack([s, box]) for s in scen]
            cost = rng.normal(size=n)
            rp = hn.couple_project(cost, scen)
            v = lp.solve(robust_counterpart(rp).to_lp())
            if v.status != lp.OPTIMAL:
                continue
            for s in scen:
                single = hn.couple_project(cost, [s])
                r = lp.solve(robust_counterpart(single).to_lp())
                if r.status == lp.OPTIMAL:
                    assert v.value >= r.value - 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            hn.couple_project([1.0], [])
        with pytest.raises(ShapeMismatchError):
            hn.couple_project([1.0], [[[1.0, 1.0]], [[1.0, 1.0], [2.0, 2.0]]])


# the flags each CLI subcommand reads besides --out, which all of them take
READS = {
    "solve": (),
    "slater": (),
    "constants": ("--eps",),
    "perturb": ("--seed", "--trials", "--eps", "--format"),
    "transform-check": ("--seed",),
    "epsopt-check": ("--eps",),
    "converge": ("--seed", "--trials", "--eps"),
}
FLAG_VALUES = {"--seed": "3", "--trials": "2", "--eps": "0.1", "--format": "csv"}


class TestCli:
    def run(self, argv, capsys):
        code = hn.cli(argv)
        out = capsys.readouterr().out
        return code, json.loads(out)

    def problem_file(self, tmp_path):
        p = tmp_path / "prob.json"
        p.write_text(json.dumps(toy_problem_dict()))
        return str(p)

    def test_solve(self, tmp_path, capsys):
        code, rep = self.run(["solve", self.problem_file(tmp_path)], capsys)
        assert code == 0
        assert rep["status"] == "optimal"
        # binding scenario row is x >= 1 (the row 2x >= 1 is slack there)
        assert rep["value"] == pytest.approx(1.0)

    def test_slater(self, tmp_path, capsys):
        code, rep = self.run(["slater", self.problem_file(tmp_path)], capsys)
        assert code == 0
        assert rep["slater"] is True and rep["rho"] > 0

    def test_constants(self, tmp_path, capsys):
        code, rep = self.run(["constants", self.problem_file(tmp_path)], capsys)
        assert code == 0
        c = rep["constants"]
        assert c["L"] > 0 and c["epsilon"] > 0
        assert c["distInfeas"] >= c["distBdSolvable"]

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        code, rep = self.run(
            ["solve", self.problem_file(tmp_path), "--bogus"], capsys
        )
        assert code == 1
        assert rep["error"] == "usage"

    def test_missing_file_exits_1(self, capsys):
        code, rep = self.run(["solve", "/nonexistent/prob.json"], capsys)
        assert code == 1

    def test_schema_error_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 1, "constraints": []}))
        code, rep = self.run(["solve", str(p)], capsys)
        assert code == 1
        assert rep["error"] == "SchemaError"

    @pytest.mark.parametrize("nested", ["problem", "config-problem", "config"])
    def test_deeply_nested_json_exits_1(self, tmp_path, capsys, nested):
        """5,000 nested lists exceed the JSON decoder's recursion limit, as a
        problem file, as the problem file a config names, or as the config."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 5000 + "]" * 5000)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"problem": str(deep)}))
        argv = {
            "problem": ["solve", str(deep)],
            "config-problem": ["perturb", str(config)],
            "config": ["perturb", str(deep)],
        }[nested]
        code = hn.cli(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1
        rep = json.loads(lines[0])
        assert rep["error"] == "SchemaError" and "invalid JSON" in rep["message"]
        assert str(deep) in rep["message"]

    @pytest.mark.parametrize("name", [["a"], {"a": 1}, 1, None])
    def test_non_string_name_exits_1(self, tmp_path, capsys, name):
        data = toy_problem_dict()
        data["constraints"][0]["name"] = name
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        code = hn.cli(["solve", str(p)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1
        rep = json.loads(lines[0])
        assert rep["error"] == "SchemaError" and '"name"' in rep["message"]

    def test_boolean_n_exits_1(self, tmp_path, capsys):
        data = dict(toy_problem_dict(), n=True)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        code = hn.cli(["solve", str(p)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1
        rep = json.loads(lines[0])
        assert rep["error"] == "SchemaError" and '"n"' in rep["message"]

    @pytest.mark.parametrize(
        "entry",
        [
            ("cost", ["1"]),
            ("vertex", [True, "1"]),
            ("vertex", [1.0, 10**400]),
        ],
    )
    def test_non_number_entry_exits_1(self, tmp_path, capsys, entry):
        """Strings, booleans and integers beyond float range are refused, as
        in experiment configs, with one JSON error line."""
        data = toy_problem_dict()
        if entry[0] == "cost":
            data["cost"] = entry[1]
        else:
            data["constraints"][0]["vertices"][0] = entry[1]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        code = hn.cli(["solve", str(p)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1
        rep = json.loads(lines[0])
        assert rep["error"] == "SchemaError" and "non-numeric" in rep["message"]

    def test_perturb_deterministic_output(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        code1, _ = self.run(["perturb", cfg, "--out", str(out1)], capsys)
        code2, _ = self.run(["perturb", cfg, "--out", str(out2)], capsys)
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "out, error",
        [("missing/r.json", "FileNotFoundError"), (".", "IsADirectoryError")],
    )
    def test_unwritable_out_prints_only_the_error(self, tmp_path, capsys, out, error):
        code = hn.cli(["solve", self.problem_file(tmp_path), "--out", str(tmp_path / out)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1
        assert json.loads(lines[0])["error"] == error

    def test_perturb_csv(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        out = tmp_path / "r.csv"
        code, rep = self.run(
            ["perturb", cfg, "--out", str(out), "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",") == list(hn._CSV_COLUMNS)
        assert len(lines) == 1 + rep["summary"]["trials"]

    def test_perturb_seed_flag_overrides(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        _, rep1 = self.run(["perturb", cfg], capsys)
        _, rep2 = self.run(["perturb", cfg, "--seed", "99"], capsys)
        assert rep1["config"]["seed"] == 1
        assert rep2["config"]["seed"] == 99
        assert rep1["trials"] != rep2["trials"]

    def test_transform_check(self, tmp_path, capsys):
        shifted = toy_problem_dict()
        shifted["constraints"][0]["vertices"] = [[1.001, 1.0], [2.001, 1.0]]
        cfg = tmp_path / "tc.json"
        cfg.write_text(
            json.dumps({"problemU": toy_problem_dict(), "problemV": shifted})
        )
        code, rep = self.run(["transform-check", str(cfg)], capsys)
        assert code == 0
        assert rep["passed"] is True
        assert rep["bound"] == pytest.approx(1e-3, abs=1e-9)

    def test_epsopt_check(self, tmp_path, capsys):
        shifted = toy_problem_dict()
        shifted["constraints"][0]["vertices"] = [[1.0, 1.001], [2.0, 1.001]]
        cfg = tmp_path / "ec.json"
        cfg.write_text(
            json.dumps(
                {"problemU": toy_problem_dict(), "problemV": shifted, "eps": 0.1}
            )
        )
        code, rep = self.run(["epsopt-check", str(cfg)], capsys)
        assert code == 0
        assert rep["passed"] is True

    def test_epsopt_check_overflowing_bound_exits_1(self, tmp_path, capsys):
        # r = 1e308 overflows the coefficient; with U == V, inf * d_nat = NaN
        cfg = tmp_path / "ec.json"
        problem = toy_problem_dict()
        cfg.write_text(
            json.dumps({"problemU": problem, "problemV": problem, "eps": 0.1, "r": 1e308})
        )
        code = hn.cli(["epsopt-check", str(cfg)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1
        rep = json.loads(lines[0])
        assert rep["error"] == "NumericalBreakdownError" and "overflows" in rep["message"]

    @pytest.mark.parametrize("r, r0", [(1.0, 2.0), (2.0, 2.0), (None, -1), (None, 0)])
    def test_epsopt_check_r_not_above_r0_exits_1(self, tmp_path, capsys, r, r0):
        """A non-positive r0 is malformed: refused before the nu > -r0 test
        (r0 = -1 used to read as a violated hypothesis)."""
        cfg = tmp_path / "ec.json"
        problem = toy_problem_dict()
        config = {"problemU": problem, "problemV": problem, "eps": 0.1, "r": r, "r0": r0}
        cfg.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
        code = hn.cli(["epsopt-check", str(cfg)])
        assert code == 1
        assert capsys.readouterr().out == '{"error":"ValueError","message":"need r > r0 > 0"}\n'

    def test_converge(self, tmp_path, capsys):
        cfg = toy_config(tmp_path, trials=12, magnitudes=[1e-2])
        code, rep = self.run(["converge", str(cfg)], capsys)
        assert code == 0
        assert rep["converged"] is True
        assert len(rep["records"]) == 12

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, reads in READS.items()
        for flag in FLAG_VALUES if flag not in reads
    ])
    def test_ignored_flag_exits_1(self, tmp_path, capsys, command, flag):
        code = hn.cli([command, self.problem_file(tmp_path), flag, FLAG_VALUES[flag]])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and len(lines) == 1
        rep = json.loads(lines[0])
        assert rep["error"] == "usage" and flag in rep["message"]

    @pytest.mark.parametrize("command", list(READS))
    def test_read_flags_parse(self, command):
        argv = [command, "input.json", "--out", "report.json"]
        for flag in READS[command]:
            argv += [flag, FLAG_VALUES[flag]]
        args = hn._build_parser().parse_args(argv)
        assert args.out == "report.json"

    def test_no_subcommand_exits_1(self, capsys):
        code, rep = self.run([], capsys)
        assert code == 1
        assert rep["error"] == "usage"

    @pytest.mark.parametrize("command", ["perturb", "converge"])
    def test_empty_magnitudes_exit_1(self, tmp_path, capsys, command):
        code, rep = self.run([command, toy_config(tmp_path, magnitudes=[])], capsys)
        assert code == 1
        assert rep["error"] == "SchemaError" and "empty" in rep["message"]

    def test_scalar_magnitudes_exit_1(self, tmp_path, capsys):
        code, rep = self.run(["perturb", toy_config(tmp_path, magnitudes=0.1)], capsys)
        assert code == 1
        assert rep["error"] == "SchemaError" and "magnitudes" in rep["message"]

    def test_transform_check_negative_rho_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "tc.json"
        cfg.write_text(json.dumps(
            {"problemU": toy_problem_dict(), "problemV": toy_problem_dict(), "rho": -1}
        ))
        code, rep = self.run(["transform-check", str(cfg)], capsys)
        assert code == 1
        assert rep["error"] == "ValueError" and "rho" in rep["message"]

    @pytest.mark.parametrize(
        "command, field, value, error",
        [
            ("perturb", "magnitudes", [None], "SchemaError"),
            ("perturb", "trials", None, "SchemaError"),
            ("perturb", "trials", 2.7, "SchemaError"),
            ("converge", "seed", "7", "SchemaError"),
            ("perturb", "epsilon", True, "SchemaError"),
            ("epsopt-check", "eps", None, "SchemaError"),
            ("epsopt-check", "r", [1], "SchemaError"),
            ("transform-check", "rho", 0, "ValueError"),
            ("transform-check", "seed", 1.5, "SchemaError"),
        ],
    )
    def test_bad_field_exits_1(self, tmp_path, capsys, command, field, value, error):
        if command in ("perturb", "converge"):
            cfg = json.loads(Path(toy_config(tmp_path)).read_text())
        else:
            cfg = {"problemU": toy_problem_dict(), "problemV": toy_problem_dict(), "eps": 0.1}
        cfg[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, rep = self.run([command, str(path)], capsys)
        assert code == 1
        assert rep["error"] == error and field in rep["message"]


def test_module_entry_point(tmp_path):
    """python -m robust_stability.harness runs the CLI."""
    root = Path(__file__).resolve().parents[1]
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(toy_problem_dict()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "robust_stability.harness", "solve", str(prob)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["command"] == "solve" and rep["status"] == "optimal"
