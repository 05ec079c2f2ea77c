"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.data.database import database
from repro.io.json_io import save_database
from repro.workloads.figures import fig5_databases


@pytest.fixture
def db_path(tmp_path):
    db = database(
        {"R": 2, "S": 1},
        R=[(1, 7), (1, 8), (2, 7)],
        S=[(7,), (8,)],
    )
    path = tmp_path / "db.json"
    save_database(db, path)
    return str(path)


@pytest.fixture
def fig5_paths(tmp_path):
    a, b = fig5_databases()
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_database(a, path_a)
    save_database(b, path_b)
    return str(path_a), str(path_b)


class TestEval:
    def test_eval(self, db_path, capsys):
        assert main(["eval", "-d", db_path, "project[1](R)"]) == 0
        out = capsys.readouterr().out
        assert "1" in out and "2" in out

    def test_eval_semijoin(self, db_path, capsys):
        assert main(["eval", "-d", db_path, "R semijoin[2=1] S"]) == 0
        assert "7" in capsys.readouterr().out


class TestEvalEngine:
    def test_eval_engine_and_structural_agree(self, db_path, capsys):
        assert main(["eval", "-d", db_path, "R join[2=1] S"]) == 0
        engine_out = capsys.readouterr().out
        assert (
            main(["eval", "-d", db_path, "--no-engine", "R join[2=1] S"])
            == 0
        )
        assert capsys.readouterr().out == engine_out


class TestSessionFlags:
    """The shared session flags, applied uniformly to eval/explain/divide."""

    def test_eval_stats_reports_estimates_and_in_flight(self, db_path, capsys):
        assert (
            main(["eval", "-d", db_path, "--stats", "R join[2=1] S"]) == 0
        )
        err = capsys.readouterr().err
        assert "max in flight" in err
        assert "result cache" in err
        assert "ub=" in err  # estimated-vs-actual per operator

    @pytest.mark.parametrize(
        "flag", ["--partition-budget=1000", "--no-multiway"]
    )
    def test_planner_flags_accepted_uniformly(self, db_path, flag, capsys):
        for argv in (
            ["eval", "-d", db_path, flag, "R join[2=1] S"],
            ["explain", "-d", db_path, flag, "R join[2=1] S"],
            ["divide", "-d", db_path, flag],
        ):
            assert main(argv) == 0, argv
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag", [["--max-workers", "2"], ["--backend", "shm"]]
    )
    def test_pool_and_storage_are_not_flags(self, db_path, flag, capsys):
        # A CLI session plans serially in memory; the pool and the
        # storage kind are options of Session and Server only.
        for argv in (
            ["eval", "-d", db_path, *flag, "R join[2=1] S"],
            ["explain", "-d", db_path, *flag, "R join[2=1] S"],
            ["divide", "-d", db_path, *flag],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_session_is_serial_and_in_memory(
        self, db_path, monkeypatch, capsys
    ):
        import repro.session

        opened = []

        class Recording(repro.session.Session):
            def __init__(self, db, **kwargs):
                super().__init__(db, **kwargs)
                opened.append(
                    (self.executor.backend.kind, self.options.max_workers)
                )

        monkeypatch.setattr(repro.session, "Session", Recording)
        budget = ["--partition-budget", "1000"]
        for argv in (
            ["eval", "-d", db_path, *budget, "R join[2=1] S"],
            ["explain", "-d", db_path, *budget, "R join[2=1] S"],
            ["divide", "-d", db_path, *budget],
        ):
            assert main(argv) == 0, argv
        assert opened == [("memory", 1)] * 3
        capsys.readouterr()

    def test_without_statistics_explain_plans_structurally(
        self, tmp_path, capsys
    ):
        # Both plan the hash join (operator choice is structural), but
        # only the database's statistics certify a bound: one S row
        # caps the join at one row; schema-only planning prints ub=?.
        path = str(tmp_path / "tiny.json")
        save_database(
            database({"R": 2, "S": 1}, R=[(1, 7), (2, 8)], S=[(7,)]), path
        )
        assert main(["explain", "--costs", "-d", path, "R join[2=1] S"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("HashJoin") and "ub=1 " in first
        argv = ["explain", "--costs", "--schema", "R:2,S:1", "R join[2=1] S"]
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("HashJoin") and "ub=? " in first

    def test_no_costs_is_not_a_flag(self, db_path, capsys):
        # Statistics decide cost-based planning; no flag switches it.
        with pytest.raises(SystemExit) as exit_info:
            main(["explain", "-d", db_path, "--no-costs", "R join[2=1] S"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-costs" in (
            capsys.readouterr().err
        )

    def test_engine_flags_rejected_with_no_engine(self, db_path, capsys):
        for extra in (
            ["--stats"],
            ["--no-multiway"],
            ["--partition-budget", "5"],
        ):
            code = main(
                ["eval", "-d", db_path, "--no-engine", *extra,
                 "R join[2=1] S"]
            )
            assert code == 2, extra
            assert "--no-engine" in capsys.readouterr().err

    def test_optimize_takes_no_session_flags(self, db_path, capsys):
        assert (
            main(
                ["optimize", "-d", db_path, "--ascii",
                 "project[1,2](R join[2=1] S)"]
            )
            == 0
        )
        assert "semijoin" in capsys.readouterr().out
        # optimize runs algebra.optimize, which reads no planner option.
        for flag in ("--no-multiway", "--backend", "--partition-budget"):
            with pytest.raises(SystemExit) as exit_info:
                main(["optimize", "-d", db_path, flag, "project[1](R)"])
            assert exit_info.value.code == 2, flag
            assert "unrecognized arguments" in capsys.readouterr().err


class TestExplain:
    def test_explain_with_schema(self, capsys):
        code = main(
            [
                "explain",
                "--schema",
                "R:2,S:1",
                "project[1](R) minus project[1]((project[1](R) join[] S)"
                " minus R)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Division[hash" in out
        assert " :: " in out

    def test_explain_with_database_reports_stats(self, db_path, capsys):
        code = main(["explain", "-d", db_path, "R join[2=1] S"])
        assert code == 0
        captured = capsys.readouterr()
        assert "HashJoin" in captured.out
        assert "max intermediate" in captured.err

    def test_explain_analyze(self, capsys):
        code = main(
            ["explain", "--schema", "R:2,S:1", "--analyze", "R cartesian S"]
        )
        assert code == 0
        assert "dichotomy: quadratic" in capsys.readouterr().out

    def test_explain_needs_schema_or_db(self, capsys):
        assert main(["explain", "R cartesian S"]) == 2
        assert "error" in capsys.readouterr().err


class TestTrace:
    def test_trace_reports_sizes(self, db_path, capsys):
        assert (
            main(["trace", "-d", db_path, "project[1](R) cartesian S"]) == 0
        )
        out = capsys.readouterr().out
        assert "|D| = 5" in out


class TestClassify:
    def test_classify_with_schema(self, capsys):
        assert (
            main(["classify", "--schema", "R:2,S:1", "R cartesian S"]) == 0
        )
        assert "quadratic" in capsys.readouterr().out

    def test_classify_linear(self, capsys):
        assert (
            main(["classify", "--schema", "R:2,S:1", "R join[2=1] S"]) == 0
        )
        assert "linear" in capsys.readouterr().out

    def test_classify_needs_schema_or_db(self, capsys):
        assert main(["classify", "R cartesian S"]) == 2
        assert "error" in capsys.readouterr().err


class TestCompile:
    def test_compile(self, capsys):
        assert (
            main(
                [
                    "compile",
                    "--schema",
                    "R:2,S:1",
                    "--ascii",
                    "R join[2=1] S",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "semijoin" in out
        assert "join[" not in out.replace("semijoin[", "")


class TestDivide:
    def test_divide_default(self, db_path, capsys):
        assert main(["divide", "-d", db_path]) == 0
        out = capsys.readouterr().out
        assert "1" in out and "2" not in out.splitlines()

    @pytest.mark.parametrize(
        "algorithm",
        ["reference", "hash", "counting", "sort_merge", "engine"],
    )
    def test_divide_algorithms(self, db_path, algorithm, capsys):
        assert (
            main(["divide", "-d", db_path, "--algorithm", algorithm]) == 0
        )
        assert "1" in capsys.readouterr().out


class TestDivideValidationUniformity:
    """Regression: dividend validation must not depend on the algorithm.

    The CLI used to validate operands data-driven on the direct paths
    (an *empty* ternary dividend passed vacuously) but shape-driven on
    the engine path (always rejected) — the session front door now
    validates against the schema before dispatching, so every
    algorithm fails identically, with the same message and exit code.
    """

    @pytest.fixture
    def bad_db_path(self, tmp_path):
        db = database({"T": 3, "R": 2, "S": 1}, R=[(1, 7)], S=[(7,)])
        path = tmp_path / "bad.json"
        save_database(db, path)
        return str(path)

    @pytest.mark.parametrize(
        "algorithm", ["reference", "hash", "counting", "engine"]
    )
    def test_empty_ternary_dividend_rejected_everywhere(
        self, bad_db_path, algorithm, capsys
    ):
        code = main(
            ["divide", "-d", bad_db_path, "--dividend", "T",
             "--algorithm", algorithm]
        )
        assert code == 2
        assert "binary dividend" in capsys.readouterr().err

    def test_error_message_identical_across_algorithms(
        self, bad_db_path, capsys
    ):
        messages = set()
        for algorithm in ("reference", "hash", "engine"):
            main(
                ["divide", "-d", bad_db_path, "--dividend", "T",
                 "--algorithm", algorithm]
            )
            messages.add(capsys.readouterr().err)
        assert len(messages) == 1

    @pytest.mark.parametrize("algorithm", ["hash", "engine"])
    def test_unknown_operands_rejected_everywhere(
        self, bad_db_path, algorithm, capsys
    ):
        code = main(
            ["divide", "-d", bad_db_path, "--dividend", "Nope",
             "--algorithm", algorithm]
        )
        assert code == 2
        assert "Nope" in capsys.readouterr().err


class TestBisim:
    def test_bisimilar(self, fig5_paths, capsys):
        a, b = fig5_paths
        code = main(
            [
                "bisim", "-a", a, "-b", b,
                "--left-tuple", "1", "--right-tuple", "1",
            ]
        )
        assert code == 0
        assert "bisimilar" in capsys.readouterr().out

    def test_not_bisimilar_with_constants(self, fig5_paths, capsys):
        a, b = fig5_paths
        code = main(
            [
                "bisim", "-a", a, "-b", b,
                "--left-tuple", "1", "--right-tuple", "1",
                "--constants", "9",
            ]
        )
        assert code == 1
        assert "NOT" in capsys.readouterr().out


class TestOptimize:
    def test_optimize_introduces_semijoin(self, capsys):
        code = main(
            [
                "optimize",
                "--schema",
                "R:2,S:1",
                "--ascii",
                "project[1,2](R join[2=1] S)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "semijoin" in out


class TestGf:
    def test_gf_answers(self, db_path, capsys):
        code = main(
            [
                "gf",
                "-d",
                db_path,
                "exists y (R(x, y) and S(y))",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "x" in out.splitlines()[0]
        assert any(line == "1" for line in out.splitlines())

    def test_gf_c_stored(self, db_path, capsys):
        code = main(["gf", "-d", db_path, "x = y", "--c-stored"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x\ty"

    def test_gf_explicit_var_order(self, db_path, capsys):
        code = main(
            ["gf", "-d", db_path, "R(x, y)", "--vars", "y", "x"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "y\tx"
        assert "7\t1" in lines


class TestSubcommands:
    def test_serve_is_not_a_subcommand(self, capsys):
        # The serving scenarios live test-side (tests/serving_lab.py);
        # the CLI has no load generator.
        for argv in (["serve"], ["serve", "--list-scenarios"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2, argv
            assert "invalid choice: 'serve'" in capsys.readouterr().err
