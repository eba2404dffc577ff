"""Tests for the command-line front end: reports, formats, exit codes."""

import errno
import json
import os
import tempfile

import pytest

from fathartogs import analysis, cli


def run(args, tmp_path):
    return cli.main([*args, "--output-dir", str(tmp_path)])


def _reject_non_finite(token):
    raise ValueError(f"non-finite token {token} in the report")


def load_report(tmp_path, command):
    """The report read as strict JSON: a NaN or Infinity token fails."""
    with open(tmp_path / f"{command}_report.json") as fh:
        return json.load(fh, parse_constant=_reject_non_finite)


class TestRangeCommand:
    def test_writes_report_and_exits_zero(self, tmp_path):
        assert run(["range", "--k", "1"], tmp_path) == 0
        doc = load_report(tmp_path, "range")
        assert doc["schema_version"] == 2
        body = doc["report"]
        assert body["parameters"]["p_low"]["numerator"] == 4
        assert body["parameters"]["p_low"]["denominator"] == 3
        assert body["parameters"]["p_high"]["value"] == 4.0
        assert body["parameters"]["schur_matches"] is True
        # the parsed flags minus the command and the output directory
        assert body["config"] == {"k": 1.0, "format": "json"}
        assert "created_utc" in doc["metadata"]

    def test_deterministic_report_body(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        run(["range", "--k", "2"], a_dir)
        run(["range", "--k", "2"], b_dir)
        a = json.dumps(load_report(a_dir, "range")["report"], sort_keys=True)
        b = json.dumps(load_report(b_dir, "range")["report"], sort_keys=True)
        assert a == b


class TestKernelCheckCommand:
    def test_small_grid_consistent(self, tmp_path):
        assert run(["kernel-check", "--k", "2", "--grid", "6"], tmp_path) == 0
        body = load_report(tmp_path, "kernel-check")["report"]
        assert body["parameters"]["max_rel_err"] < 1e-6
        assert body["verdict"] == "consistent"


class TestDivergenceCommand:
    def test_csv_rows_and_slope(self, tmp_path):
        code = run(
            ["divergence", "--k", "1", "--p-grid", "3,5", "--deltas", "1e-2..1e-9",
             "--format", "csv"],
            tmp_path,
        )
        assert code == 0
        body = load_report(tmp_path, "divergence")["report"]
        rows = {r["p"]: r for r in body["parameters"]["grid_rows"]}
        assert rows[5.0]["classification"] == "growing"
        assert abs(rows[5.0]["fitted_slope"] - 1.0) < 0.05
        csv_path = tmp_path / "divergence_data.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("p,delta,value")
        assert len(lines) > 8

    def test_default_grid_brackets_the_formula_exponent(self, tmp_path):
        # no --p-grid (the empty default) scans p* - 1, p*, p* + 1
        assert run(["divergence", "--k", "1"], tmp_path) == 0
        body = load_report(tmp_path, "divergence")["report"]
        assert [r["p"] for r in body["parameters"]["grid_rows"]] == [3.0, 4.0, 5.0]

    def test_delta_range_syntax(self):
        assert cli._parse_deltas("1e-2..1e-5") == pytest.approx([1e-2, 1e-3, 1e-4, 1e-5])
        assert cli._parse_deltas("0.1,0.01") == [0.1, 0.01]


class TestProbeCommand:
    def test_certificate_outside_range_is_expected(self, tmp_path):
        assert run(["probe", "--k", "2", "--p", "3"], tmp_path) == 0
        body = load_report(tmp_path, "probe")["report"]
        assert body["parameters"]["certificates"] >= 1


class TestProjectCommand:
    def test_monomial_agreement(self, tmp_path):
        code = run(["project", "--k", "1", "--f", "0,0:0,1", "--z", "0.1,0.5",
                    "--angular-nodes", "20", "--radial-nodes", "6"], tmp_path)
        assert code == 0
        body = load_report(tmp_path, "project")["report"]
        assert body["parameters"]["rel_agreement"] < 1e-3
        assert set(body["config"]) == {"k", "format", "radial_nodes", "angular_nodes",
                                       "boundary_offset", "f", "z"}

    @pytest.mark.parametrize("k, f", [(1, "0,0:0,1"), (1, "2,1:1,0"), (2, "1,1:1,1")])
    def test_a_real_projection_reports_an_imaginary_part_of_zero(self, tmp_path, k, f):
        # on the positive real axes the projection is real: the imaginary
        # part of the quadrature sum is rounding, which is dropped by the
        # rule quadrature.integrate applies
        assert run(["project", "--k", str(k), "--f", f, "--z", "0.1,0.5"], tmp_path) == 0
        row = load_report(tmp_path, "project")["report"]["samples"][0]
        assert row["numeric_im"] == 0.0 and row["numeric_re"] != 0.0


# what each label claims: a quadrature value without an error bar, a
# truncated basis series, or a closed form
PROVENANCES = {"quadrature", "series-truncation", "exact-formula"}


def provenances(node):
    """Every ``provenance`` value anywhere in a report body."""
    if isinstance(node, dict):
        own = [node["provenance"]] if "provenance" in node else []
        return own + [p for value in node.values() for p in provenances(value)]
    if isinstance(node, list):
        return [p for value in node for p in provenances(value)]
    return []


# one short run of each command
EVERY_COMMAND = [
    ["range", "--k", "2"],
    ["kernel-check", "--k", "2", "--grid", "2"],
    ["schur", "--k", "2", "--eps", "1.1"],
    ["calculus1", "--eps", "0.5", "--levels", "4"],
    ["disc-log", "--levels", "4"],
    ["divergence", "--k", "1"],
    ["probe", "--k", "2", "--p", "3"],
    ["project", "--k", "1", "--radial-nodes", "4", "--angular-nodes", "8"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_every_sample_carries_a_known_provenance(argv, tmp_path):
    # runs this short may end inconclusive (exit 3); the labels do not
    # depend on the verdict
    assert run(argv, tmp_path) in (0, 3)
    body = load_report(tmp_path, argv[0])["report"]
    assert body["samples"] and all("provenance" in row for row in body["samples"])
    assert set(provenances(body)) <= PROVENANCES


@pytest.fixture(scope="module")
def every_body(tmp_path_factory):
    """The report body of each command of ``EVERY_COMMAND``, by command."""
    out = tmp_path_factory.mktemp("every_command")
    bodies = {}
    for argv in EVERY_COMMAND:
        assert run(argv, out) in (0, 3)
        bodies[argv[0]] = load_report(out, argv[0])["report"]
    return bodies


def test_every_body_holds_one_key_set(every_body):
    assert {name: set(body) for name, body in every_body.items()} == {
        name: {"experiment", "parameters", "samples", "fitted_exponent", "bound_constant",
               "verdict", "expected_violation", "command", "config"}
        for name in every_body}


@pytest.mark.parametrize("command,tolerance", [
    ("calculus1", 0.02), ("disc-log", 0.10), ("divergence", 0.02)])
def test_fixed_tolerance_is_recorded_in_parameters(every_body, command, tolerance):
    assert every_body[command]["parameters"]["tolerance"] == tolerance


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "rows.csv"
        cli.write_csv(path, [{"a": 0.1, "b": 1}, {"a": 2.5, "c": "x y"}])
        assert path.read_bytes() == b"a,b,c\r\n0.10000000000000001,1,\r\n2.5,,x y\r\n"


class TestExitCodes:
    def test_usage_error_is_one(self, tmp_path):
        assert cli.main(["range"]) == 1
        assert cli.main(["no-such-command"]) == 1

    @pytest.mark.parametrize("argv", [
        ["schur", "--k", "2", "--eps", "0.75"],
        ["range", "--k", "1"],
        ["kernel-check", "--k", "2"],
        ["divergence", "--k", "1"],
        ["probe", "--k", "2", "--p", "3"],
    ])
    def test_unread_quadrature_flag_is_usage_error(self, argv, tmp_path):
        # only calculus1, disc-log and project read quadrature flags
        assert run([*argv, "--radial-nodes", "12"], tmp_path) == 1
        assert not (tmp_path / f"{argv[0]}_report.json").exists()

    @pytest.mark.parametrize("argv,message", [
        (["calculus1", "--eps", "0.5", "--radial-nodes", "5"], "must be at least 6"),
        (["project", "--k", "1", "--radial-nodes", "1"], "must be at least 2"),
        (["project", "--k", "1", "--boundary-offset", "0.7"], "must lie in (0, 0.25)"),
        (["schur", "--k", "2", "--eps", "0.75", "--levels", "1"], "must be at least 2"),
        (["schur", "--k", "2", "--eps", "0.75", "--tolerance", "0.9"],
         "unrecognized arguments: --tolerance"),
        (["calculus1", "--eps", "0.5", "--levels", "1"], "must be at least 4"),
        (["disc-log", "--levels", "1"], "must be at least 4"),
        (["divergence", "--k", "1", "--deltas", "1e-2"], "need at least 4 deltas, got 1"),
        (["divergence", "--k", "1", "--deltas", "0.5,1,2,3"], "must lie in (0, 1)"),
        (["divergence", "--k", "1", "--deltas", "1e-2..0"],
         "argument --deltas: expected a decade range 'lo..hi' with finite positive ends "
         "or a comma list of numbers, got '1e-2..0'"),
        (["project", "--k", "1", "--angular-nodes", "1"], "must be at least 2"),
        (["kernel-check", "--k", "2", "--grid", "1"], "must be at least 2"),
        (["kernel-check", "--k", "2", "--tolerance", "0"], "must be finite and > 0"),
        (["kernel-check", "--k", "2", "--tolerance", "-1"], "must be finite and > 0"),
        (["kernel-check", "--k", "2", "--tolerance", "nan"], "must be finite and > 0"),
        (["project", "--k", "1", "--f", "abc"],
         "argument --f: expected 'a1,a2:b1,b2' with integer entries, got 'abc'"),
        (["project", "--k", "1", "--z", "0.1"],
         "argument --z: expected 'x1,x2' with two numbers, got '0.1'"),
        (["probe", "--k", "2", "--p", "3", "--family", "1,2"],
         "argument --family: expected monomials 'a1,a2:b1,b2' joined by ';', got '1,2'"),
        (["divergence", "--k", "1", "--p-grid", "3,x"],
         "argument --p-grid: expected a comma list of numbers, got '3,x'"),
        (["divergence", "--k", "1", "--p-grid", ","],
         "argument --p-grid: need at least 1 exponent, got 0 in ','"),
        (["probe", "--k", "2", "--p", "2", "--family", ";"],
         "argument --family: need at least 1 monomial, got 0 in ';'"),
        (["project", "--k", "1", "--strategy", "stratified_mc"],
         "unrecognized arguments: --strategy"),
        (["project", "--k", "1", "--mc-samples", "5"], "unrecognized arguments: --mc-samples"),
        (["project", "--k", "1", "--seed", "3"], "unrecognized arguments: --seed"),
        (["schur", "--k", "2", "--eps", "3"], "argument --eps: must lie in (0, 2), got 3"),
        (["probe", "--k", "2", "--p", "0.5"], "argument --p: must lie in [1, inf), got 0.5"),
        (["range", "--k", "0.5"], "argument --k: must lie in [1, inf), got 0.5"),
        (["calculus1", "--eps", "1.5"], "argument --eps: must lie in (0, 1), got 1.5"),
        (["calculus1", "--eps", "0.5", "--beta", "2"],
         "argument --beta: must lie in [0, 2), got 2"),
        # norm_ratio_probe's moments are NaN at p = inf
        (["probe", "--k", "2", "--p", "inf"], "argument --p: must lie in [1, inf), got inf"),
        (["divergence", "--k", "1", "--deltas", "inf..1e-2"],
         "argument --deltas: expected a decade range"),
        # the scan classified p = inf as saturating, and NaN exited 2
        (["divergence", "--k", "1", "--p-grid", "3,inf"],
         "argument --p-grid: exponents must be finite, got '3,inf'"),
        (["divergence", "--k", "1", "--p-grid", "3,nan"],
         "argument --p-grid: exponents must be finite, got '3,nan'"),
        # offsets from 0.25 on exited 2: the core's u rule cannot be built
        (["project", "--k", "1", "--boundary-offset", "0.25"],
         "argument --boundary-offset: must lie in (0, 0.25), got 0.25"),
        (["project", "--k", "1", "--boundary-offset", "0.3"],
         "argument --boundary-offset: must lie in (0, 0.25), got 0.3"),
        # 1 - 2^-54 rounds to 1, and the disc ladder exited 2
        (["calculus1", "--eps", "0.5", "--levels", "54"],
         "argument --levels: must be at least 4 and at most 53, got 54"),
        (["disc-log", "--levels", "54"],
         "argument --levels: must be at least 4 and at most 53, got 54"),
    ])
    def test_bad_flag_value_is_usage_error_with_message(self, argv, message, tmp_path,
                                                        capsys):
        assert run(argv, tmp_path) == 1
        assert not (tmp_path / f"{argv[0]}_report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("usage: fathartogs") and message in err

    @pytest.mark.parametrize("argv,message", [
        (["kernel-check", "--k", "2", "--grid", "x"],
         "argument --grid: expected an integer, got 'x'"),
        (["range", "--k", "abc"], "argument --k: expected a number, got 'abc'"),
        (["schur", "--k", "2", "--eps", "x"], "argument --eps: expected a number, got 'x'"),
        (["kernel-check", "--k", "2", "--tolerance", "x"],
         "argument --tolerance: expected a number, got 'x'"),
        (["project", "--k", "1", "--radial-nodes", "2.5"],
         "argument --radial-nodes: expected an integer, got '2.5'"),
        (["divergence", "--k", "1", "--deltas", "abc"],
         "argument --deltas: expected a decade range 'lo..hi' with finite positive ends "
         "or a comma list of numbers, got 'abc'"),
    ])
    def test_malformed_number_names_the_expected_form(self, argv, message, tmp_path, capsys):
        assert run(argv, tmp_path) == 1
        assert not (tmp_path / f"{argv[0]}_report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("usage: fathartogs") and message in err
        assert "invalid" not in err

    def test_numerical_failure_is_two(self, tmp_path):
        # k = 2.5 is a domain, but the closed-form kernel needs an integer k
        assert run(["kernel-check", "--k", "2.5"], tmp_path) == 2
        doc = load_report(tmp_path, "kernel-check")
        assert "error" in doc["report"]

    def test_near_singular_kernel_is_reported_by_name(self, tmp_path):
        argv = ["project", "--k", "1", "--z", "0.4999999,0.5", "--boundary-offset", "1e-9"]
        assert run(argv, tmp_path) == 2
        error = load_report(tmp_path, "project")["report"]["error"]
        assert error["type"] == "NearSingularError"
        assert "|t-s^k|" in error["message"]

    def test_overflowing_divergence_masses_are_named(self, tmp_path):
        # the p = 8 mass, about 2 pi^2 delta^(-4) / 4, itself leaves the double
        # range on cores below about 1e-77: a mass that is not finite was
        # once classified, the growing p as saturating, and the scan then
        # failed on the wrong integral
        argv = ["divergence", "--k", "1", "--p-grid", "3,4,8", "--deltas", "1e-2..1e-100"]
        assert run(argv, tmp_path) == 2
        error = load_report(tmp_path, "divergence")["report"]["error"]
        assert error["type"] == "ValueError"
        assert "at p = 8.0 on the core |z2| > 1e-" in error["message"]
        assert "z2 = 0" not in error["message"]

    def test_finite_divergence_masses_on_deep_cores_are_scanned(self, tmp_path):
        # the p = 3 mass is about 2 pi^2 on every core; its integrand r2^0
        # was formed as r2^2 times r2^(-2), which overflowed at 1e-300.  The
        # p = 5 mass at 1e-200 is about 2 pi^2 1e200, while its power r2^(-3)
        # alone overflows at the deepest nodes
        for flags in (["--p-grid", "3", "--deltas", "1e-2..1e-300"], ["--deltas", "1e-2..1e-200"]):
            assert run(["divergence", "--k", "1", *flags], tmp_path) == 0
            assert load_report(tmp_path, "divergence")["report"]["verdict"] == "consistent"

    def test_arithmetic_error_is_a_numerical_failure(self, tmp_path, monkeypatch):
        def failing(d):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(analysis, "critical_range", failing)
        assert run(["range", "--k", "1"], tmp_path) == 2
        error = load_report(tmp_path, "range")["report"]["error"]
        assert error == {"type": "ZeroDivisionError", "message": "float division by zero"}

    def test_numerical_failure_removes_the_previous_csv(self, tmp_path):
        assert run(["project", "--k", "1", "--format", "csv"], tmp_path) == 0
        assert (tmp_path / "project_data.csv").exists()
        # (0.9, 0.5) lies outside the k = 2 domain: |z1|^2 > |z2|
        assert run(["project", "--k", "2", "--z", "0.9,0.5", "--format", "csv"],
                   tmp_path) == 2
        assert "error" in load_report(tmp_path, "project")["report"]
        assert not (tmp_path / "project_data.csv").exists()

    def test_verdict_mapping(self):
        assert cli.verdict_exit_code("consistent", False) == 0
        assert cli.verdict_exit_code("violated", True) == 0
        assert cli.verdict_exit_code("violated", False) == 2
        assert cli.verdict_exit_code("inconclusive", False) == 3

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        assert cli.main(["range", "--k", "3"]) == 0
        assert (tmp_path / "range_report.json").exists()


class TestDiscCommands:
    def test_calculus1(self, tmp_path):
        code = run(["calculus1", "--eps", "0.5", "--beta", "1.0", "--levels", "8",
                    "--radial-nodes", "10", "--angular-nodes", "24"], tmp_path)
        assert code == 0
        body = load_report(tmp_path, "calculus1")["report"]
        assert body["verdict"] == "consistent"

    @pytest.mark.parametrize("command", [["calculus1", "--eps", "0.5"], ["disc-log"]])
    @pytest.mark.parametrize("nodes", [["--radial-nodes", "5"], ["--angular-nodes", "23"]])
    def test_node_count_below_disc_minimum_is_usage_error(self, command, nodes, tmp_path):
        # the disc rules reject fewer than 6 radial or 24 angular nodes
        assert run([*command, *nodes], tmp_path) == 1
        assert not (tmp_path / f"{command[0]}_report.json").exists()

    def test_disc_log(self, tmp_path):
        code = run(["disc-log", "--levels", "10", "--radial-nodes", "10",
                    "--angular-nodes", "24", "--format", "csv"], tmp_path)
        assert code == 0
        assert (tmp_path / "disc-log_data.csv").exists()

    def test_deep_disc_log_report_is_strict_json(self, tmp_path):
        # a deep ladder wrote NaN and Infinity tokens and exited 3
        assert run(["disc-log", "--levels", "30"], tmp_path) == 0
        assert load_report(tmp_path, "disc-log")["report"]["verdict"] == "consistent"


# the README's project config and criterion 9's disc configs: each verdict
# must be the same with both node counts raised 1.5x
@pytest.mark.parametrize("argv, nodes", [
    (["project", "--k", "1", "--f", "0,0:0,1", "--z", "0.1,0.5"], (10, 24)),
    *((["calculus1", "--eps", eps, "--beta", beta, "--levels", "14"], (12, 32))
      for eps, beta in (("0.3", "0.0"), ("0.5", "1.0"), ("0.9", "1.9"))),
    (["disc-log", "--levels", "12"], (12, 32)),
], ids=["project", "calculus1-0.3-0.0", "calculus1-0.5-1.0", "calculus1-0.9-1.9", "disc-log"])
def test_verdicts_hold_under_refinement(argv, nodes, tmp_path):
    verdicts = []
    for scale in (1.0, 1.5):
        radial, angular = (str(round(n * scale)) for n in nodes)
        out = tmp_path / str(scale)
        assert run([*argv, "--radial-nodes", radial, "--angular-nodes", angular], out) == 0
        verdicts.append(load_report(out, argv[0])["report"]["verdict"])
    assert verdicts == ["consistent", "consistent"]


class TestSchurCommand:
    def test_expected_violation_exits_zero(self, tmp_path):
        code = run(["schur", "--k", "2", "--eps", "1.1", "--levels", "4"], tmp_path)
        assert code == 0
        body = load_report(tmp_path, "schur")["report"]
        assert body["verdict"] == "violated" and body["expected_violation"] is True

    def test_metadata_records_the_workers(self, tmp_path, monkeypatch):
        # the ladder values run on every usable core; the probe-only
        # report ran on one.  The body does not depend on the count
        bodies = []
        for cores in (1, 2):
            monkeypatch.setattr(analysis, "_usable_cores", lambda cores=cores: cores)
            out = tmp_path / str(cores)
            assert run(["schur", "--k", "2", "--eps", "0.75", "--levels", "6"], out) == 0
            doc = load_report(out, "schur")
            assert doc["metadata"]["workers"] == cores
            bodies.append(json.dumps(doc["report"], sort_keys=True))
            assert run(["schur", "--k", "2", "--eps", "1.1", "--levels", "3"], out) == 0
            assert load_report(out, "schur")["metadata"]["workers"] == 1
        assert bodies[0] == bodies[1]

    def test_a_ladder_past_double_precision_fails_before_any_value(self, tmp_path):
        # at level 54 the outer point 1 - 2^-54 rounds to 1: h was 0 there,
        # the ratio slopes NaN, and the run exited 0 as consistent
        assert run(["schur", "--k", "2", "--eps", "0.75", "--levels", "60"], tmp_path) == 2
        body = load_report(tmp_path, "schur")["report"]
        assert set(body) == {"command", "error"}
        assert body["error"]["type"] == "ValueError"
        assert "outer ladder point of level 54" in body["error"]["message"]

    def test_unexpected_violation_exits_two(self, tmp_path, monkeypatch):
        # the CLI cannot state a window of its own, so the verifier is
        # replaced by one that reports an unexpected violation
        def violated(d, cfg):
            return analysis.VerificationReport(
                "schur", {"k": d.k_int(), "eps": cfg.eps},
                verdict=analysis.VERDICT_VIOLATED, expected_violation=False)

        monkeypatch.setattr(analysis, "verify_schur", violated)
        code = run(["schur", "--k", "1", "--eps", "1.2", "--levels", "4"], tmp_path)
        assert code == 2
        body = load_report(tmp_path, "schur")["report"]
        assert body["verdict"] == "violated" and body["expected_violation"] is False
        assert body["parameters"] == {"k": 1, "eps": 1.2}


class TestReportWrites:
    OLD = "old report\n" * 40

    def leftovers(self, directory):
        return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))

    def test_second_run_replaces_both_files_with_the_new_bytes(self, tmp_path):
        fresh = tmp_path / "fresh"
        again = tmp_path / "again"
        assert run(["range", "--k", "2", "--format", "csv"], fresh) == 0
        assert run(["range", "--k", "1", "--format", "csv"], again) == 0
        assert run(["range", "--k", "2", "--format", "csv"], again) == 0
        assert ((again / "range_data.csv").read_bytes()
                == (fresh / "range_data.csv").read_bytes())
        doc = load_report(again, "range")
        assert doc["report"] == load_report(fresh, "range")["report"]
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert (again / "range_report.json").read_bytes() == text.encode()
        assert self.leftovers(again) == []

    @pytest.mark.parametrize("unavailable", ["raises", "missing"])
    def test_same_bytes_without_preallocation(self, unavailable, tmp_path, monkeypatch):
        rows = [{"p": 3.0, "delta": 0.01, "value": 1.0 / 3.0}, {"p": 5.0, "note": "x"}]
        cli.write_csv(tmp_path / "with.csv", rows)
        if unavailable == "raises":
            def refuse(fd, offset, length):
                raise OSError(errno.EOPNOTSUPP, "operation not supported")

            monkeypatch.setattr(os, "posix_fallocate", refuse, raising=False)
        else:
            monkeypatch.delattr(os, "posix_fallocate", raising=False)
        path = tmp_path / "without.csv"
        path.write_text(self.OLD)
        cli.write_csv(path, rows)
        assert path.read_bytes() == (tmp_path / "with.csv").read_bytes()
        assert self.leftovers(tmp_path) == []

    def test_preallocates_the_exact_byte_length(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "posix_fallocate",
                            lambda fd, offset, length: calls.append((offset, length)),
                            raising=False)
        text = "p,value\r\n3,0.33333333333333331\r\n"
        cli._atomic_write(tmp_path / "r.csv", text)
        assert calls == [(0, len(text.encode()))]
        cli._atomic_write(tmp_path / "empty.csv", "")
        assert calls == [(0, len(text.encode()))]
        assert (tmp_path / "empty.csv").read_bytes() == b""

    def test_failed_write_keeps_the_old_report(self, tmp_path, monkeypatch):
        path = tmp_path / "range_report.json"
        path.write_text(self.OLD)
        real_fdopen = os.fdopen

        class HalfWriter:
            # writes the first half of the bytes, then runs out of space
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def fileno(self):
                return self.fh.fileno()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(os, "fdopen", lambda fd, mode: HalfWriter(real_fdopen(fd, mode)))
        with pytest.raises(OSError, match="no space"):
            cli._atomic_write(path, "new report\n" * 60)
        assert path.read_text() == self.OLD
        assert self.leftovers(tmp_path) == []

    def test_failed_preallocation_closes_the_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "range_report.json"
        path.write_text(self.OLD)
        opened = []
        real_mkstemp = tempfile.mkstemp

        def mkstemp(**kwargs):
            fd, name = real_mkstemp(**kwargs)
            opened.append(fd)
            return fd, name

        def interrupted(fd, offset, length):
            raise KeyboardInterrupt

        monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        monkeypatch.setattr(os, "posix_fallocate", interrupted, raising=False)
        with pytest.raises(KeyboardInterrupt):
            cli._atomic_write(path, "new report\n")
        assert path.read_text() == self.OLD
        assert self.leftovers(tmp_path) == []
        with pytest.raises(OSError) as closed:
            os.fstat(opened[0])
        assert closed.value.errno == errno.EBADF
