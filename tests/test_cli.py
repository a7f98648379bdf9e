"""End-to-end tests for the command line tool, run through subprocesses.

Every test here invokes the installed module entry point the same way a
shell user would, so exit codes, stream separation, and byte-level
determinism are all exercised for real.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from qheis import __version__

CLI = [sys.executable, "-m", "qheis.cli"]


def run_cli(*args, env_extra=None, timeout=None):
    env = os.environ.copy()
    env.pop("QHEIS_TOL", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env, timeout=timeout)


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """Catalog configs written once and shared by the tests below."""
    root = tmp_path_factory.mktemp("configs")
    paths = {}
    for kind in (1, 2, 4):
        path = root / f"kind{kind}.json"
        result = run_cli("example", "--kind", str(kind), "--out", str(path))
        assert result.returncode == 0, result.stderr
        paths[kind] = path
    return paths


class TestNormalForm:
    def test_defining_relation_reduces_to_zero(self):
        result = run_cli("normal-form", "p*x - s^2*x*p - i*(s^3 - s^-1)*u")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["status"] == "pass"
        assert report["normal_form"] == "0"
        assert report["n_terms"] == 0
        assert report["version"] == __version__

    def test_terms_carry_monomial_and_coefficient(self):
        result = run_cli("normal-form", "p*x")
        report = json.loads(result.stdout)
        assert report["n_terms"] == 2
        for term in report["terms"]:
            assert set(term) == {"monomial", "coefficient"}

    def test_text_format_prints_the_bare_normal_form(self):
        result = run_cli("normal-form", "--format", "text", "p*x")
        assert result.returncode == 0
        assert result.stdout == "i*s*u^-1 - i*s^-1*u\n"

    def test_syntax_error_exits_with_usage_code(self):
        result = run_cli("normal-form", "p +")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "syntax error at offset 3" in result.stderr

    def test_deep_nesting_is_a_usage_error_without_traceback(self):
        depth = 3000
        result = run_cli("normal-form", "(" * depth + "p" + ")" * depth)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "nested parentheses" in result.stderr
        assert "Traceback" not in result.stderr

    def test_huge_power_of_u_answers_in_closed_form(self):
        start = time.monotonic()
        result = run_cli("normal-form", "--format", "text", "u^-100000000",
                         timeout=10)
        elapsed = time.monotonic() - start
        assert result.returncode == 0, result.stderr
        assert result.stdout == "u^-100000000\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize("expression,expected", [
        ("p^100000", "p^100000"),
        ("(p*u)^3000", "s^8997000*p^3000*u^3000"),
        ("(i*u)^1000001", "i*u^1000001"),
        ("p^99999999999*3", "3*p^99999999999"),
        ("u*x^99999999999", "s^-199999999998*x^99999999999*u"),
    ])
    def test_single_term_powers_answer_in_closed_form(self, expression,
                                                      expected):
        start = time.monotonic()
        result = run_cli("normal-form", "--format", "text", expression,
                         timeout=10)
        elapsed = time.monotonic() - start
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected + "\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize("expression,message", [
        ("2^100000", "coefficient too large to print: 100001 bits"),
        ("7" * 4001, "at most 4000 digits, found 4001 digits"),
    ])
    def test_oversized_numbers_are_usage_errors(self, expression, message):
        result = run_cli("normal-form", expression, timeout=10)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert message in result.stderr
        assert "Traceback" not in result.stderr


    @pytest.mark.parametrize("expression", [
        "(3*u)^4000000", "999990^-1999991", "(3*u)^99999999999",
        "(1 + q)^99999999999", "(1 + s - q)^99999999999",
    ])
    def test_oversized_powers_are_refused_before_computing(self, expression):
        start = time.monotonic()
        result = run_cli("normal-form", expression, timeout=10)
        elapsed = time.monotonic() - start
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: coefficient too large to "
                                        "print: ")
        assert "Traceback" not in result.stderr
        assert elapsed < 1.0

    @staticmethod
    def assert_work_limit(expression, what):
        start = time.monotonic()
        result = run_cli("normal-form", expression, timeout=30)
        elapsed = time.monotonic() - start
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {what} too costly to "
                                        "compute")
        assert "Traceback" not in result.stderr
        assert elapsed < 2.0

    @pytest.mark.parametrize("expression", ["(p+x)^40", "(1+s)^1000"])
    def test_costly_multi_term_powers_hit_the_work_limit(self, expression):
        self.assert_work_limit(expression, "power")

    @pytest.mark.parametrize("expression", [
        "x^120*p^120", "x^270*p^270", "(p+x)^19*(p+x)^19"])
    def test_costly_products_hit_the_work_limit(self, expression):
        self.assert_work_limit(expression, "product")

    @pytest.mark.parametrize("expression,message", [
        ("1/0", "syntax error at offset 2: expected a nonzero denominator"),
        ("(1/0)*p", "syntax error at offset 3: expected a nonzero denominator"),
        ("0^-1", "0 has no inverse"),
    ])
    def test_zero_division_is_a_usage_error(self, expression, message):
        result = run_cli("normal-form", expression, timeout=10)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert message in result.stderr
        assert "Traceback" not in result.stderr


class TestConfigHandling:
    def test_missing_file_exits_with_usage_code(self):
        result = run_cli("classify", "--config", "/tmp/qheis-does-not-exist.json")
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        result = run_cli("classify", "--config", str(path))
        assert result.returncode == 2
        assert "invalid JSON" in result.stderr

    def test_missing_section_is_reported_by_pointer(self, configs, tmp_path):
        config = json.loads(configs[1].read_text())
        del config["window"]
        path = tmp_path / "nowindow.json"
        path.write_text(json.dumps(config))
        result = run_cli("classify", "--config", str(path))
        assert result.returncode == 2
        assert "/window: missing" in result.stderr

    def test_bad_tolerance_env_var_exits_with_usage_code(self):
        result = run_cli(
            "schrodinger", "--q", "0.5", "--samples", "2",
            env_extra={"QHEIS_TOL": "abc"},
        )
        assert result.returncode == 2
        assert "QHEIS_TOL" in result.stderr

    def test_out_of_range_q_exits_with_usage_code(self):
        result = run_cli("schrodinger", "--q", "1.5", "--samples", "2")
        assert result.returncode == 2

    @pytest.mark.parametrize("command", ["classify", "spectrum", "equiv"])
    @pytest.mark.parametrize("kind, path, value, message", [
        (2, ("map", "phases", "v"), float("nan"), "/map: phases/v"),
        (4, ("map", "Vprime", 0, 1, "re"), float("inf"),
         "/map: Vprime/0/1/re"),
        (4, ("map", "Wprime", 1, 1, "im"), float("-inf"),
         "/map: Wprime/1/1/im"),
        (1, ("family", "plus", 0, "w"), float("nan"), "/family: plus atom 0"),
        (1, ("family", "minus", 0, "w"), float("inf"),
         "/family: minus atom 0"),
        # finite, but the isometry residual overflows to nan
        (4, ("map", "Vprime", 0, 0, "re"), 1e200,
         "/map: boundary matrices are not weight isometries (residual nan)"),
        (4, ("map", "Wprime", 1, 0, "im"), -1e200,
         "/map: boundary matrices are not weight isometries (residual nan)"),
    ])
    def test_non_finite_numbers_are_config_errors(self, configs, tmp_path,
                                                  command, kind, path, value,
                                                  message):
        config = json.loads(configs[kind].read_text())
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "nonfinite.json"
        bad.write_text(json.dumps(config))
        args = (["--config-a", str(bad), "--config-b", str(bad)]
                if command == "equiv" else ["--config", str(bad)])
        result = run_cli(command, *args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {message}")
        assert "Traceback" not in result.stderr
        assert "did not converge" not in result.stderr

    @pytest.mark.parametrize("command", ["spectrum", "equiv", "verify"])
    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_is_a_config_error(self, configs, tmp_path,
                                                    command, tol):
        config = json.loads(configs[1].read_text())
        config["tol"] = tol
        bad = tmp_path / "tol.json"
        bad.write_text(json.dumps(config))
        args = (["--config-a", str(bad), "--config-b", str(bad)]
                if command == "equiv" else ["--config", str(bad)])
        result = run_cli(command, *args)
        assert result.returncode == 2
        assert result.stderr.startswith("error: /tol: expected a positive "
                                        "finite number")


class TestExample:
    def test_config_is_self_contained(self, configs):
        config = json.loads(configs[2].read_text())
        for key in ("family", "window", "map", "kind", "name", "tol", "seed"):
            assert key in config
        assert config["kind"] == 2

    def test_unknown_kind_is_a_usage_error(self):
        result = run_cli("example", "--kind", "9")
        assert result.returncode == 2


class TestVerify:
    def test_catalog_config_passes(self, configs):
        result = run_cli("verify", "--config", str(configs[1]))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["status"] == "pass"
        assert report["tol"] == 1e-12
        assert set(report) >= {"characterization", "extension", "representation"}
        assert len(report["config_hash"]) == 64

    def test_same_config_gives_byte_identical_output(self, configs):
        first = run_cli("verify", "--config", str(configs[1]))
        second = run_cli("verify", "--config", str(configs[1]))
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")

    def test_seed_flag_threads_into_the_report(self, configs):
        result = run_cli("verify", "--config", str(configs[1]), "--seed", "5")
        report = json.loads(result.stdout)
        assert report["representation"]["seed"] == 5
        assert report["status"] == "pass"

    def test_tolerance_env_var_fills_in_when_config_has_none(self, configs, tmp_path):
        config = json.loads(configs[1].read_text())
        del config["tol"]
        path = tmp_path / "notol.json"
        path.write_text(json.dumps(config))
        result = run_cli(
            "verify", "--config", str(path), env_extra={"QHEIS_TOL": "1e-3"}
        )
        report = json.loads(result.stdout)
        assert report["tol"] == 1e-3

    def test_config_tolerance_outranks_the_env_var(self, configs):
        result = run_cli(
            "verify", "--config", str(configs[1]),
            env_extra={"QHEIS_TOL": "1e-3"},
        )
        report = json.loads(result.stdout)
        assert report["tol"] == 1e-12

    def test_text_format_has_the_header_line(self, configs):
        result = run_cli("verify", "--format", "text", "--config", str(configs[1]))
        header = result.stdout.splitlines()[0]
        assert header.startswith(f"qheis {__version__}")
        assert "status pass" in header


class TestSpectrum:
    def test_eigenvalues_are_sorted_and_real(self, configs):
        result = run_cli("spectrum", "--config", str(configs[1]))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        eigs = report["eigenvalues"]
        assert len(eigs) == report["dim"]
        assert eigs == sorted(eigs)
        assert report["hermiticity_residual"] < 1e-12

    @pytest.mark.parametrize("kind", (1, 3))
    @pytest.mark.parametrize("q,n_max", ((0.2, 24), (0.3, 30), (0.5, 60)))
    def test_high_windows_pass_spectrum_and_verify(self, kind, q, n_max,
                                                   tmp_path):
        example = run_cli("example", "--kind", str(kind), "--q", str(q))
        config = json.loads(example.stdout)
        config["window"]["n_max"] = n_max
        path = tmp_path / "high.json"
        path.write_text(json.dumps(config))
        for command in ("spectrum", "verify"):
            result = run_cli(command, "--config", str(path))
            assert result.returncode == 0, result.stderr
            assert "Traceback" not in result.stderr
            assert json.loads(result.stdout)["status"] == "pass"


    @pytest.mark.parametrize("command", ("spectrum", "verify"))
    def test_tall_windows_report_finite_numbers(self, command, tmp_path):
        # at q = 0.2 the entries of X reach 0.2^-300 ~ 1e209, whose squares
        # overflow; the report must still pass and be strict JSON
        example = run_cli("example", "--kind", "1", "--q", "0.2")
        config = json.loads(example.stdout)
        config["window"] = {"n_min": -6, "n_max": 300}
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(config))
        result = run_cli(command, "--config", str(path), timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")
        assert json.loads(result.stdout,
                          parse_constant=refuse)["status"] == "pass"

    @pytest.mark.parametrize("command", ("spectrum", "verify"))
    def test_windows_over_the_site_budget_are_config_errors(self, command,
                                                            tmp_path):
        # kind 5 has 8 atoms: 8 x 307 layers = 2456 sites > MAX_SITES
        example = run_cli("example", "--kind", "5")
        config = json.loads(example.stdout)
        config["window"] = {"n_min": -6, "n_max": 300}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(config))
        start = time.monotonic()
        result = run_cli(command, "--config", str(path), timeout=30)
        assert time.monotonic() - start < 1.0
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: /window: ")
        assert "2456 sites" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ("spectrum", "verify"))
    @pytest.mark.parametrize("n_min,n_max", ((-6, 480), (-480, 6)))
    def test_windows_beyond_the_float_range_are_config_errors(
            self, command, n_min, n_max, tmp_path):
        # at q = 0.2, q^480 underflows to zero and q^-480 overflows
        example = run_cli("example", "--kind", "1", "--q", "0.2")
        config = json.loads(example.stdout)
        config["window"] = {"n_min": n_min, "n_max": n_max}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(config))
        result = run_cli(command, "--config", str(path), timeout=30)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "/window:" in result.stderr
        assert "Traceback" not in result.stderr


class TestClassify:
    def test_single_atom_is_irreducible(self, configs):
        result = run_cli("classify", "--config", str(configs[2]))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["verdict"] == "irreducible"
        assert report["commutant_dim"] == 1

    def test_repeated_position_is_reducible(self, configs):
        result = run_cli("classify", "--config", str(configs[4]))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["verdict"] == "reducible"
        assert report["commutant_dim"] == 4


class TestEquiv:
    def test_identical_configs_are_equivalent(self, configs):
        result = run_cli(
            "equiv", "--config-a", str(configs[1]), "--config-b", str(configs[1])
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["verdict"] == "equivalent"
        assert report["witness_plus"] == [[{"im": 0.0, "re": 1.0}]]

    def test_distinct_single_atoms_are_inequivalent(self, configs):
        result = run_cli(
            "equiv", "--config-a", str(configs[1]), "--config-b", str(configs[2])
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["verdict"] == "inequivalent"

    def test_different_sizes_are_inequivalent(self, configs):
        result = run_cli(
            "equiv", "--config-a", str(configs[1]), "--config-b", str(configs[4])
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["verdict"] == "inequivalent"
        assert "different numbers" in report["reason"]

    def test_reducible_pair_without_witness_is_undecided(self, configs, tmp_path):
        config = json.loads(configs[4].read_text())
        config["map"]["Vprime"][1][1]["re"] = -1.0
        path = tmp_path / "flipped.json"
        path.write_text(json.dumps(config))
        result = run_cli(
            "equiv", "--config-a", str(configs[4]), "--config-b", str(path)
        )
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["verdict"] == "undecided"
        assert "reducible" in report["reason"]


class TestSchrodinger:
    def test_model_checks_pass(self):
        result = run_cli("schrodinger", "--q", "0.5", "--samples", "5")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["status"] == "pass"
        assert report["q"] == 0.5
        assert len(report["checks"]) == 6

    def test_unreachable_tolerance_fails_with_check_code(self):
        result = run_cli(
            "schrodinger", "--q", "0.5", "--samples", "2",
            env_extra={"QHEIS_TOL": "1e-30"},
        )
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["status"] == "fail"

    @pytest.mark.parametrize("q", ["1e-12", "3e-12", "1e-20", "1e-300"])
    def test_q_too_small_for_floats_exits_with_usage_code(self, q):
        result = run_cli("schrodinger", "--q", q, "--samples", "4")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: q = {q} is too small")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("samples", ["0", "-3", "1", "1001"])
    def test_sample_counts_outside_the_range_exit_with_usage_code(
            self, samples):
        result = run_cli("schrodinger", "--q", "0.5", "--samples", samples)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (f"error: samples must lie in [2, 1000], "
                                 f"got {samples}\n")


class TestVersionFlag:
    def test_version_is_printed(self):
        result = run_cli("--version")
        assert result.returncode == 0
        assert __version__ in result.stdout
