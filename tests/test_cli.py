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


class TestVersionFlag:
    def test_version_is_printed(self):
        result = run_cli("--version")
        assert result.returncode == 0
        assert __version__ in result.stdout
