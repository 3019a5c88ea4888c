import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabsim
from stabsim.cli import cli_main
from stabsim.device import Truncations, bundled_scenario, serialize_scenario


@pytest.fixture(scope="module")
def quick_config(tmp_path_factory):
    cfg = bundled_scenario("bell").replace(
        t_final=2.0, t_step=0.1,
        truncations=Truncations(qubit_dim=2, resonator_dim=2))
    path = tmp_path_factory.mktemp("cfg") / "quick.json"
    path.write_text(serialize_scenario(cfg))
    return path


class TestBellCommand:
    def test_writes_report_with_steady_fidelity(self, quick_config, tmp_path,
                                                capsys):
        out = tmp_path / "run1"
        code = cli_main(["bell", "--config", str(quick_config),
                         "--out", str(out), "--channels", "R2"])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert "steady_fidelity" in payload
        assert (out / "traces.csv").exists()
        assert "steady_fidelity=" in capsys.readouterr().out

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        code = cli_main(["bell", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["bell", "--channels", "R7"])
        assert exc.value.code == 2

    def test_unknown_command_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["frobnicate"])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_row_count_matches_request(self, quick_config, tmp_path):
        out = tmp_path / "sw"
        code = cli_main(["sweep", "--config", str(quick_config),
                         "--axis", "n_bar", "--values", "0.2:0.8:4",
                         "--out", str(out)])
        assert code == 0
        lines = (out / "traces.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        payload = json.loads((out / "report.json").read_text())
        assert payload["axis"] == "n_bar"
        assert len(payload["values"]) == 4

    def test_three_qubit_config_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(serialize_scenario(bundled_scenario("w")))
        code = cli_main(["sweep", "--config", str(path), "--axis", "n_bar",
                         "--values", "1.0", "--out", str(tmp_path / "sw")])
        assert code == 1
        assert "sweeps need a two-qubit config" in capsys.readouterr().err

    def test_comma_values(self, quick_config, tmp_path):
        out = tmp_path / "sw2"
        code = cli_main(["sweep", "--config", str(quick_config),
                         "--axis", "T1", "--values", "20,40",
                         "--out", str(out)])
        assert code == 0
        lines = (out / "traces.csv").read_text().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("spec", ["0", "-3", "two"])
    def test_workers_below_one_is_a_usage_error(self, quick_config, tmp_path,
                                                capsys, spec):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["sweep", "--config", str(quick_config), "--axis",
                      "n_bar", "--values", "0.5", "--workers", spec,
                      "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert f"argument --workers: {spec!r} is not an integer >= 1" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRatesCommand:
    def test_prints_forward_reverse_table(self, capsys):
        code = cli_main(["rates"])
        assert code == 0
        out = capsys.readouterr().out
        assert "forward/us" in out and "reverse/us" in out and "ratio" in out
        assert "R1" in out and "R2" in out

    def test_notes_validity_at_design_point(self, capsys):
        cli_main(["rates"])
        assert "outside" in capsys.readouterr().out


class TestEffectiveCommand:
    def test_prints_model_fidelities(self, capsys):
        code = cli_main(["effective", "--omega-p", "0.53",
                         "--gamma1", "0.037", "--gamma-phi", "0.0556",
                         "--gamma-s", "2.0", "--ts", "0.9",
                         "--t1", "27,27", "--tphi", "18"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exact_fidelity" in out
        assert "approx_fidelity" in out
        assert "experiment_estimate = 0.9167" in out.replace("0.916667",
                                                             "0.9167")

    def test_estimate_requires_times(self, capsys):
        code = cli_main(["effective", "--omega-p", "0.5", "--gamma1", "0.03",
                         "--gamma-phi", "0.05", "--gamma-s", "2.0",
                         "--ts", "0.9"])
        assert code == 1
        assert "requires" in capsys.readouterr().err


class TestSpectroscopyCommand:
    def test_writes_spectrum_csv(self, quick_config, tmp_path):
        out = tmp_path / "spec"
        code = cli_main(["spectroscopy", "--config", str(quick_config),
                         "--freqs", "4200:4204:5", "--amplitude", "0.1",
                         "--out", str(out)])
        assert code == 0
        lines = (out / "traces.csv").read_text().splitlines()
        assert lines[0].startswith("freq_mhz")
        assert len(lines) == 6

    def test_writes_scan_diagnostics(self, quick_config, tmp_path):
        out = tmp_path / "spec"
        code = cli_main(["spectroscopy", "--config", str(quick_config),
                         "--freqs", "4200:4204:5", "--amplitude", "0.1",
                         "--out", str(out)])
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["max_trace_drift"] <= 1e-8
        assert diag["max_hermiticity_defect"] <= 1e-9
        assert diag["min_eigenvalue"] >= -1e-7
        # five frequencies of 80 steps, one propagator product a step
        assert diag["rhs_evaluations"] == 5 * 80
        assert diag["propagator"]["method"] == "dense_expm"

    @pytest.mark.parametrize("command, flag, spec", [
        ("spectroscopy", "--freqs", "1:2"),
        ("spectroscopy", "--freqs", "1:2:x"),
        ("spectroscopy", "--freqs", "4192:4212:-3"),
        ("spectroscopy", "--freqs", "4200,,4201"),
        ("sweep", "--values", "0.5:1:2:3"),
        ("sweep", "--values", "a,b"),
    ])
    def test_malformed_value_spec_is_a_usage_error(self, quick_config,
                                                   tmp_path, capsys, command,
                                                   flag, spec):
        extra = ["--axis", "n_bar"] if command == "sweep" else []
        with pytest.raises(SystemExit) as exit_:
            cli_main([command, "--config", str(quick_config), flag, spec,
                      "--out", str(tmp_path / "out"), *extra])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {spec!r} is neither start:stop:count " \
            "with count >= 0 nor a comma list of numbers" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("freqs,named", [
        ("nan,4200", "rows [0] are [nan]"),
        ("4200,inf", "rows [1] are [inf]"),
    ])
    def test_non_finite_frequency_names_its_row(self, quick_config, tmp_path,
                                                capsys, freqs, named):
        code = cli_main(["spectroscopy", "--config", str(quick_config),
                         "--freqs", freqs, "--amplitude", "0.1",
                         "--out", str(tmp_path / "spec")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"probe frequencies must be finite: {named}" in err
        assert "shift" not in err
        assert not (tmp_path / "spec").exists()


def loaded_after(code: str, modules: set[str]) -> str:
    """The sorted list of ``modules`` that a fresh interpreter has loaded
    after running ``code``, as it prints it."""
    src = str(Path(stabsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += f"\nimport sys; print(sorted({modules!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True)
    return out.stdout.strip()


#: a steady state and a dense scan, through the package's public names
RUN_STEADY_AND_SCAN = (
    "from stabsim.device import bundled_scenario\n"
    "from stabsim.lindblad import steady_state\n"
    "from stabsim.scenarios import build_problem, run_spectroscopy\n"
    "cfg = bundled_scenario('bell_single_channel')\n"
    "steady_state(build_problem(cfg)[1], tol=cfg.solver.steady_tol)\n"
    "run_spectroscopy(bundled_scenario('bell'), 0,"
    " [4200.0, 4202.0, 4204.0], 0.1)")


def test_import_leaves_out_optimize_and_special():
    # the two subpackages take about 0.15 s to import, and no stabsim
    # module needs them
    assert loaded_after("import stabsim, stabsim.cli",
                        {"scipy.optimize", "scipy.special"}) == "[]"


def test_runs_load_neither_scipy_linalg_nor_sparse_linalg():
    # a steady state and a dense scan run on numpy's own kernels; the two
    # subpackages take about 9.5 MB of every process
    assert loaded_after("import stabsim, stabsim.cli\n" + RUN_STEADY_AND_SCAN,
                        {"scipy.linalg", "scipy.sparse.linalg"}) == "[]"


def test_runs_without_the_cli_leave_out_modes():
    # the normal-mode analysis serves the rate table alone; a run reads
    # the qubit chain from hamiltonian
    assert loaded_after("import stabsim\n" + RUN_STEADY_AND_SCAN,
                        {"stabsim.modes"}) == "[]"
