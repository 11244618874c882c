import json
import math

import pytest

from hbt4.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoint:
    def test_feasible_antibunching_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "point",
            "--r", "0.001", "--theta", "0", "--alpha", "0.032",
            "--eta", "0.5", "--gamma", "1e-5",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["click"]["g2"] == pytest.approx(0.042, rel=0.02)
        assert report["squeezing_db"] == pytest.approx(0.0087, abs=1e-4)
        assert report["diagnostics"]["tail_mass"] < 1e-12

    def test_coherent_light_all_orders_unity(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--r", "0", "--alpha", "1", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        for order in ("g2", "g3", "g4"):
            assert report["ideal"][order] == pytest.approx(1.0, rel=1e-9)

    def test_super_bunching_third_order(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "point",
            "--r", "0.002", "--theta", str(math.pi), "--alpha", "0.063",
            "--eta", "0.5", "--gamma", "1e-5",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["click"]["g3"] == pytest.approx(6.190, rel=0.02)

    def test_text_report_mentions_variant_bracket(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--r", "0.01", "--theta", str(math.pi), "--alpha", "0.01"
        )
        assert code == 0
        assert "alternative fourth-order bracket" in out

    def test_invalid_parameter_names_field(self, capsys):
        code, _, err = run_cli(capsys, "point", "--r", "-1")
        assert code == 2
        assert "r" in err

    def test_vacuum_is_no_signal(self, capsys):
        code, _, err = run_cli(capsys, "point", "--r", "0", "--alpha", "0")
        assert code == 4

    def test_truncation_failure_is_internal_error(self, capsys):
        # r = 5 needs more support than the hard cap allows
        code, _, err = run_cli(capsys, "point", "--r", "5", "--alpha", "0")
        assert code == 5


class TestSweep:
    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--axis", "alpha:0.1:1:5",
            "--r", "0.1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "alpha,g2,g3,g4,mean_clicks,pipeline,diagnostics"
        assert len(lines) == 6
        assert not out.endswith("\r\n")
        assert out.endswith("\n")
        # 12 significant digits
        first = lines[1].split(",")[1]
        assert len(first.replace(".", "").replace("-", "").lstrip("0")) >= 11

    def test_two_axes_and_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--axis", "r:0.01:0.1:3:log",
            "--axis", "alpha:0.1:0.5:4",
            "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 12
        assert set(records[0]) >= {"r", "alpha", "g2", "g3", "g4", "mean_clicks", "pipeline"}

    def test_missing_axis_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep")
        assert code == 2

    def test_output_file_and_determinism(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            code, _, _ = run_cli(
                capsys,
                "sweep",
                "--axis", "alpha:0.01:0.2:8:log",
                "--r", "0.02", "--pipeline", "click",
                "--eta", "0.5", "--gamma", "1e-5",
                "--out", str(path),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestExtremum:
    def test_min_g2_text(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "extremum",
            "--order", "2", "--param", "alpha", "--bounds", "1e-3:1",
            "--r", "0.001",
        )
        assert code == 0
        assert "min g2 over alpha" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "extremum",
            "--order", "2", "--param", "r", "--bounds", "1e-4:0.5",
            "--mode", "max", "--alpha", "0.01", "--theta", str(math.pi),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["location"] == pytest.approx(0.01, abs=5e-4)
        assert payload["value"] == pytest.approx(2.5e3, rel=0.05)


class TestFigure:
    def test_degenerate_map_rows_constant(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "figure",
            "--preset", "fig2map",
            "--set", "r_min=0", "--set", "r_max=0", "--set", "r_scale=linear",
            "--set", "r_points=2", "--set", "alpha_points=3",
            "--set", "alpha_min=0.5", "--set", "alpha_max=1.0",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        csv_files = sorted(tmp_path.glob("fig2map_map_*.csv"))
        assert len(csv_files) == 1
        lines = csv_files[0].read_text().splitlines()
        for line in lines[1:]:
            assert float(line.split(",")[2]) == pytest.approx(1.0, rel=1e-9)

    def test_manifest_written(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "figure",
            "--preset", "fig5",
            "--set", "r_points=5",
            "--set", 'alpha_values=[0.01]',
            "--outdir", str(tmp_path),
        )
        assert code == 0
        manifests = list(tmp_path.glob("fig5_*_manifest.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["preset"] == "fig5"
        assert manifest["parameters"]["r_points"] == 5
        for name in manifest["files"].values():
            assert (tmp_path / name).exists()
            assert manifest["hash"] in name

    def test_phase_scan_preset_emits_both_g4_variants(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "figure", "--preset", "fig6",
            "--set", "theta_points=9",
            "--set", 'gamma_values=[1e-5]',
            "--outdir", str(tmp_path),
        )
        assert code == 0
        manifests = list(tmp_path.glob("fig6_*_manifest.json"))
        manifest = json.loads(manifests[0].read_text())
        assert {"g2", "g3", "g4a", "g4b"} <= set(manifest["files"])

    def test_scan_preset_small(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "figure", "--preset", "fig3",
            "--set", "alpha_points=4", "--set", "r_points=4",
            "--set", 'r_values=[0.001]', "--set", 'alpha_values=[0.1]',
            "--outdir", str(tmp_path),
        )
        assert code == 0
        files = sorted(tmp_path.glob("fig3_*.csv"))
        assert len(files) == 2

    def test_minimum_map_preset_small(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "figure", "--preset", "fig4",
            "--set", "gamma_points=2", "--set", "eta_points=2",
            "--set", 'orders=[2]', "--set", "coarse_points=30",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        files = sorted(tmp_path.glob("fig4_gmin2_*.csv"))
        assert len(files) == 1
        lines = files[0].read_text().splitlines()
        assert len(lines) == 5
        assert "alpha_min=" in lines[1]

    @pytest.mark.parametrize(
        "override",
        ["orders=2", "orders=[]", "orders=[2,2]", "orders=[5]", "coarse_points=1",
         "coarse_points=2.5", "gamma_points=2.5"],
    )
    def test_bad_minimum_map_override_is_config_error(self, capsys, tmp_path, override):
        code, _, err = run_cli(
            capsys,
            "figure", "--preset", "fig4",
            "--set", "gamma_points=2", "--set", "eta_points=2", "--set", override,
            "--outdir", str(tmp_path),
        )
        assert code == 2
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "preset, override",
        [
            ("fig3", "r_values=[]"),
            ("fig3", "alpha_values=[0.1, true]"),
            ("fig5", "alpha_values=[]"),
            ("fig5", "alpha_values=5"),
            ("fig5", "eta=[1]"),
            ("fig6", "gamma_values=[]"),
            ("fig6", 'gamma_values=["x"]'),
            ("fig6", 'states={"g2": 1}'),
            ("fig6", "states=[1]"),
            ("fig6", "states={}"),
            ("fig6", 'states={"g2": [0.001]}'),
            ("fig6", "eta=[1]"),
        ],
    )
    def test_bad_family_override_is_config_error(self, capsys, tmp_path, preset, override):
        code, _, err = run_cli(
            capsys, "figure", "--preset", preset, "--set", override, "--outdir", str(tmp_path)
        )
        assert code == 2
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_override_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "figure", "--preset", "fig5", "--set", "bogus=1",
            "--outdir", str(tmp_path),
        )
        assert code == 2

    def test_unwritable_outdir_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code, _, err = run_cli(
            capsys,
            "figure", "--preset", "fig2map",
            "--set", "r_points=2", "--set", "alpha_points=2",
            "--outdir", str(blocker / "sub"),
        )
        assert code == 3

    def test_output_dir_environment_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HBT4_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys,
            "figure", "--preset", "fig2map",
            "--set", "r_points=2", "--set", "alpha_points=2",
        )
        assert code == 0
        assert list(tmp_path.glob("fig2map_map_*.csv"))


class TestMc:
    def test_fock_source_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--fock", "2", "--trials", "200000", "--seed", "1"
        )
        assert code == 0
        assert "deterministic" in out
        assert "WARNING" not in out

    def test_vacuum_no_signal_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "mc", "--fock", "0", "--trials", "1000", "--seed", "1"
        )
        assert code == 4

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--fock", "2", "--trials", "1000", "--seed", "1", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert sum(report["click_histogram"]) == 1000
        for key in ("gamma_hat", "gamma_se", "deterministic_click_probabilities", "pulls"):
            assert len(report[key]) == 5
        assert report["deterministic_click_probabilities"] == [0.0, 0.25, 0.75, 0.0, 0.0]
        for order in ("g2", "g3", "g4"):
            assert set(report["coherence"][order]) == {
                "estimate", "std_error", "deterministic", "pull"
            }
        assert report["coherence"]["g2"]["deterministic"] == pytest.approx(0.75 / 1.75**2 * 8 / 3)

    def test_json_report_is_strict_json_when_a_rare_count_is_unobserved(self, capsys):
        # At the paper's weak regime G_4 ~ 1e-17 is never observed: its
        # standard error is 0 and its pull infinite, which strict JSON
        # cannot hold.
        code, out, _ = run_cli(
            capsys, "mc", "--r", "1e-3", "--alpha", "0.03", "--eta", "0.5", "--gamma", "1e-5",
            "--condition-min", "2", "--trials", "1000", "--seed", "1", "--format", "json",
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(out, parse_constant=reject)
        assert report["click_histogram"][4] == 0
        assert report["gamma_se"][4] == 0.0
        assert report["pulls"][4] is None

    @pytest.mark.parametrize(
        "flags",
        [
            ("--fock", "2", "--trials", "1000", "--seed", "1"),
            ("--r", "0.2", "--alpha", "0.8", "--eta", "0.7", "--gamma", "0.01",
             "--trials", "20000", "--seed", "3"),
        ],
    )
    def test_text_columns_stay_apart(self, capsys, flags):
        code, out, _ = run_cli(capsys, "mc", *flags)
        assert code == 0
        rows = [line.split() for line in out.splitlines() if line.startswith("G_")]
        assert len(rows) == 5
        assert all(len(row) == 6 for row in rows)
        # The case the spacing is for: a value as wide as its column.
        assert max(len(field) for row in rows for field in row[2:5]) >= 14


class TestConfigRoundTrip:
    # Flags per command; each run writes to a location given at run time,
    # so the direct run and the run from the dumped config differ only there.
    ROUND_TRIPS = {
        "point": ("--r", "0.3", "--theta", "1.1", "--alpha", "0.4",
                  "--eta", "0.7", "--gamma", "1e-3", "--format", "json"),
        "sweep": ("--axis", "alpha:0.01:0.3:6:log",
                  "--r", "0.05", "--pipeline", "click", "--eta", "0.8", "--gamma", "1e-4"),
        "extremum": ("--order", "3", "--param", "alpha", "--bounds", "0.01:0.5",
                     "--mode", "min", "--r", "0.1", "--pipeline", "click", "--eta", "0.6"),
        "figure": ("--preset", "fig2map", "--set", "r_points=2", "--set", "alpha_points=3",
                   "--set", "theta=0.5"),
        "mc": ("--r", "0.2", "--alpha", "0.5", "--eta", "0.9", "--gamma", "1e-3",
               "--trials", "20000", "--seed", "3", "--condition-min", "1"),
        "mc-json": ("--r", "0.2", "--alpha", "0.5", "--eta", "0.9", "--gamma", "1e-3",
                    "--trials", "20000", "--seed", "3", "--condition-min", "1",
                    "--format", "json"),
    }

    @pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
    def test_dump_and_rerun_byte_identical(self, capsys, tmp_path, case):
        command = case.split("-")[0]
        flags = self.ROUND_TRIPS[case]
        code, dumped, _ = run_cli(capsys, "dump-config", command, *flags)
        assert code == 0
        config_path = tmp_path / "run.json"
        config_path.write_text(dumped)

        def outputs(name, *argv):
            target = tmp_path / name
            if command == "figure":
                code, _, _ = run_cli(capsys, command, *argv, "--outdir", str(target))
                result = {p.name: p.read_bytes() for p in target.iterdir()}
            else:
                code, _, _ = run_cli(capsys, command, *argv, "--out", str(target))
                result = target.read_bytes()
            assert code == 0
            return result

        direct = outputs("direct", *flags)
        assert direct
        assert outputs("from_config", "--config", str(config_path)) == direct

    def test_unknown_config_keys_rejected(self, capsys, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"schema_version": 1, "bogus_key": 3}))
        code, _, err = run_cli(capsys, "point", "--config", str(config_path))
        assert code == 2
        assert "bogus_key" in err

    @pytest.mark.parametrize("field", ["eta", "gamma"])
    def test_non_numeric_detection_in_config_is_config_error(self, capsys, tmp_path, field):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"schema_version": 1, field: "x"}))
        code, _, err = run_cli(capsys, "point", "--config", str(config_path))
        assert code == 2
        assert f"{field}: must be a real number" in err

    def test_flags_override_config_file(self, capsys, tmp_path):
        config_path = tmp_path / "base.json"
        config_path.write_text(json.dumps({"schema_version": 1, "r": 0.5, "alpha": 1.0}))
        code, out, _ = run_cli(
            capsys, "dump-config", "point", "--config", str(config_path), "--r", "0.25"
        )
        assert code == 0
        resolved = json.loads(out)
        assert resolved["r"] == 0.25
        assert resolved["alpha"] == 1.0
