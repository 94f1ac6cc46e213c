"""End-to-end tests for the command-line interface."""

import json

import pytest

from ricci_fragility import make, write_price_csv
from ricci_fragility.cli import (
    EXIT_BOUND_VIOLATION,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    main,
)

K4_AVG = 2.0 / 3.0  # complete-graph average curvature at m = n = 4


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "panel.csv"
    write_price_csv(make("comoving", n_assets=4, n_dates=40, seed=5), str(path))
    return str(path)


@pytest.fixture(scope="module")
def noisy_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "noisy.csv"
    write_price_csv(make("iid", n_assets=4, n_dates=40, seed=6), str(path))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# indicator
# ---------------------------------------------------------------------------


class TestIndicator:
    def test_csv_output(self, panel_csv, tmp_path):
        out = tmp_path / "series.csv"
        code = main(["indicator", "--input", panel_csv, "--T", "10",
                     "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "date,value"
        assert len(lines) == 1 + (40 - 10 + 1)
        assert float(lines[1].split(",")[1]) == pytest.approx(K4_AVG, abs=1e-12)

    def test_json_output_and_config_artifact(self, panel_csv, tmp_path):
        out = tmp_path / "series.json"
        code = main(["indicator", "--input", panel_csv, "--T", "10",
                     "--xi", "0.9", "--mode", "pairs", "--distance", "power:1.5",
                     "--returns", "log", "--output", str(out)])
        assert code == EXIT_OK
        payload = read_json(out)
        assert payload["config"]["xi"] == 0.9
        assert payload["config"]["distance"] == "power:1.5"
        config = read_json(tmp_path / "series.config.json")
        assert config["command"] == "indicator"
        assert config["input"] == panel_csv
        assert config["synthetic"] is None
        assert config["window"] == {
            "T": 10,
            "xi": 0.9,
            "distance": "power:1.5",
            "averaging_mode": "pairs",
            "weighting": "edge_weight",
            "input_mode": "log_return",
        }

    def test_synthetic_source(self, tmp_path):
        out = tmp_path / "series.csv"
        code = main(["indicator", "--synthetic", "comoving", "--T", "250",
                     "--output", str(out)])
        assert code == EXIT_OK
        config = read_json(tmp_path / "series.config.json")
        assert config["synthetic"] == "comoving"
        assert config["input"] is None

    def test_both_sources_rejected(self, panel_csv, tmp_path):
        code = main(["indicator", "--input", panel_csv, "--synthetic", "iid",
                     "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_no_source_rejected(self, tmp_path):
        code = main(["indicator", "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["indicator", "--input", str(tmp_path / "absent.csv"),
                     "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_IO

    def test_bad_window_length(self, panel_csv, tmp_path):
        code = main(["indicator", "--input", panel_csv, "--T", "2",
                     "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_bad_distance(self, panel_csv, tmp_path):
        code = main(["indicator", "--input", panel_csv, "--distance", "cubic",
                     "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_bad_extension(self, panel_csv, tmp_path):
        code = main(["indicator", "--input", panel_csv, "--T", "10",
                     "--output", str(tmp_path / "x.txt")])
        assert code == EXIT_CONFIG

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,ticker,close\n"
                       "2020-01-01,A,1.0\n"
                       "2020-01-01,A,2.0\n")
        code = main(["indicator", "--input", str(bad),
                     "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_DATA

    def test_jobs_env_default(self, panel_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("RICCI_FRAGILITY_JOBS", "2")
        out = tmp_path / "series.csv"
        code = main(["indicator", "--input", panel_csv, "--T", "10",
                     "--output", str(out)])
        assert code == EXIT_OK
        assert read_json(tmp_path / "series.config.json")["jobs"] == 2

    def test_jobs_env_invalid(self, panel_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("RICCI_FRAGILITY_JOBS", "many")
        code = main(["indicator", "--input", panel_csv, "--T", "10",
                     "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["indicator", "--mode", "zigzag", "--output", "x.csv"])
        assert exc.value.code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class TestSweep:
    def test_xi_sweep_csv(self, panel_csv, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--input", panel_csv, "--T", "10",
                     "--sweep", "xi", "--grid", "0.8,0.9",
                     "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "date,xi=0.8,xi=0.9"
        assert len(lines) == 1 + (40 - 10 + 1)
        config = read_json(tmp_path / "sweep.config.json")
        assert config["sweep"] == "xi"
        assert config["grid"] == [0.8, 0.9]

    def test_t_sweep_writes_acf_files(self, noisy_csv, tmp_path):
        out = tmp_path / "tsweep.csv"
        code = main(["sweep", "--input", noisy_csv, "--sweep", "T",
                     "--grid", "5,10", "--output", str(out)])
        assert code == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "date,T=5,T=10"
        for T in (5, 10):
            acf_lines = (tmp_path / f"tsweep.acf_T{T}.csv").read_text().splitlines()
            assert acf_lines[0] == "lag,acf,band"
            assert acf_lines[1].startswith("0,1.0,")

    def test_requires_csv_output(self, panel_csv, tmp_path):
        code = main(["sweep", "--input", panel_csv, "--sweep", "xi",
                     "--grid", "0.8", "--output", str(tmp_path / "s.json")])
        assert code == EXIT_CONFIG

    def test_empty_grid(self, panel_csv, tmp_path):
        code = main(["sweep", "--input", panel_csv, "--sweep", "xi",
                     "--grid", ",", "--output", str(tmp_path / "s.csv")])
        assert code == EXIT_CONFIG

    def test_values_with_one_column_label_are_rejected(self, panel_csv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--input", panel_csv, "--T", "10", "--sweep", "xi",
                     "--grid", "0.85,0.8500001", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "xi=0.85, xi=0.85" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_value(self, panel_csv, tmp_path):
        code = main(["sweep", "--input", panel_csv, "--sweep", "T",
                     "--grid", "5,abc", "--output", str(tmp_path / "s.csv")])
        assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


class TestBounds:
    def test_sharpness_family_passes(self, tmp_path):
        out = tmp_path / "family.json"
        code = main(["bounds", "--family", "kn-minus-edge", "--n", "4..6",
                     "--output", str(out)])
        assert code == EXIT_OK
        report = read_json(out)
        assert report["n_values"] == [4, 5, 6]
        assert report["all_within_tolerance"] is True
        assert report["max_abs_slack"] <= 1e-9
        assert [row["n"] for row in report["rows"]] == [4, 5, 6]

    def test_family_n_comma_list(self, tmp_path):
        out = tmp_path / "family.json"
        code = main(["bounds", "--family", "kn-minus-edge", "--n", "4,6",
                     "--output", str(out)])
        assert code == EXIT_OK
        assert read_json(out)["n_values"] == [4, 6]

    def test_family_bad_range(self, tmp_path):
        code = main(["bounds", "--family", "kn-minus-edge", "--n", "9..4",
                     "--output", str(tmp_path / "f.json")])
        assert code == EXIT_CONFIG

    def test_random_suite_reports_node_lemma_failures(self, tmp_path):
        # The node-measure displacement inequality is genuinely false, so a
        # random suite of any size finds violations and the exit code says so.
        out = tmp_path / "bounds.json"
        code = main(["bounds", "--trials", "20", "--seed", "3",
                     "--output", str(out)])
        assert code == EXIT_BOUND_VIOLATION
        report = read_json(out)
        assert report["trials"] == 20
        assert set(report["summary"]) == {
            "prop1_first", "prop1_sup", "lemma_node", "prop2_first", "prop2_sup",
        }
        assert report["violations"]
        assert all(v["bound"] == "lemma_node" for v in report["violations"])
        assert all(v["slack"] < 0 for v in report["violations"])

    def test_requires_json_output(self, tmp_path):
        code = main(["bounds", "--trials", "5",
                     "--output", str(tmp_path / "b.csv")])
        assert code == EXIT_CONFIG

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        code = main(["bounds", "--trials", "3", "--seed", "-1", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failure_is_data_error(self, tmp_path, failing_lp, capsys):
        code = main(["bounds", "--trials", "20", "--seed", "3",
                     "--output", str(tmp_path / "b.json")])
        assert failing_lp
        assert code == EXIT_DATA
        assert "transport LP failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subsample
# ---------------------------------------------------------------------------


class TestSubsample:
    def test_series_and_subsets(self, panel_csv, tmp_path):
        out = tmp_path / "sub.csv"
        code = main(["subsample", "--input", panel_csv, "--T", "10",
                     "--m", "3", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "date,value"
        # Comoving panel: every induced K_3 has average curvature 1/2.
        assert float(lines[1].split(",")[1]) == pytest.approx(0.5, abs=1e-12)
        subsets = read_json(tmp_path / "sub.subsets.json")["subsets"]
        assert len(subsets) == len(lines) - 1
        for entry, line in zip(subsets, lines[1:]):
            assert entry["date"] == line.split(",")[0]
            assert len(entry["nodes"]) == 3
        config = read_json(tmp_path / "sub.config.json")
        assert config["subsample"]["m"] == 3
        assert config["subsample"]["objective"] == "minimize"

    def test_m_too_large(self, panel_csv, tmp_path):
        code = main(["subsample", "--input", panel_csv, "--T", "10",
                     "--m", "9", "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_m_required(self, panel_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["subsample", "--input", panel_csv,
                  "--output", str(tmp_path / "x.csv")])
        assert exc.value.code == EXIT_CONFIG

    def test_jobs_is_usage_error(self, panel_csv, tmp_path):
        # subsample runs serially; it takes no --jobs flag.
        with pytest.raises(SystemExit) as exc:
            main(["subsample", "--input", panel_csv, "--T", "10", "--m", "3",
                  "--jobs", "2", "--output", str(tmp_path / "x.csv")])
        assert exc.value.code == EXIT_CONFIG

    def test_ignores_jobs_env(self, panel_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("RICCI_FRAGILITY_JOBS", "many")
        code = main(["subsample", "--input", panel_csv, "--T", "10", "--m", "3",
                     "--restarts", "0", "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_OK
        assert "jobs" not in read_json(tmp_path / "x.config.json")


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_CONFIG
