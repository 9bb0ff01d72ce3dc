import filecmp
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from alnet import (
    DEFAULT_RATIO_GRID,
    EXPERIMENTS,
    InvalidParameterError,
    RunConfig,
    RunOutputs,
    SimConfig,
    SolitonParams,
    build_chain,
    coupling_coefficients,
    drift_audit,
    load_config,
    parse_config,
    serialize_config,
    write_outputs,
    zero_state,
)
from alnet.cli import (
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_NUMERICAL,
    EXIT_OK,
    run_cli,
)
from conftest import ALPHA_FIG4

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def config_dict(**overrides):
    cfg = {
        "experiment": "simulate",
        "topology": {"gammas": [1.0, 1.0], "truncation": 40},
        "soliton": {"alpha": ALPHA_FIG4, "beta": 0.2, "n0": -10.0},
        "sim": {"dt": 0.01, "t_final": 1.0, "output_stride": 50},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, **overrides):
    cfg = config_dict(out=str(tmp_path / "results"), **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestConfigParsing:
    def test_round_trip_is_exact(self):
        cfg = parse_config(
            config_dict(
                m_max=5,
                ratios=[0.2, 0.7],
                snapshot_times=[0.0, 0.5],
                out="elsewhere",
            )
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_defaults(self):
        cfg = parse_config(
            {
                "experiment": "bifurcation",
                "topology": {"gammas": [1.0, 1.5, 3.0], "truncation": 50},
                "soliton": {"alpha": 0.1, "beta": 0.1, "n0": -20.0},
            }
        )
        assert cfg.sim == SimConfig()
        assert cfg.out == "results"
        assert cfg.m_max == 4
        assert cfg.ratios == () and cfg.snapshot_times == ()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(unknown=1),
            lambda d: d.pop("experiment"),
            lambda d: d.pop("topology"),
            lambda d: d.pop("soliton"),
            lambda d: d["soliton"].update(speed=2.0),
            lambda d: d["soliton"].pop("beta"),
            lambda d: d["sim"].update(steps=10),
            lambda d: d["sim"].update(output_stride=2.5),
            lambda d: d["sim"].update(output_stride=True),
            lambda d: d.update(soliton=[1, 2, 3]),
            lambda d: d.update(sim="fast"),
        ],
    )
    def test_malformed_configs_are_rejected(self, mutate):
        data = config_dict()
        mutate(data)
        with pytest.raises(InvalidParameterError):
            parse_config(data)

    def test_run_config_validation(self):
        good = parse_config(config_dict())
        with pytest.raises(InvalidParameterError):
            parse_config(config_dict(experiment="explode"))
        with pytest.raises(InvalidParameterError):
            parse_config(config_dict(m_max=0))
        with pytest.raises(InvalidParameterError):
            parse_config(config_dict(m_max=True))
        with pytest.raises(InvalidParameterError):
            parse_config(config_dict(snapshot_times=[-1.0]))
        assert good.experiment in EXPERIMENTS
        assert isinstance(good.topology.truncation, int)

    def test_load_config_failures(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="cannot read"):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InvalidParameterError, match="not valid JSON"):
            load_config(bad)

    def test_load_config_reads_files(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = load_config(path)
        assert cfg.experiment == "simulate"
        assert cfg.topology.truncation == 40

    def test_default_ratio_grid_spans_the_open_interval(self):
        assert DEFAULT_RATIO_GRID[0] == pytest.approx(0.1)
        assert DEFAULT_RATIO_GRID[-1] == pytest.approx(0.9)
        assert all(0 < r < 1 for r in DEFAULT_RATIO_GRID)


class TestWriteOutputs:
    def test_summary_only(self, tmp_path):
        manifest = write_outputs(RunOutputs(summary={"pi": math.pi}), tmp_path)
        assert manifest == ["summary.json"]
        back = json.loads((tmp_path / "summary.json").read_text())
        assert back["pi"] == math.pi

    def test_summary_keys_are_sorted(self, tmp_path):
        write_outputs(RunOutputs(summary={"b": 1, "a": 2, "c": 3}), tmp_path)
        text = (tmp_path / "summary.json").read_text()
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')

    def test_partial_norms_round_trip(self, tmp_path):
        times = np.array([0.0, 1.0 / 3.0])
        series = {
            "1": np.array([math.pi, 1e-17]),
            "11": np.array([0.1, 2.0 / 3.0]),
        }
        write_outputs(
            RunOutputs(summary={}, partial_norms=(times, series)), tmp_path
        )
        lines = (tmp_path / "partial_norms.csv").read_text().splitlines()
        assert lines[0] == "time,bond_1,bond_11,total"
        for i, line in enumerate(lines[1:]):
            t, a, b, tot = (float(x) for x in line.split(","))
            assert t == times[i]
            assert a == series["1"][i]
            assert b == series["11"][i]
            assert tot == series["1"][i] + series["11"][i]

    def test_drift_csv_layout(self, tmp_path):
        top = build_chain(1.0, truncation=4)
        cp = coupling_coefficients(top)
        report = drift_audit([zero_state(top)], top, cp, m_max=3)
        write_outputs(RunOutputs(summary={}, drift=report), tmp_path)
        lines = (tmp_path / "drift.csv").read_text().splitlines()
        assert lines[0] == "time,N,ReZ,ImZ,E,J,ReC2,ImC2,ReC3,ImC3"
        assert len(lines) == 2

    def test_snapshots_need_topology(self, tmp_path):
        st = zero_state(build_chain(1.0, truncation=4))
        with pytest.raises(InvalidParameterError):
            write_outputs(
                RunOutputs(summary={}, snapshots=((0.0, st),)), tmp_path
            )

    def test_snapshot_files_and_naming(self, tmp_path):
        top = build_chain(2.0, truncation=3)
        st = zero_state(top)
        st.data[:] = [1 + 2j, 0, 0, 3 - 4j, 0, 0]
        manifest = write_outputs(
            RunOutputs(
                summary={}, snapshots=((0.0, st), (12.25, st)), topology=top
            ),
            tmp_path,
        )
        assert manifest == ["summary.json", "snapshots/t_0.0000.csv", "snapshots/t_12.2500.csv"]
        lines = (tmp_path / "snapshots/t_0.0000.csv").read_text().splitlines()
        assert lines[0] == "bond,site,re,im"
        assert lines[1] == "1,-2,1,2"
        assert lines[4] == "11,1,3,-4"
        assert len(lines) == 7

    def test_unwritable_directory_is_a_config_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(InvalidParameterError, match="cannot write"):
            write_outputs(RunOutputs(summary={}), blocker / "sub")


class TestCli:
    def test_simulate_writes_everything(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path, snapshot_times=[0.6])
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_OK
        out = Path(cfg["out"])
        assert (out / "summary.json").is_file()
        assert (out / "config_echo.json").is_file()
        assert (out / "partial_norms.csv").is_file()
        # 0.6 is matched to the nearest observation time, 0.5
        assert (out / "snapshots/t_0.5000.csv").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "simulate"
        # 2 beta, minus the tail mass outside the 80-site box
        assert summary["total_norm"] == pytest.approx(0.4, abs=1e-4)
        assert set(summary["final_fractions"]) == {"1", "11"}
        echo = json.loads((out / "config_echo.json").read_text())
        assert parse_config(echo) == load_config(path)
        printed = capsys.readouterr().out.splitlines()
        assert f"wrote {cfg['out']}/summary.json" in printed

    def test_default_snapshots_are_first_and_last(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_OK
        snaps = sorted(p.name for p in (Path(cfg["out"]) / "snapshots").iterdir())
        assert snaps == ["t_0.0000.csv", "t_1.0000.csv"]

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "none.json")
        assert run_cli(["simulate", "--config", missing]) == EXIT_CONFIG
        assert "invalid configuration" in capsys.readouterr().err

    def test_simulate_requires_t_final(self, tmp_path):
        path, _ = write_config(tmp_path, sim={"dt": 0.01})
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_CONFIG

    def test_broken_rule_rejects_sum_rule_couplings(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            experiment="broken-rule",
            topology={"gammas": [1.0, 1.5, 3.0], "truncation": 150},
            soliton={"alpha": ALPHA_FIG4, "beta": 0.1, "n0": -60.0},
            sim={"dt": 0.01},
        )
        assert run_cli(["broken-rule", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_2(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            topology={"gammas": [1.0, 1.0], "truncation": 20},
            sim={"dt": 50.0, "t_final": 500.0},
        )
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_short_leaves_exit_3(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            experiment="bifurcation",
            topology={"gammas": [1.0, 1.5, 3.0], "truncation": 100},
            soliton={"alpha": ALPHA_FIG4, "beta": 0.1, "n0": -60.0},
            sim={"dt": 0.01},
        )
        assert run_cli(["bifurcation", "--config", str(path)]) == EXIT_INCONCLUSIVE
        assert "inconclusive" in capsys.readouterr().err

    def test_audit_accepts_one_site_internal_bonds(self, tmp_path):
        config = json.loads((CONFIGS / "tree_audit.json").read_text())
        for child in config["topology"]["tree"]["children"]:
            child["length"] = 1
        config["sim"]["t_final"] = 5.0
        config["out"] = str(tmp_path / "results")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(["conserved-audit", "--config", str(path)]) == EXIT_OK
        summary = json.loads((tmp_path / "results" / "summary.json").read_text())
        assert max(summary["max_relative_drifts"].values()) < 1e-6

    def test_audit_refuses_recursion_orders_on_a_broken_rule(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, topology={"gammas": [0.5, 1.5, 3.0], "truncation": 40}, m_max=4
        )
        assert run_cli(["conserved-audit", "--config", str(path)]) == EXIT_CONFIG
        assert "sum rule" in capsys.readouterr().err
        code = run_cli(["conserved-audit", "--config", str(path), "--m-max", "3"])
        assert code == EXIT_OK

    def test_usage_errors_raise_system_exit(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            run_cli(["unknown-command", "--config", "x.json"])

    def test_subcommand_overrides_config_experiment(self, tmp_path):
        # config says simulate; invoking conserved-audit must win
        path, cfg = write_config(tmp_path, m_max=2)
        assert run_cli(["conserved-audit", "--config", str(path)]) == EXIT_OK
        out = Path(cfg["out"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "conserved-audit"
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["experiment"] == "conserved-audit"
        lines = (out / "drift.csv").read_text().splitlines()
        assert lines[0] == "time,N,ReZ,ImZ,E,J,ReC2,ImC2"
        assert summary["max_relative_drifts"]["N"] < 1e-8

    def test_m_max_flag_overrides_config(self, tmp_path):
        path, cfg = write_config(tmp_path, m_max=2)
        code = run_cli(
            ["conserved-audit", "--config", str(path), "--m-max", "3"]
        )
        assert code == EXIT_OK
        lines = (Path(cfg["out"]) / "drift.csv").read_text().splitlines()
        assert lines[0] == "time,N,ReZ,ImZ,E,J,ReC2,ImC2,ReC3,ImC3"

    def test_truncation_flag_overrides_topology(self, tmp_path):
        path, cfg = write_config(tmp_path)
        code = run_cli(
            ["simulate", "--config", str(path), "--truncation", "60"]
        )
        assert code == EXIT_OK
        echo = json.loads((Path(cfg["out"]) / "config_echo.json").read_text())
        assert echo["topology"]["truncation"] == 60
        assert all(b["length"] == 60 for b in echo["topology"]["bonds"])

    def test_reruns_are_bitwise_identical(self, tmp_path):
        path, cfg = write_config(tmp_path, snapshot_times=[0.0, 1.0])
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_OK
        first = tmp_path / "first"
        shutil.copytree(cfg["out"], first)
        assert run_cli(["simulate", "--config", str(path)]) == EXIT_OK
        comparison = filecmp.dircmp(first, cfg["out"])

        def assert_identical(cmp):
            assert not cmp.left_only and not cmp.right_only
            match, mismatch, errors = filecmp.cmpfiles(
                cmp.left, cmp.right, cmp.common_files, shallow=False
            )
            assert not mismatch and not errors
            for sub in cmp.subdirs.values():
                assert_identical(sub)

        assert_identical(comparison)
