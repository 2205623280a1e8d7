import json
import os

import numpy as np
import pytest

from hedgenet.cli import DEFAULT_CONFIG, config_hash, load_config, main


def write_config(path, body):
    path.write_text(json.dumps(body))
    return str(path)


DIGITAL_CFG = {
    "payoff": {"key": "digital", "params": {"K": 1.0}, "T": 1.0},
    "nets": {"n_list": [8, 16, 32, 64]},
    "engine": {"N": 5000, "master_seed": 123},
}

QUAD_CFG = {
    "model": {"case": "C1", "d": 1, "x0": [0.0]},
    "payoff": {"key": "bm_quadratic", "params": {}, "T": 1.0},
    "nets": {
        "families": [{"family": "equidistant"}],
        "n_list": [8, 16, 32, 64],
    },
    "engine": {"N": 20000, "master_seed": 7},
}


class TestNetCommand:
    def test_equidistant(self, tmp_path, capsys):
        out = tmp_path / "net.csv"
        assert main(["net", "--T", "1", "--n", "4", "--eta", "0",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t"
        assert [float(v) for v in lines[1:]] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_eta_half(self, tmp_path):
        out = tmp_path / "net.csv"
        assert main(["net", "--T", "1", "--n", "2", "--eta", "0.5",
                     "--out", str(out)]) == 0
        vals = [float(v) for v in out.read_text().splitlines()[1:]]
        assert vals == [0.0, 0.75, 1.0]

    def test_eta_one_rejected(self, tmp_path, capsys):
        rc = main(["net", "--T", "1", "--n", "4", "--eta", "1.0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "eta must be < 1" in capsys.readouterr().err


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        p = write_config(tmp_path / "c.json", DIGITAL_CFG)
        cfg1 = load_config(p)
        p2 = tmp_path / "c2.json"
        p2.write_text(json.dumps(cfg1))
        cfg2 = load_config(str(p2))
        assert cfg1 == cfg2

    def test_hash_stable_under_key_reordering(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.json", DIGITAL_CFG))
        shuffled = {k: cfg[k] for k in reversed(list(cfg))}
        assert config_hash(cfg) == config_hash(shuffled)

    def test_defaults_materialized(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.json", DIGITAL_CFG))
        assert cfg["engine"]["mode"] == "terminal"
        assert cfg["model"]["case"] == "C2"
        assert cfg["nets"]["families"] == DEFAULT_CONFIG["nets"]["families"]

    def test_unknown_block_rejected(self, tmp_path, capsys):
        p = write_config(tmp_path / "bad.json", {"modle": {}})
        rc = main(["rate", "--config", p, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = main(["rate", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_env_seed_override(self, tmp_path, monkeypatch):
        p = write_config(tmp_path / "c.json", DIGITAL_CFG)
        monkeypatch.setenv("HEDGENET_SEED", "999")
        cfg = load_config(p)
        assert cfg["engine"]["master_seed"] == 999
        monkeypatch.setenv("HEDGENET_SEED", "abc")
        with pytest.raises(Exception):
            load_config(p)


class TestRateCommand:
    def test_quadratic_slopes(self, tmp_path):
        p = write_config(tmp_path / "q.json", QUAD_CFG)
        out = tmp_path / "run"
        assert main(["rate", "--config", p, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        fam = summary["families"][0]
        assert fam["slope"] == pytest.approx(-0.5, abs=0.02)
        assert (out / "rate_fit.csv").exists()
        assert (out / "manifest.json").exists()

    def test_digital_families_and_auto_eta(self, tmp_path):
        p = write_config(tmp_path / "d.json", DIGITAL_CFG)
        out = tmp_path / "run"
        assert main(["rate", "--config", p, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        by_family = {f["family"]: f for f in summary["families"]}
        assert by_family["eta"]["eta"] == 0.75  # from the theta hint
        assert by_family["eta"]["slope"] < by_family["equidistant"]["slope"]

    def test_rerun_byte_identical(self, tmp_path):
        p = write_config(tmp_path / "d.json", DIGITAL_CFG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["rate", "--config", p, "--out", str(out1)]) == 0
        assert main(["rate", "--config", p, "--out", str(out2),
                     "--workers", "4"]) == 0
        for name in ("rate_fit.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_running_sup_mode(self, tmp_path):
        cfg = dict(QUAD_CFG, engine={"N": 2000, "master_seed": 7,
                                     "monitor_factor": 4})
        runs = {}
        for mode in ("terminal", "running_sup"):
            cfg["engine"]["mode"] = mode
            p = write_config(tmp_path / f"{mode}.json", cfg)
            out = tmp_path / mode
            assert main(["rate", "--config", p, "--out", str(out)]) == 0
            rows = (out / "rate_fit.csv").read_text().splitlines()[1:]
            runs[mode] = [float(r.split(",")[1]) for r in rows]
        # the running sup includes the terminal error on every path
        assert all(s > t for s, t in zip(runs["running_sup"],
                                         runs["terminal"]))

    def test_mode_rejected_before_simulating(self, tmp_path, capsys):
        for cmd, mode in (("rate", "both"), ("simulate", "sup")):
            cfg = dict(QUAD_CFG, engine={"N": 2000, "mode": mode})
            p = write_config(tmp_path / f"{cmd}.json", cfg)
            out = tmp_path / cmd
            assert main([cmd, "--config", p, "--out", str(out)]) == 2
            assert "engine.mode must be one of" in capsys.readouterr().err
            assert not out.exists()

    def test_unrepresentable_net_fails_before_simulating(self, tmp_path,
                                                         capsys):
        cfg = dict(DIGITAL_CFG, nets={
            "families": [{"family": "equidistant"},
                         {"family": "eta", "eta": 0.9}],
            "n_list": [8, 16, 32, 64, 128, 256],
        })
        p = write_config(tmp_path / "d.json", cfg)
        for cmd in ("rate", "simulate"):
            out = tmp_path / cmd
            assert main([cmd, "--config", p, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            # n = 8 ... 32 are representable; n = 64 is the first that is not
            assert "eta=0.9 and n=64" in err
            assert "double precision" in err
            assert not out.exists()

    def test_families_with_the_same_net_share_one_sweep(self, tmp_path,
                                                        monkeypatch):
        import hedgenet.cli as cli

        calls = []
        real = cli.error_curve
        monkeypatch.setattr(
            cli, "error_curve",
            lambda *a, **k: calls.append(a[3]) or real(*a, **k),
        )
        cfg = dict(DIGITAL_CFG, payoff={"key": "call", "params": {"K": 1.0},
                                        "T": 1.0})
        p = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "run"
        assert main(["rate", "--config", p, "--out", str(out)]) == 0
        assert calls == [0.0]  # the call's auto eta is 0: equidistant
        rows = (out / "rate_fit.csv").read_text().splitlines()[1:]
        eq = [r.replace(",equidistant,", ",") for r in rows
              if ",equidistant," in r]
        eta = [r.replace(",eta,", ",") for r in rows if ",eta," in r]
        assert eq == eta and len(eq) == 4
        fams = json.loads((out / "summary.json").read_text())["families"]
        assert fams[0]["ci95_slope"] == fams[1]["ci95_slope"]

    def test_manifest_contents(self, tmp_path):
        p = write_config(tmp_path / "q.json", QUAD_CFG)
        out = tmp_path / "run"
        main(["rate", "--config", p, "--out", str(out)])
        man = json.loads((out / "manifest.json").read_text())
        assert man["config_sha256"] == config_hash(man["config"])
        assert set(man["outputs"]) == {"rate_fit.csv", "summary.json"}


class TestThetaH2Commands:
    def test_theta(self, tmp_path):
        cfg = dict(DIGITAL_CFG)
        cfg["analysis"] = {"theta_N": 20000}
        p = write_config(tmp_path / "d.json", cfg)
        out = tmp_path / "run"
        assert main(["theta", "--config", p, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["theta_hat"] == pytest.approx(0.75, abs=0.1)
        assert summary["eta_chosen"] == pytest.approx(summary["theta_hat"])
        rows = (out / "theta_fit.csv").read_text().splitlines()
        assert rows[0] == "t,m_t,stderr"
        assert len(rows) == 21

    def test_h2(self, tmp_path):
        cfg = dict(DIGITAL_CFG)
        cfg["analysis"] = {"theta_N": 20000}
        p = write_config(tmp_path / "d.json", cfg)
        out = tmp_path / "run"
        assert main(["h2", "--config", p, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["positive_3se"] is True


class TestSimulateAndReport:
    def test_simulate_csv(self, tmp_path):
        cfg = dict(DIGITAL_CFG)
        cfg["nets"] = {"families": [{"family": "equidistant"}], "n_list": [4, 8]}
        p = write_config(tmp_path / "d.json", cfg)
        out = tmp_path / "run"
        assert main(["simulate", "--config", p, "--out", str(out),
                     "--dump-paths", "3"]) == 0
        rows = (out / "experiments.csv").read_text().splitlines()
        assert rows[0].startswith("family,eta,n,M,N,mode")
        assert len(rows) == 3
        paths = (out / "path_errors.csv").read_text().splitlines()
        assert len(paths) == 4
        term, sup = (abs(float(v)) for v in paths[1].split(",")[1:])
        assert sup >= term

    def test_report_aggregates(self, tmp_path, capsys):
        p = write_config(tmp_path / "d.json", DIGITAL_CFG)
        main(["rate", "--config", p, "--out", str(tmp_path / "runs" / "dig")])
        cfg = dict(DIGITAL_CFG)
        cfg["analysis"] = {"theta_N": 20000}
        p2 = write_config(tmp_path / "d2.json", cfg)
        main(["theta", "--config", p2, "--out", str(tmp_path / "runs" / "th")])
        rc = main(["report", "--dir", str(tmp_path / "runs")])
        assert rc == 0
        text = (tmp_path / "runs" / "report.txt").read_text()
        assert "equidistant" in text and "theta" in text
        assert (tmp_path / "runs" / "report.csv").exists()

    def test_report_empty_dir(self, tmp_path):
        assert main(["report", "--dir", str(tmp_path)]) == 1

    def test_report_corrupted_summary(self, tmp_path, capsys):
        run = tmp_path / "r"
        run.mkdir()
        (run / "summary.json").write_text("{broken")
        rc = main(["report", "--dir", str(tmp_path)])
        assert rc == 1
        assert "summary.json" in capsys.readouterr().err
