import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hedgenet.cli import (DEFAULT_CONFIG, SCHEMA, config_hash, load_config,
                          main)
from hedgenet.rng import ArgumentError


def write_config(path, body):
    path.write_text(json.dumps(body))
    return str(path)


DIGITAL_CFG = {
    "payoff": {"key": "digital", "params": {"K": 1.0}, "T": 1.0},
    "nets": {"n_list": [8, 16, 32, 64]},
    "engine": {"N": 5000, "master_seed": 123},
}

#: every config command
ALL = ("rate", "simulate", "theta", "h2")

NOT_PRICED = "the payoff's price is not the model's: "

QUAD_CFG = {
    "model": {"case": "C1", "d": 1, "x0": [0.0]},
    "payoff": {"key": "bm_quadratic", "params": {}, "T": 1.0},
    "nets": {
        "families": [{"family": "equidistant"}],
        "n_list": [8, 16, 32, 64],
    },
    "engine": {"N": 20000, "master_seed": 7},
}


def read_net(path):
    """The (t, tau) rows of a net CSV."""
    lines = path.read_text().splitlines()
    assert lines[0] == "t,tau"
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


class TestNetCommand:
    def test_equidistant(self, tmp_path, capsys):
        out = tmp_path / "net.csv"
        assert main(["net", "--T", "1", "--n", "4", "--eta", "0",
                     "--out", str(out)]) == 0
        assert read_net(out) == [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5),
                                 (0.75, 0.25), (1.0, 0.0)]

    def test_eta_half(self, tmp_path):
        out = tmp_path / "net.csv"
        assert main(["net", "--T", "1", "--n", "2", "--eta", "0.5",
                     "--out", str(out)]) == 0
        assert read_net(out) == [(0.0, 1.0), (0.75, 0.25), (1.0, 0.0)]

    @pytest.mark.parametrize("n, eta", [(256, 0.9), (4096, 0.8), (8, 0.95),
                                        (512, 0.95), (64, 0.99)])
    def test_nets_whose_dates_round_to_maturity(self, tmp_path, n, eta):
        # near maturity these nets' dates round to T; their times to
        # maturity stay strictly decreasing down to 0
        out = tmp_path / "net.csv"
        assert main(["net", "--T", "1", "--n", str(n), "--eta", str(eta),
                     "--out", str(out)]) == 0
        rows = read_net(out)
        t, tau = (np.array(c) for c in zip(*rows))
        assert len(rows) == n + 1
        assert tau[0] == 1.0 and tau[-1] == 0.0 and np.all(np.diff(tau) < 0)
        assert tau[-2] == (1.0 / n) ** (1.0 / (1.0 - eta))
        assert np.array_equal(t, 1.0 - tau)
        if (n, eta) == (256, 0.9):
            assert tau[-2] == pytest.approx(8.27e-25, rel=1e-3)

    def test_underflowing_net_rejected(self, tmp_path, capsys):
        out = tmp_path / "net.csv"
        assert main(["net", "--T", "1", "--n", "8", "--eta", "0.999",
                     "--out", str(out)]) == 2
        assert "underflows to 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("T", ["inf", "nan", "0"])
    def test_horizon_not_finite_and_positive_rejected(self, tmp_path, capsys,
                                                       T):
        out = tmp_path / "net.csv"
        assert main(["net", "--T", T, "--n", "4", "--out", str(out)]) == 2
        assert (f"horizon must be positive and finite, not {float(T)!r}"
                in capsys.readouterr().err)
        assert not out.exists()

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

    def test_readme_table_is_the_schema(self):
        # README's validated-ranges table gives each SCHEMA row, in order:
        # its key, readers, default and rule
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("| Key | Read by | Default | Rule |")[1]
        rows = [re.split(r"\s*(?<!\\)\|\s*", line)[1:5]
                for line in table.split("\n\n")[0].splitlines()[2:]]
        assert rows == [
            [f"`{block}.{key}`", ", ".join(readers or ["all"]),
             f"`{json.dumps(default)}`", rule]
            for block, key, readers, default, (rule, _) in SCHEMA]

    def test_unknown_block_rejected(self, tmp_path, capsys):
        # nothing reads an output block, so it is not a config block
        for block in ("modle", "output"):
            p = write_config(tmp_path / "bad.json", {block: {}})
            out = tmp_path / "o"
            assert main(["rate", "--config", p, "--out", str(out)]) == 2
            assert f"unknown config block {block!r}" in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # a misspelt key would run on its default while the manifest
        # records it as if it had been used
        for block, key in (("model", "vol"), ("payoff", "strike"),
                           ("nets", "n"), ("engine", "workerz"),
                           ("analysis", "theta_n")):
            p = write_config(tmp_path / "bad.json",
                             dict(DIGITAL_CFG, **{block: {key: 1}}))
            for cmd in ("rate", "theta"):
                out = tmp_path / cmd
                assert main([cmd, "--config", p, "--out", str(out)]) == 2
                assert (f"unknown config key {block}.{key}"
                        in capsys.readouterr().err)
                assert not out.exists()

    @pytest.mark.parametrize("seed, env, bad", [
        (-1, None, "-1"), (2**64, None, str(2**64)), (1.5, None, "1.5"),
        (True, None, "True"), ("7", None, "'7'"),
        # a seed in the environment is no override of the config's
        (-1, "5", "-1"),
    ])
    def test_master_seed_is_checked_before_work(self, tmp_path, capsys,
                                                monkeypatch, seed, env, bad):
        import hedgenet.models as models

        monkeypatch.setattr(models, "normals", None)  # no path is drawn
        if env is not None:
            monkeypatch.setenv("HEDGENET_SEED", env)
        p = write_config(tmp_path / "d.json", dict(
            DIGITAL_CFG, engine=dict(DIGITAL_CFG["engine"], master_seed=seed)))
        for cmd in ("rate", "theta"):
            out = tmp_path / cmd
            assert main([cmd, "--config", p, "--out", str(out)]) == 2
            assert (f"engine.master_seed must be an integer with 0 <= seed "
                    f"< 2**64, not {bad}" in capsys.readouterr().err)
            assert not out.exists()

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = main(["rate", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_the_seed_comes_from_the_config_alone(self, tmp_path,
                                                  monkeypatch):
        p = write_config(tmp_path / "c.json", dict(
            DIGITAL_CFG, engine=dict(DIGITAL_CFG["engine"], N=1000)))
        runs = []
        for env in (None, "5"):
            if env is not None:
                monkeypatch.setenv("HEDGENET_SEED", env)
            out = tmp_path / f"run-{env}"
            assert main(["rate", "--config", p, "--out", str(out)]) == 0
            man = json.loads((out / "manifest.json").read_text())
            runs.append([(out / name).read_bytes()
                         for name in ("rate_fit.csv", "summary.json")]
                        + [man["config"], man["config_sha256"]])
        assert runs[0] == runs[1]
        assert runs[1][2]["engine"]["master_seed"] == 123


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
                         {"family": "eta", "eta": 0.995}],
            "n_list": [8, 16, 32, 64, 128, 256],
        })
        p = write_config(tmp_path / "d.json", cfg)
        for cmd in ("rate", "simulate"):
            out = tmp_path / cmd
            assert main([cmd, "--config", p, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            # n = 8 ... 32 are representable; at n = 64 the last positive
            # time to maturity (1/64)^200 underflows to 0
            assert "eta=0.995 and n=64" in err
            assert "underflows to 0" in err
            assert not out.exists()

    def test_digital_eta_near_one_runs(self, tmp_path):
        # eta = 0.95: from n = 8 on, the nets' dates round to T near
        # maturity, which their times to maturity do not
        cfg = dict(DIGITAL_CFG, nets={
            "families": [{"family": "eta", "eta": 0.95}],
            "n_list": [8, 16, 32, 64, 128],
        }, engine={"N": 2000, "master_seed": 5})
        p = write_config(tmp_path / "d.json", cfg)
        out = tmp_path / "run"
        assert main(["rate", "--config", p, "--out", str(out)]) == 0
        rows = (out / "rate_fit.csv").read_text().splitlines()[1:]
        rms = [float(r.split(",")[1]) for r in rows]
        assert len(rms) == 5 and all(np.isfinite(rms)) and min(rms) > 0.0
        [fam] = json.loads((out / "summary.json").read_text())["families"]
        assert fam["eta"] == 0.95 and np.isfinite(fam["slope"])

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
        # one pass, of one family: the call's auto eta is 0, equidistant
        assert calls == [[0.0]]
        rows = (out / "rate_fit.csv").read_text().splitlines()[1:]
        eq = [r.replace(",equidistant,", ",") for r in rows
              if ",equidistant," in r]
        eta = [r.replace(",eta,", ",") for r in rows if ",eta," in r]
        assert eq == eta and len(eq) == 4
        fams = json.loads((out / "summary.json").read_text())["families"]
        assert fams[0]["ci95_slope"] == fams[1]["ci95_slope"]

    def test_zero_strike_power_auto_eta_is_equidistant(self, tmp_path):
        # x^alpha is smooth (theta 0), so its auto eta is the equidistant
        # net's
        cfg = dict(DIGITAL_CFG, payoff={"key": "power",
                                        "params": {"K": 0.0}, "T": 1.0})
        p = write_config(tmp_path / "p.json", cfg)
        out = tmp_path / "run"
        assert main(["rate", "--config", p, "--out", str(out)]) == 0
        fams = json.loads((out / "summary.json").read_text())["families"]
        assert [(f["family"], f["eta"]) for f in fams] == [
            ("equidistant", 0), ("eta", 0)]
        assert fams[0]["slope"] == fams[1]["slope"]

    def test_two_families_match_one_family_runs(self, tmp_path):
        # both families run in one pass that draws each step index once;
        # each family's rows and fit are those of a run with it alone
        fams = [{"family": "equidistant"}, {"family": "eta", "eta": 0.75}]
        runs = {}
        for key, families in (("both", fams), ("eq", fams[:1]),
                              ("eta", fams[1:])):
            cfg = dict(DIGITAL_CFG, nets={"families": families,
                                          "n_list": [8, 12, 16, 24]})
            p = write_config(tmp_path / f"{key}.json", cfg)
            out = tmp_path / key
            assert main(["rate", "--config", p, "--out", str(out)]) == 0
            runs[key] = ((out / "rate_fit.csv").read_bytes().splitlines(),
                         json.loads((out / "summary.json").read_text()))
        rows, summary = runs["both"]
        assert rows == runs["eq"][0] + runs["eta"][0][1:]
        assert summary["families"] == (runs["eq"][1]["families"]
                                       + runs["eta"][1]["families"])

    @pytest.mark.parametrize("cmd, attr", [("rate", "error_curve"),
                                           ("simulate", "error_curve")])
    def test_value_error_mid_run_is_a_runtime_error(self, tmp_path, capsys,
                                                    monkeypatch, cmd, attr):
        import hedgenet.cli as cli

        def fail(*a, **k):
            raise ValueError("non-finite hedge error")

        monkeypatch.setattr(cli, attr, fail)
        p = write_config(tmp_path / "d.json", DIGITAL_CFG)
        out = tmp_path / cmd
        assert main([cmd, "--config", p, "--out", str(out)]) == 1
        assert "runtime error: non-finite hedge error" in capsys.readouterr().err
        # the output directory is made only after a run succeeds
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["rate", "simulate"])
    def test_argument_error_mid_run_is_a_usage_error(self, tmp_path, capsys,
                                                     monkeypatch, cmd):
        # exit 2 is any ArgumentError, whether the CLI or the library
        # raises it
        import hedgenet.cli as cli

        def fail(*a, **k):
            raise ArgumentError("n_list must be ascending")

        monkeypatch.setattr(cli, "error_curve", fail)
        p = write_config(tmp_path / "d.json", DIGITAL_CFG)
        out = tmp_path / cmd
        assert main([cmd, "--config", p, "--out", str(out)]) == 2
        assert "error: n_list must be ascending" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block, cmds, message", [
        ({"model": {"x0": [-1.0]}}, ("rate", "simulate"),
         "invalid model block"),
        ({"engine": {"N": 0}}, ("rate", "simulate"),
         "engine.N must be a positive integer"),
        # simulate fits no rate, so it runs any n_list
        ({"nets": {"n_list": [4, 8, 16, 32]}}, ("rate",),
         "at least 4 values of n >= 8"),
        # the model picks its sampler, so a scheme is no config key
        ({"engine": {"scheme": "exact"}}, ("rate", "simulate"),
         "unknown config key engine.scheme"),
        # a fractional n is rejected, not truncated to another net
        ({"nets": {"n_list": [8, 16.5, 32, 64]}}, ("rate", "simulate"),
         "n must be a positive integer"),
        ({"nets": {"n_list": [8, "16", 32, 64]}}, ("rate", "simulate"),
         "n must be a positive integer"),
        ({"nets": {"n_list": [16, 8, 32, 64]}}, ("rate", "simulate"),
         "n_list must be ascending"),
        ({"nets": {"n_list": 5}}, ("rate", "simulate"),
         "nets.n_list must be a JSON list"),
        ({"nets": {"families": ["eta"]}}, ("rate", "simulate"),
         "nets.families must be a JSON list of objects"),
        ({"nets": {"families": "eta"}}, ("rate", "simulate"),
         "nets.families must be a JSON list of objects"),
        # the model's arrays are finite and of its shape, corr is positive
        # definite
        ({"model": {"s": [float("nan")]}}, ("rate", "simulate"),
         "vols must be finite with shape (1,)"),
        ({"model": {"x0": [float("inf")]}}, ("rate", "simulate"),
         "x0 must be finite with shape (1,)"),
        ({"model": {"case": "C1", "x0": [0.0], "sigma": [1.0]}},
         ("rate", "simulate"), "const_sigma must be finite with shape (1, 1)"),
        ({"model": {"case": "C1", "x0": [0.0], "drift": [1.0, 2.0]}},
         ("rate", "simulate"), "const_drift must be finite with shape (1,)"),
        ({"model": {"d": 2, "s": [1.0, 1.0], "x0": [1.0, 1.0],
                    "corr": [[1.0, 2.0], [2.0, 1.0]]}}, ("rate", "simulate"),
         "corr must be positive definite"),
        ({"model": {"d": 1.5}}, ("rate", "simulate"),
         "model.d must be a positive integer, not 1.5"),
        # each case refuses the other case's keys
        ({"model": {"sigma": [[2.0]]}}, ("rate", "simulate"),
         "model.sigma must be null in case C2"),
        ({"model": {"drift": [0.1]}}, ("rate", "simulate"),
         "model.drift must be null in case C2"),
        ({"model": {"case": "C1", "x0": [0.0], "mu": [0.3]}},
         ("rate", "simulate"), "model.mu must be null in case C1"),
        # sigma has model.d rows, and the vectors length 1 or model.d
        ({"model": {"case": "C1", "d": 1, "x0": [0.0],
                    "sigma": [[1.0, 0.0], [0.0, 1.0]]}}, ("rate", "simulate"),
         "model.sigma must have shape (model.d, model.d) = (1, 1), not "
         "(2, 2)"),
        ({"model": {"case": "C1", "d": 2, "x0": [0.0, 0.0], "sigma": 1.0}},
         ("rate", "simulate"),
         "model.sigma must have shape (model.d, model.d) = (2, 2), not ()"),
        ({"model": {"d": 2, "s": [1.0, 1.0, 1.0], "x0": [1.0, 1.0]}},
         ("rate", "simulate"),
         "s must be a scalar or a vector of length 1 or d = 2, not shape "
         "(3,)"),
        # a price takes its vols and d from the model, which alone sets them
        ({"model": {"case": "C1", "x0": [0.0], "s": [1.0]},
          "payoff": {"key": "bm_quadratic", "params": {}, "T": 1.0}}, ALL,
         "model.s must be null in case C1"),
        ({"model": {"d": 2, "s": [1.0, 1.0], "x0": [1.0, 1.0]},
          "payoff": {"key": "product", "T": 1.0, "params": {"factors": [
              {"kind": "call"}, {"kind": "digital", "s": 1.0}]}}}, ALL,
         "payoff.params.factors[1].s is not a payoff key: a price takes it "
         "from model.s"),
        ({"model": {"d": 2, "s": [1.0, 1.0], "x0": [1.0, 1.0]},
          "payoff": {"key": "sum_digital_2d", "T": 1.0,
                     "params": {"s": [1.0, 1.0]}}}, ALL,
         "payoff.params.s is not a payoff key: a price takes it from "
         "model.s"),
        ({"model": {"case": "C1", "x0": [0.0]},
          "payoff": {"key": "bm_quadratic", "params": {"d": 1}, "T": 1.0}},
         ALL, "payoff.params.d is not a payoff key: a price takes it from "
         "model.d"),
        # a malformed payoff block
        ({"payoff": {"key": "digital", "params": ["K"], "T": 1.0}}, ALL,
         "payoff.params must be a JSON object, not ['K']"),
        ({"payoff": {"key": "product", "params": {"factors": ["call"]},
                     "T": 1.0}}, ALL,
         "payoff.params.factors must be a JSON list of objects, not "
         "['call']"),
        ({"payoff": {"key": "product", "params": {"factors": "call"},
                     "T": 1.0}}, ALL,
         "payoff.params.factors must be a JSON list of objects, not 'call'"),
        ({"payoff": {"key": "product", "T": 1.0, "params": {
            "factors": [{"kind": "call", "K": "x"}]}}}, ALL,
         "K, alpha and s must be finite real numbers"),
        # one horizon rule: finite and positive
        ({"payoff": {"key": "digital", "params": {}, "T": 1e309}}, ALL,
         "horizon must be positive and finite, not inf"),
        ({"payoff": {"key": "digital", "params": {}, "T": float("nan")}},
         ALL, "horizon must be positive and finite, not nan"),
        # a misspelt or foreign key of a nested object used to run on its
        # default, recorded in the manifest as if it had been read
        ({"payoff": {"key": "digital", "params": {"k": 2.0}}}, ALL,
         "unknown config key payoff.params.k"),
        ({"payoff": {"key": "digital", "params": {"alpha": 0.3}}}, ALL,
         "payoff.params.alpha must be null in payoff digital"),
        ({"nets": {"families": [{"family": "eta", "etta": 0.5}]}}, ALL,
         "unknown config key nets.families[0].etta"),
        ({"nets": {"families": [{"family": "equidistant", "eta": 0.5}]}},
         ALL, "nets.families[0].eta must be null in family equidistant"),
        ({"payoff": {"key": "product", "params": {"factors": [
            {"kind": "power", "alpah": 0.4}]}}}, ALL,
         "unknown config key payoff.params.factors[0].alpah"),
        ({"model": {"d": 2, "s": [1.0, 1.0], "x0": [1.0, 1.0]},
          "payoff": {"key": "sum_digital_2d", "params": {"lamda": [1, 0]}}},
         ALL, "unknown config key payoff.params.lamda"),
        # an unknown key in each block and in each factor kind
        ({"model": {"vol": [1.0]}}, ALL, "unknown config key model.vol"),
        ({"payoff": {"key": "call", "strike": 1.0}}, ALL,
         "unknown config key payoff.strike"),
        ({"nets": {"n": [8]}}, ALL, "unknown config key nets.n"),
        ({"engine": {"seed": 1}}, ALL, "unknown config key engine.seed"),
        ({"analysis": {"theta_n": 10}}, ALL,
         "unknown config key analysis.theta_n"),
        *(({"payoff": {"key": "product", "params": {"factors": [
            {"kind": kind, "strike": 1.0}]}}}, ALL,
           "unknown config key payoff.params.factors[0].strike")
          for kind in ("call", "digital", "power", "const")),
        # eta is 'auto' or a JSON number that the net takes
        ({"nets": {"families": [{"family": "eta", "eta": "0.5"}]}}, ALL,
         "nets.families[0].eta must be 'auto' or a number, not '0.5'"),
        ({"nets": {"families": [{"family": "eta", "eta": False}]}}, ALL,
         "nets.families[0].eta must be 'auto' or a number, not False"),
        ({"nets": {"families": [{"family": "eta", "eta": 1.0}]}}, ALL,
         "eta must be < 1 (and >= 0)"),
        # theta and h2 check the engine block too
        ({"engine": {"N": 0}}, ("theta", "h2"),
         "engine.N must be a positive integer, not 0"),
        ({"engine": {"mode": "sup"}}, ("theta", "h2"),
         "engine.mode must be one of terminal, running_sup, both, not 'sup'"),
        # a repeated n is refused before any draw: it would fit one point
        # twice, or fail the fit only after the sweep
        ({"nets": {"n_list": [8, 8, 16, 32, 64]}}, ("rate", "simulate"),
         "n_list must be ascending, each n once"),
        ({"nets": {"n_list": [8, 8, 8, 8]}}, ("rate",),
         "at least 4 values of n >= 8, each counted once"),
        ({"nets": {"n_list": [8, 8, 8, 8]}}, ("simulate",),
         "n_list must be ascending, each n once"),
    ])
    def test_invalid_block_is_a_usage_error(self, tmp_path, capsys,
                                            monkeypatch, block, cmds,
                                            message):
        import hedgenet.models as models

        monkeypatch.setattr(models, "normals", None)  # no path is drawn
        p = write_config(tmp_path / "d.json", dict(DIGITAL_CFG, **block))
        for cmd in cmds:
            out = tmp_path / cmd
            assert main([cmd, "--config", p, "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("cmd, engine, flags, bad", [
        ("simulate", {"mode": "running_sup", "monitor_factor": 0}, [],
         "monitor_factor must be a positive integer, not 0"),
        ("simulate", {"mode": "running_sup", "monitor_factor": 1.5}, [],
         "monitor_factor must be a positive integer, not 1.5"),
        ("simulate", {"mode": "running_sup", "monitor_factor": "x"}, [],
         "monitor_factor must be a positive integer, not 'x'"),
        ("rate", {"workers": "two"}, [],
         "workers must be a positive integer, not 'two'"),
        ("rate", {"workers": 0}, [],
         "workers must be a positive integer, not 0"),
        ("rate", {"workers": -3}, [],
         "workers must be a positive integer, not -3"),
        ("rate", {"workers": 2.5}, [],
         "workers must be a positive integer, not 2.5"),
        ("rate", {}, ["--workers", "0"],
         "workers must be a positive integer, not 0"),
    ])
    def test_engine_counts_are_checked_before_simulating(
            self, tmp_path, capsys, monkeypatch, cmd, engine, flags, bad):
        import hedgenet.models as models

        monkeypatch.setattr(models, "normals", None)  # no path is drawn
        cfg = dict(DIGITAL_CFG, engine=dict(DIGITAL_CFG["engine"], **engine))
        p = write_config(tmp_path / "d.json", cfg)
        out = tmp_path / cmd
        assert main([cmd, "--config", p, "--out", str(out), *flags]) == 2
        assert f"error: engine.{bad}" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch_is_a_usage_error(self, tmp_path, capsys):
        # a one-asset call on a two-asset model, rejected before any path
        cfg = dict(DIGITAL_CFG, payoff={"key": "call", "params": {},
                                        "T": 1.0},
                   model={"case": "C2", "d": 2, "s": [1.0, 1.0],
                          "x0": [1.0, 1.0]})
        p = write_config(tmp_path / "c.json", cfg)
        for cmd in ("rate", "simulate", "theta", "h2"):
            out = tmp_path / cmd
            assert main([cmd, "--config", p, "--out", str(out)]) == 2
            assert ("the payoff has dimension 1, the model 2"
                    in capsys.readouterr().err)
            assert not out.exists()

    # each exited 0 with a wrong rate before pricing.check_priced; a vol of
    # the payoff's own is no payoff key now
    @pytest.mark.parametrize("model, payoff, rule", [
        ({}, {"key": "digital", "params": {"K": 1.0, "s": 2.0}},
         "payoff.params.s is not a payoff key: a price takes it from "
         "model.s"),
        ({"d": 2, "s": [1.0, 1.0], "x0": [1.0, 1.0],
          "corr": [[1.0, 0.9], [0.9, 1.0]]},
         {"key": "product",
          "params": {"factors": [{"kind": "call"}, {"kind": "call"}]}},
         f"{NOT_PRICED}it is priced for independent assets, and corr is not "
         "the identity"),
    ], ids=["digital-vol", "call-call-corr"])
    def test_payoff_the_model_does_not_price_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, model, payoff, rule):
        import hedgenet.models as models

        monkeypatch.setattr(models, "normals", None)  # no path is drawn
        p = write_config(tmp_path / "c.json",
                         dict(DIGITAL_CFG, model=model, payoff=payoff))
        for cmd in ("rate", "simulate", "theta", "h2"):
            out = tmp_path / cmd
            assert main([cmd, "--config", p, "--out", str(out)]) == 2
            assert "error: " + rule in capsys.readouterr().err
            assert not out.exists()

    def test_bm_quadratic_prices_at_the_models_tr_a(self, tmp_path):
        # at sigma = 2 every state, price and hedge of the sigma = 1 run
        # scales by a power of 2, so each error does by 4, bit for bit
        runs = []
        for sigma in (None, [[2.0]]):
            cfg = dict(QUAD_CFG, model=dict(QUAD_CFG["model"], sigma=sigma),
                       engine={"N": 2000, "master_seed": 7})
            p = write_config(tmp_path / f"{sigma}.json", cfg)
            out = tmp_path / f"run-{sigma}"
            assert main(["rate", "--config", p, "--out", str(out)]) == 0
            rows = (out / "rate_fit.csv").read_text().splitlines()[1:]
            runs.append([float(r.split(",")[1]) for r in rows])
        assert runs[1] == [4.0 * rms for rms in runs[0]]

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

    def test_h2_sum_digital(self, tmp_path):
        # the two-asset sum-digital end to end: its Hessian at 9 times
        p = write_config(tmp_path / "s.json", {
            "model": {"case": "C2", "d": 2, "s": [1.0, 1.0],
                      "x0": [1.0, 1.0]},
            "payoff": {"key": "sum_digital_2d", "params": {"K": 2.0},
                       "T": 1.0},
            "analysis": {"theta_N": 2000},
            "engine": {"master_seed": 3},
        })
        out = tmp_path / "run"
        assert main(["h2", "--config", p, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert np.isfinite(summary["h2_inf"])
        assert np.isfinite(summary["h2_inf_stderr"])
        assert summary["positive_3se"] is True

    @pytest.mark.parametrize("cmd, analysis, bad", [
        ("theta", {"theta_N": 0}, "theta_N must be an integer >= 2, not 0"),
        ("h2", {"theta_N": 0}, "theta_N must be an integer >= 2, not 0"),
        ("theta", {"theta_N": 1}, "theta_N must be an integer >= 2, not 1"),
        ("h2", {"theta_N": 1}, "theta_N must be an integer >= 2, not 1"),
        ("theta", {"theta_points": 2},
         "theta_points must be an integer >= 3, not 2"),
        ("h2", {"u_grid": [1.0]}, "u_grid must be null or a non-empty list"),
        ("h2", {"u_grid": []}, "u_grid must be null or a non-empty list"),
    ])
    def test_analysis_block_is_checked_before_work(
            self, tmp_path, capsys, monkeypatch, cmd, analysis, bad):
        import hedgenet.models as models

        monkeypatch.setattr(models, "normals", None)  # no path is drawn
        p = write_config(tmp_path / "d.json",
                         dict(DIGITAL_CFG, analysis=analysis))
        out = tmp_path / cmd
        assert main([cmd, "--config", p, "--out", str(out)]) == 2
        assert f"error: analysis.{bad}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("T", [0.001, 0.002])
    def test_theta_needs_a_default_grid_window(self, tmp_path, capsys,
                                               monkeypatch, T):
        # the default grid spans [1e-3, T/2], empty or one point for these
        import hedgenet.models as models

        monkeypatch.setattr(models, "normals", None)  # no path is drawn
        p = write_config(tmp_path / "d.json", dict(
            DIGITAL_CFG, payoff=dict(DIGITAL_CFG["payoff"], T=T)))
        out = tmp_path / "run"
        assert main(["theta", "--config", p, "--out", str(out)]) == 2
        assert (f"error: the default theta grid spans [1e-3, T/2] and needs "
                f"T > 2e-3, not T = {T:g}" in capsys.readouterr().err)
        assert not out.exists()

    def test_digital_zero_strike_is_a_usage_error(self, tmp_path, capsys):
        cfg = dict(DIGITAL_CFG, payoff={"key": "digital",
                                        "params": {"K": 0.0}, "T": 1.0})
        p = write_config(tmp_path / "d.json", cfg)
        out = tmp_path / "run"
        assert main(["theta", "--config", p, "--out", str(out)]) == 2
        assert "strike must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_sum_digital_zero_strike_is_a_usage_error(self, tmp_path,
                                                       capsys):
        p = write_config(tmp_path / "s.json", {
            "model": {"case": "C2", "d": 2, "s": [1.0, 1.0],
                      "x0": [1.0, 1.0]},
            "payoff": {"key": "sum_digital_2d", "params": {"K": 0.0},
                       "T": 1.0},
        })
        out = tmp_path / "run"
        assert main(["h2", "--config", p, "--out", str(out)]) == 2
        assert "strike must be positive" in capsys.readouterr().err
        assert not out.exists()


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

    def test_negative_dump_paths_is_a_usage_error(self, tmp_path, capsys,
                                                  monkeypatch):
        import hedgenet.models as models

        monkeypatch.setattr(models, "normals", None)  # no path is drawn
        p = write_config(tmp_path / "d.json", DIGITAL_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", p, "--out", str(out),
                     "--dump-paths", "-5"]) == 2
        assert ("--dump-paths must be an integer >= 0, not -5"
                in capsys.readouterr().err)
        assert not out.exists()

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

    @pytest.mark.parametrize("body, why", [
        ([1, 2], "the root is not a JSON object"),
        ({"command": "theta"}, "no key 'theta_hat'"),
        ({"command": "rate", "families": [{"family": "eta", "eta": 0.5,
                                           "ci95_slope": [-0.6, -0.4]}]},
         "no key 'slope'"),
    ])
    def test_report_malformed_summary(self, tmp_path, capsys, body, why):
        run = tmp_path / "r"
        run.mkdir()
        write_config(run / "summary.json", body)
        assert main(["report", "--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: unreadable summary {run / 'summary.json'}: "
                       f"{why}\n")
        assert not (tmp_path / "report.txt").exists()


def test_import_does_not_load_scipy_stats():
    # a fresh interpreter: this test process has scipy.stats loaded already
    code = ("import sys, hedgenet.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.stats')))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "[]"


def test_power_and_sum_digital_do_not_load_scipy_linalg(tmp_path):
    # the Gauss nodes come from numpy.linalg; a fresh interpreter runs a
    # power theta scan, a sum-digital value, and builds every node size
    cfg = write_config(tmp_path / "p.json", {
        "model": {"case": "C2", "d": 1, "s": [1.0], "x0": [1.0]},
        "payoff": {"key": "power", "params": {"K": 1.0, "alpha": 0.25},
                   "T": 1.0},
        "analysis": {"theta_points": 5, "theta_N": 4096},
        "engine": {"master_seed": 3},
    })
    code = (
        "import sys, numpy as np\n"
        "import hedgenet.pricing as p\n"
        "from hedgenet.cli import main\n"
        f"assert main(['theta', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "p.SumDigital2D(2.0, (1.0, 1.0), (1.0, 1.0), 1.0).value(\n"
        "    0.5, np.ones((8, 2)))\n"
        "for n in p.QUAD_NODES:\n"
        "    p._legendre01(n), p._hermite(n)\n"
        "print(sorted(m for m in sys.modules "
        "if m.startswith('scipy.linalg')))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"
