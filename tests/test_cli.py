import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trigsmooth import inequalities as iq
from trigsmooth import modulus_p2_exact, power_law_series
from trigsmooth.cli import CONFIG_KEYS, INEQ_COLUMNS, Report, main, parse_flat_config, render_csv

REPO_ROOT = Path(__file__).resolve().parents[1]

BASE_CFG = """\
series.generator = power:2:256
series.tag = monotone
params.p = 2
params.theta = 1
params.r = 0.5
params.lambda = 0.3
params.k = 1
phi.kind = power
phi.alpha = 0.4
sweep.n_values = 2,4,8
sweep.t_values = 0.5,1.0
"""


BASE_JSON = {
    "series": {"generator": "power:2:256", "tag": "monotone"},
    "params": {"p": 2, "theta": 1, "r": 0.5, "lambda": 0.3, "k": 1},
    "phi": {"kind": "power", "alpha": 0.4},
    "sweep": {"n_values": [2, 4, 8], "t_values": [0.5, 1.0]},
}


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_flat_sections_and_types(self):
        cfg = parse_flat_config("a.b = 1\na.c = 2.5,3\nd = hello  # comment\n")
        assert cfg == {"a": {"b": 1, "c": [2.5, 3]}, "d": "hello"}

    def test_flat_and_json_configs_agree(self, tmp_path):
        flat = write_cfg(tmp_path, BASE_CFG)
        as_json = {
            "series": {"generator": "power:2:256", "tag": "monotone"},
            "params": {"p": 2, "theta": 1, "r": 0.5, "lambda": 0.3, "k": 1},
            "phi": {"kind": "power", "alpha": 0.4},
            "sweep": {"n_values": [2, 4, 8], "t_values": [0.5, 1.0]},
        }
        jpath = tmp_path / "run.json"
        jpath.write_text(json.dumps(as_json))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["best-approx", "--config", flat, "--out", str(out_a), "--quiet"]) == 0
        assert main(["best-approx", "--config", str(jpath), "--out", str(out_b), "--quiet"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["modulus", "--config", "/nonexistent/nope.cfg"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"series.generator = power:2:64\n\xff\xfe = 1\n")
        assert main(["modulus", "--config", str(path)]) == 2
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_config_flag_required(self):
        assert main(["modulus"]) == 2

    def test_bad_params_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG.replace("params.k = 1", "params.k = 0"))
        assert main(["modulus", "--config", cfg]) == 2

    @pytest.mark.parametrize("old,new", [
        ("params.p = 2", "params.p = two"),
        ("series.generator = power:2:256", "series.generator = power:abc"),
        ("sweep.t_values = 0.5,1.0", "sweep.t_values = 5"),
    ])
    def test_bad_values_exit_2(self, tmp_path, capsys, old, new):
        cfg = write_cfg(tmp_path, BASE_CFG.replace(old, new))
        assert main(["modulus", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,line", [
        ("equivalence", "tolerances.slope_tol = tight"),
        ("phi-check", "sweep.grid_size = big"),
        ("ineq-sweep", "ineq.n_values = 32,many"),
    ])
    def test_bad_values_of_other_commands_exit_2(self, tmp_path, command, line):
        cfg = write_cfg(tmp_path, BASE_CFG + line + "\n")
        assert main([command, "--config", cfg]) == 2

    @pytest.mark.parametrize("key, value", [("ineq.n_values", "-5"), ("ineq.n_values", "32,0"),
                                            ("ineq.m_values", "0")])
    def test_ineq_ranges_below_one_exit_2_naming_the_key(self, tmp_path, capsys, key, value):
        # with the random family a negative n reached numpy as a negative array size
        cfg = write_cfg(tmp_path, "ineq.lemmas = hardy_upper\nineq.families = random\n"
                        f"{key} = {value}\n")
        assert main(["ineq-sweep", "--config", cfg]) == 2
        assert f"{key} entries must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("ineq.alpha_values", "-1"), ("ineq.p_values", "0"), ("ineq.lambda_values", "nan"),
        ("ineq.p_lower_values", "inf"), ("ineq.variants", "sideways"),
    ])
    def test_bad_ineq_grid_values_exit_2_naming_the_key(self, tmp_path, capsys, key, value):
        # these exited 3 once the sweep reached them, after the cases before them
        cfg = write_cfg(tmp_path, f"ineq.lemmas = hardy_upper,hardy_lower\n{key} = {value}\n")
        assert main(["ineq-sweep", "--config", cfg]) == 2
        assert f"config error: {key} entries must be" in capsys.readouterr().err

    def test_unknown_lemma_exits_2_with_an_empty_grid(self, tmp_path, capsys):
        # with no family the grid has no case to reach the lemma check
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"ineq": {"lemmas": ["jensen", "bogus"], "families": []}}))
        assert main(["ineq-sweep", "--config", str(path)]) == 2
        assert "ineq.lemmas entries must be one of jensen," in capsys.readouterr().err

    def test_unknown_family_exits_2_before_any_case(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a case was built")

        monkeypatch.setattr(iq, "clause", refuse)
        monkeypatch.setattr(iq, "hardy_verdicts", refuse)
        cfg = write_cfg(tmp_path, "ineq.families = power,bogus\n")
        assert main(["ineq-sweep", "--config", cfg]) == 2
        assert "ineq.families entries must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["modulus", "best-approx", "equivalence", "example",
                                         "ineq-sweep", "phi-check"])
    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys, command):
        # ineq-sweep, and the others on a random_bandlimited: series, ended in a numpy
        # traceback from seeding the generator
        cfg = write_cfg(tmp_path, BASE_CFG.replace("power:2:256", "random_bandlimited:64")
                        .replace("monotone", "general"))
        assert main([command, "--config", cfg, "--seed", "-1", "--quiet"]) == 2
        assert "config error: --seed must be a non-negative integer, got -1" in \
            capsys.readouterr().err

    def test_step_bound_out_of_range_names_the_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG.replace("sweep.t_values = 0.5,1.0",
                                                   "sweep.t_values = 0.5,nan"))
        assert main(["modulus", "--config", cfg]) == 2
        assert "sweep.t_values entries must be in [0, pi]" in capsys.readouterr().err


class TestConfigKeys:
    def test_unknown_key_exits_2_and_is_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG + "params.lamda = 0.3\n")
        assert main(["modulus", "--config", cfg]) == 2
        assert "unknown config key 'params.lamda'" in capsys.readouterr().err

    def test_unknown_json_key_exits_2(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**BASE_JSON, "sweep": {**BASE_JSON["sweep"], "grid": 64}}))
        assert main(["modulus", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command,old,new", [
        ("modulus", "params.k = 1", "params.k = 1.7"),
        ("modulus", "params.k = 1", "params.k = true"),
        ("modulus", "sweep.t_values", "sweep.h_samples = 16.9\nsweep.t_values"),
        ("modulus", "sweep.t_values", "sweep.grid_n = 4096.5\nsweep.t_values"),
        ("ineq-sweep", "sweep.t_values", "ineq.m_values = 2.5\nsweep.t_values"),
        ("json", '"k": 1', '"k": true'),
    ])
    def test_integer_keys_reject_non_integers(self, tmp_path, capsys, command, old, new):
        if command == "json":
            command, path = "modulus", tmp_path / "run.json"
            path.write_text(json.dumps(BASE_JSON).replace(old, new))
            cfg = str(path)
        else:
            cfg = write_cfg(tmp_path, BASE_CFG.replace(old, new))
        assert main([command, "--config", cfg]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_integral_float_is_an_integer(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg_a = write_cfg(tmp_path, BASE_CFG.replace("params.k = 1", "params.k = 2"), "a.cfg")
        cfg_b = write_cfg(tmp_path, BASE_CFG.replace("params.k = 1", "params.k = 2.0"), "b.cfg")
        assert main(["modulus", "--config", cfg_a, "--out", str(out_a), "--quiet"]) == 0
        assert main(["modulus", "--config", cfg_b, "--out", str(out_b), "--quiet"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("lines", ["series.tag = monotone\nseries.tail = power:1:2",
                                       "series.tag = monotone", "series.tag = general",
                                       "series.tail = power:1:2"])
    def test_lacunary_generator_rejects_tag_and_tail(self, tmp_path, capsys, lines):
        cfg = BASE_CFG.replace("series.generator = power:2:256\nseries.tag = monotone",
                               "series.generator = lacunary_geometric:0.5:8\n" + lines)
        assert main(["equivalence", "--config", write_cfg(tmp_path, cfg)]) == 2
        assert "lacunary_geometric:0.5:8" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", ["", "series.tag = lacunary\nseries.tail = none"])
    def test_lacunary_generator_takes_its_own_tag(self, tmp_path, lines):
        cfg = BASE_CFG.replace("series.generator = power:2:256\nseries.tag = monotone",
                               "series.generator = lacunary_geometric:0.5:8\n" + lines)
        assert main(["modulus", "--config", write_cfg(tmp_path, cfg), "--quiet"]) == 0

    @pytest.mark.parametrize("line", ["phi.deltas = 0.1,low,0.9\nphi.values = 0.2,0.4,0.8",
                                      "phi.deltas = 0.1,0.5,0.9\nphi.values = 0.2,abc,0.8"])
    def test_non_numeric_phi_table_exits_2(self, tmp_path, line):
        cfg = write_cfg(tmp_path, BASE_CFG.replace("phi.kind = power", "phi.kind = tabulated")
                        + line + "\n")
        assert main(["phi-check", "--config", cfg]) == 2

    @pytest.mark.parametrize("line", [
        "phi.deltas = 0.1,0.3,0.5,0.7,0.9\nphi.values = 0.1,nan,0.4,0.7,0.95",
        "phi.deltas = 0.1,nan,0.5,0.7,0.9\nphi.values = 0.1,0.2,0.4,0.7,0.95"],
        ids=["values", "deltas"])
    def test_nan_in_phi_table_exits_2(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, BASE_CFG.replace("phi.kind = power", "phi.kind = tabulated")
                        + line + "\n")
        assert main(["phi-check", "--config", cfg]) == 2
        assert "phi section" in capsys.readouterr().err

    def test_negative_jensen_len_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "ineq.lemmas = jensen\nineq.jensen_len = -1\n")
        assert main(["ineq-sweep", "--config", cfg]) == 2

    def test_negative_jensen_cases_exits_2_and_names_the_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "ineq.lemmas = jensen\nineq.jensen_cases = -3\n")
        assert main(["ineq-sweep", "--config", cfg]) == 2
        assert "ineq.jensen_cases must be >= 0, got -3" in capsys.readouterr().err

    def test_negative_bandlimited_frequency_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG.replace("power:2:256", "random_bandlimited:-1")
                        .replace("series.tag = monotone", "series.tag = general"))
        assert main(["modulus", "--config", cfg]) == 3

    def test_zero_grid_n_still_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG + "sweep.grid_n = 0\n")
        assert main(["modulus", "--config", cfg]) == 3

    @pytest.mark.parametrize("old, new", [
        ("params.k = 1", "params.k = 1\nsweep.grid_n = 33554432"),
        ("series.generator = power:2:256\nseries.tag = monotone\nparams.p = 2",
         "series.generator = lacunary_geometric:0.5:61\nparams.p = 3"),
        ("series.generator = power:2:256\nseries.tag = monotone",
         "series.generator = lacunary_geometric:0.5:64"),
    ])
    def test_oversized_grid_or_levels_exit_3_before_allocating(self, tmp_path, old, new):
        cfg = write_cfg(tmp_path, BASE_CFG.replace(old, new))
        tracemalloc.start()
        try:
            code = main(["modulus", "--config", cfg])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 2**22

    @pytest.mark.parametrize("h_samples", [0, 1])
    def test_equivalence_rejects_few_h_samples(self, tmp_path, capsys, h_samples):
        cfg = write_cfg(tmp_path, BASE_CFG + f"sweep.h_samples = {h_samples}\n")
        assert main(["equivalence", "--config", cfg]) == 2
        assert "h_samples must be at least 16" in capsys.readouterr().err


    def test_modulus_rejects_too_many_h_samples(self, tmp_path, capsys):
        # 2**30 shifts used to end in a numpy memory error traceback
        cfg = write_cfg(tmp_path, BASE_CFG + "sweep.h_samples = 1073741824\n")
        assert main(["modulus", "--config", cfg]) == 2
        assert "h_samples must be at least 16 and at most 1048577, got 1073741824" in \
            capsys.readouterr().err


FUZZ_BASE = dict(line.split(" = ") for line in BASE_CFG.replace(
    "power:2:256", "power:2:64").splitlines())
FUZZ_KEYS = sorted(CONFIG_KEYS) + ["params.lamda"]
FUZZ_TOKENS = ["2", "-1", "0", "1.5", "nan", "abc", "true", "1,2", "power:2:64", "none"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["best-approx", "modulus", "phi-check"]),
       overrides=st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_TOKENS),
                                 max_size=4))
def test_fuzzed_config_never_tracebacks(tmp_path, command, overrides):
    # every key of the table plus one misspelt key, set to small tokens: no token
    # sizes an array beyond a few thousand entries, so each call stays cheap
    text = "".join(f"{k} = {v}\n" for k, v in {**FUZZ_BASE, **overrides}.items())
    out = tmp_path / "fuzz.csv"
    assert main([command, "--config", write_cfg(tmp_path, text, "fuzz.cfg"),
                 "--out", str(out), "--quiet"]) in (0, 2, 3, 4)


class TestModulusCommand:
    def test_zero_series_gives_zero_column(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG.replace(
            "series.generator = power:2:256", "series.coeffs = 0,0,0").replace(
            "series.tag = monotone", "series.tag = general"))
        out = tmp_path / "mod.csv"
        assert main(["modulus", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith(("#", "t,"))]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_cosine_fixture_matches_exact_column(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG.replace(
            "series.generator = power:2:256", "series.coeffs = 1").replace(
            "series.tag = monotone", "series.tag = general"))
        out = tmp_path / "mod.csv"
        assert main(["modulus", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,omega,omega_p2_exact"
        for line in lines[1:]:
            if line.startswith("#"):
                continue
            t, omega, exact = (float(v) for v in line.split(","))
            assert omega == pytest.approx(exact, rel=1e-9)
            assert omega == pytest.approx(modulus_p2_exact(
                power_law_series(2.0, 1, with_tail=False), 1, t), rel=1e-9)

    def test_alias_misconfiguration_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG + "sweep.grid_n = 64\n")
        assert main(["modulus", "--config", cfg]) == 3

    @pytest.mark.parametrize("flag,value", [("--threads", "2"), ("--max-nu", "2048")])
    def test_flags_of_other_commands_are_rejected(self, tmp_path, flag, value):
        cfg = write_cfg(tmp_path, BASE_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["modulus", flag, value, "--config", cfg])
        assert exc.value.code == 2


class TestEquivalenceCommand:
    def test_tag_mismatch_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG.replace(
            "series.generator = power:2:256", "series.coeffs = 0.5,1"))
        assert main(["equivalence", "--config", cfg]) == 3
        assert "monotone" in capsys.readouterr().err

    def test_lacunary_coeff_column_equals_unreduced_sum(self, tmp_path):
        cfg = BASE_CFG.replace("series.generator = power:2:256",
                               "series.generator = lacunary_geometric:0.5:12")
        cfg = cfg.replace("series.tag = monotone", "series.tag = lacunary")
        out = tmp_path / "eq.csv"
        assert main(["equivalence", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out), "--quiet"]) == 0
        from trigsmooth import lacunary_geometric_series
        ser = lacunary_geometric_series(0.5, 12)
        coeffs = ser.coeffs
        nus = np.arange(1, coeffs.size + 1, dtype=float)
        th, r, lam = 1.0, 0.5, 0.3
        for line in out.read_text().splitlines()[1:]:
            if line.startswith("#"):
                continue
            cells = line.split(",")
            m = int(cells[0])
            got = float(cells[3])
            tail = float(np.sum(coeffs[m:] ** th * nus[m:] ** (r * th)))
            head = float(np.sum(coeffs[:m] ** th * nus[:m] ** ((r + lam) * th)))
            want = (tail + float(m) ** (-lam * th) * head) ** (1.0 / th)
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_series_gives_zero_functional_columns(self, tmp_path):
        cfg = BASE_CFG.replace("series.generator = power:2:256", "series.coeffs = 0,0")
        cfg = cfg.replace("series.tag = monotone", "series.tag = general")
        out = tmp_path / "eq.csv"
        assert main(["equivalence", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out), "--quiet"]) == 0
        for line in out.read_text().splitlines()[1:]:
            if line.startswith("#"):
                continue
            cells = line.split(",")
            assert float(cells[1]) == 0.0 and float(cells[2]) == 0.0

    def test_truncation_budget_exceeded_exits_4(self, tmp_path):
        cfg = BASE_CFG + "tolerances.truncation_budget = 1e-6\nsweep.n_values = 64,128,256\n"
        assert main(["equivalence", "--config", write_cfg(tmp_path, cfg)]) == 4

    SMALL_BUDGET_CFG = BASE_CFG.replace("series.generator = power:2:256",
                                        "series.coeffs = 1,0.5").replace(
        "series.tag = monotone", "series.tag = general").replace(
        "params.theta = 1", "params.theta = 2")

    def test_budget_below_one_percent_is_enforced(self, tmp_path, capsys):
        # the forms' fractions are 0.0025 to 0.0084 here: all within 1%, none within 1e-6
        cfg = write_cfg(tmp_path, self.SMALL_BUDGET_CFG + "tolerances.truncation_budget = 1e-6\n")
        assert main(["equivalence", "--config", cfg]) == 4
        assert ("truncation remainder fraction 0.00838 exceeds budget 1e-06"
                in capsys.readouterr().err)
        cfg = write_cfg(tmp_path, self.SMALL_BUDGET_CFG + "tolerances.truncation_budget = 0.01\n")
        assert main(["equivalence", "--config", cfg, "--out", str(tmp_path / "eq.csv")]) == 0

    def test_max_nu_below_4n_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG)
        assert main(["equivalence", "--config", cfg, "--max-nu", "8"]) == 3
        assert "quad_points must be at least 4n = 16" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, flags", [("", ["--max-nu", "33554432"]),
                                              ("sweep.n_values = 2,4194305\n", [])])
    def test_omega_range_past_the_dense_limit_exits_3(self, tmp_path, capsys, monkeypatch,
                                                      extra, flags):
        from trigsmooth import functionals

        def kernel(*args, **kwargs):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(functionals, "modulus_p2_exact", kernel)
        cfg = write_cfg(tmp_path, BASE_CFG + extra)
        assert main(["equivalence", "--config", cfg, *flags]) == 3
        assert "exceeds the limit of 16777216 entries" in capsys.readouterr().err

    DIVERGENT_TAIL_CFG = BASE_CFG + "series.tail = power:1:0.75\n"

    def test_divergent_coefficient_tail_exits_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.DIVERGENT_TAIL_CFG)
        assert main(["equivalence", "--config", cfg]) == 4
        assert "truncation remainder fraction inf exceeds budget 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_budget_must_be_non_negative(self, tmp_path, capsys, budget):
        # a NaN budget would switch the gate off, a negative one trip it on every run
        cfg = write_cfg(tmp_path, self.DIVERGENT_TAIL_CFG
                        + f"tolerances.truncation_budget = {budget}\n")
        assert main(["equivalence", "--config", cfg]) == 2
        assert "tolerances.truncation_budget must be >= 0 or inf" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["equivalence", "example"])
    def test_nan_slope_tol_exits_2(self, tmp_path, capsys, command):
        # with phi constant, series_form reads bounded at the default tolerance, but a
        # NaN tolerance would read every slope as unbounded-trend
        cfg = write_cfg(tmp_path, BASE_CFG.replace("phi.kind = power", "phi.kind = constant")
                        + "tolerances.slope_tol = nan\n")
        extra = ["--max-n", "8"] if command == "example" else []
        assert main([command, "--config", cfg, *extra]) == 2
        assert "tolerances.slope_tol must not be NaN" in capsys.readouterr().err

    def test_divergent_verdict_needs_an_infinite_budget(self, tmp_path):
        cfg = write_cfg(tmp_path, self.DIVERGENT_TAIL_CFG + "tolerances.truncation_budget = inf\n")
        out = tmp_path / "eq.csv"
        assert main(["equivalence", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        text = out.read_text()
        assert "# membership coeff_form vs power(0.4): verdict=divergent" in text
        rows = [l.split(",") for l in text.splitlines()[1:] if not l.startswith("#")]
        assert all(row[3] == "" for row in rows)

    def test_membership_summary_lines_present(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert main(["equivalence", "--config", write_cfg(tmp_path, BASE_CFG),
                     "--out", str(out), "--quiet"]) == 0
        text = out.read_text()
        assert "# membership series_form vs power(0.4):" in text
        assert "# membership coeff_form vs power(0.4):" in text
        assert "# omega_path=p2_exact" in text
        # full-pipeline regression: the series/integral ratio column stays in
        # the band recorded for this fixture
        for line in text.splitlines()[1:]:
            if line.startswith("#"):
                continue
            ratio = float(line.split(",")[6])
            assert 0.95 < ratio < 1.25

    def test_max_nu_flag_controls_truncation_range(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert main(["equivalence", "--config", write_cfg(tmp_path, BASE_CFG),
                     "--max-nu", "2048", "--out", str(out), "--quiet"]) == 0
        assert "nu_max=2048" in out.read_text()


class TestExampleCommand:
    def test_rows_and_verdicts(self, tmp_path):
        out = tmp_path / "ex.csv"
        assert main(["example", "--max-n", "60", "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,t1,t2,d_m,d_value"
        data = [l.split(",") for l in lines[1:] if not l.startswith("#")]
        assert len(data) == 60
        assert int(data[-1][3]) == 2 ** 60
        comments = [l for l in lines if l.startswith("#")]
        assert any("inv_log(0.5): verdict=bounded" in c for c in comments)
        assert any("constant: verdict=bounded" in c for c in comments)
        assert any("power(0.1): verdict=unbounded-trend" in c for c in comments)
        assert any("power(0.25): verdict=unbounded-trend" in c for c in comments)


class TestIneqSweep:
    SWEEP_CFG = """\
ineq.lemmas = jensen,hardy_upper,reverse_copson
ineq.families = power,random
ineq.alpha_values = 1
ineq.lambda_values = 0
ineq.p_values = 2
ineq.m_values = 2
ineq.n_values = 32,64
ineq.variants = tail,head
ineq.jensen_cases = 50
ineq.jensen_len = 16
"""

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP_CFG)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["ineq-sweep", "--config", cfg, "--seed", "7",
                     "--out", str(out1), "--quiet"]) == 0
        assert main(["ineq-sweep", "--config", cfg, "--seed", "7",
                     "--out", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP_CFG)
        out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
        assert main(["ineq-sweep", "--config", cfg, "--seed", "3", "--threads", "1",
                     "--out", str(out1), "--quiet"]) == 0
        assert main(["ineq-sweep", "--config", cfg, "--seed", "3", "--threads", "8",
                     "--out", str(out8), "--quiet"]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_different_seed_changes_random_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["ineq-sweep", "--config", cfg, "--seed", "1", "--out", str(out1), "--quiet"])
        main(["ineq-sweep", "--config", cfg, "--seed", "2", "--out", str(out2), "--quiet"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_gap_violations_become_skip_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP_CFG.replace(
            "ineq.n_values = 32,64", "ineq.n_values = 8"))
        out = tmp_path / "skip.csv"
        assert main(["ineq-sweep", "--config", cfg, "--seed", "1",
                     "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().splitlines()
        copson_rows = [l for l in lines if l.startswith("reverse_copson")]
        assert copson_rows and all(",skip," in l for l in copson_rows)
        hardy_rows = [l for l in lines if l.startswith("hardy_upper")]
        assert hardy_rows and all(",ok," in l for l in hardy_rows)

    def test_jensen_rows_never_violate(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP_CFG.replace(
            "ineq.jensen_cases = 50", "ineq.jensen_cases = 300"))
        out = tmp_path / "j.csv"
        main(["ineq-sweep", "--config", cfg, "--seed", "9", "--out", str(out), "--quiet"])
        jensen_rows = [l for l in out.read_text().splitlines() if l.startswith("jensen")]
        assert len(jensen_rows) == 300
        assert all(float(l.split(",")[9]) <= 1.0 + 1e-12 for l in jensen_rows)

    def test_all_numeric_cells_finite(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP_CFG)
        out = tmp_path / "fin.csv"
        main(["ineq-sweep", "--config", cfg, "--seed", "5", "--out", str(out), "--quiet"])
        for line in out.read_text().splitlines()[1:]:
            if line.startswith("#"):
                continue
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value)

    def test_json_format(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP_CFG)
        out = tmp_path / "sweep.json"
        assert main(["ineq-sweep", "--config", cfg, "--seed", "5", "--format", "json",
                     "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "ineq-sweep"
        assert doc["columns"][0] == "lemma_id"
        assert len(doc["rows"]) > 0


class TestPhiCheckCommand:
    def test_power_phi_report(self, tmp_path):
        out = tmp_path / "phi.csv"
        assert main(["phi-check", "--config", write_cfg(tmp_path, BASE_CFG),
                     "--out", str(out), "--quiet"]) == 0
        header, row = out.read_text().splitlines()[:2]
        assert header == "kind,alpha,c1,c2,pass"
        cells = row.split(",")
        assert cells[0] == "power" and cells[4] == "true"
        assert float(cells[3]) == pytest.approx(2 ** 0.4, abs=1e-12)


def test_module_entry_point_smoke(tmp_path):
    out = tmp_path / "smoke.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "trigsmooth.cli", "example", "--max-n", "8",
         "--out", str(out), "--quiet"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists() and out.read_text().startswith("n,t1,t2,d_m,d_value")


def test_cli_import_does_not_load_scipy():
    # numpy is the only runtime dependency; importing scipy would cost start-up time
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, trigsmooth.cli; "
         "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestIneqSweepOracle:
    """The block-evaluated sweep against a per-case loop over the public checkers."""

    GRID = {"families": ["power", "geometric", "log_power", "random"],
            "alpha_values": [0.5, 2.0], "lambda_values": [-0.5, 0.5],
            "variants": ["tail", "head"], "jensen_cases": 20, "jensen_len": 16}
    CONFIGS = [
        # every lemma; n = 8 < 16m skips the reverse-Copson p >= 1 clause
        dict(GRID, lemmas=["jensen", "hardy_upper", "hardy_lower", "reverse_copson",
                           "two_sided"], p_values=[1.0, 2.5], p_lower_values=[0.5, 1.0],
             m_values=[1, 2], n_values=[8, 40]),
        # n = 10 < 4m skips the 0 < p <= 1 clause, and n < 16m the p >= 1 one
        dict(GRID, lemmas=["reverse_copson", "two_sided", "jensen"], p_values=[0.5, 2.0],
             m_values=[3], n_values=[10, 64]),
    ]

    @staticmethod
    def cfg_text(cfg):
        return "".join(f"ineq.{key} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
                       for key, v in cfg.items())

    @staticmethod
    def oracle_csv(cfg, seed):
        rows = []
        for lemma in cfg["lemmas"]:
            if lemma == "jensen":
                for _ in range(cfg["jensen_cases"]):
                    rng = iq.case_rng(seed, len(rows))
                    exps = np.sort(rng.uniform(0.1, 4.0, size=2))
                    alpha, beta = float(exps[0]), float(max(exps[1], exps[0] + 1e-3))
                    v = iq.check_jensen(rng.random(cfg["jensen_len"]), alpha, beta)
                    rows.append(["jensen", "", alpha, 0.0, beta, 1, cfg["jensen_len"], v.lhs,
                                 v.rhs, v.ratio, len(rows), "ok", v.direction, v.clause])
                continue
            ps = cfg["p_lower_values"] if lemma == "hardy_lower" else cfg["p_values"]
            for family, alpha, lam, p, m, n, variant in itertools.product(
                    cfg["families"], cfg["alpha_values"], cfg["lambda_values"], ps,
                    cfg["m_values"], cfg["n_values"], cfg["variants"]):
                used = len(rows) if family == "random" else None
                seq = (iq.random_monotone_sequence(iq.case_rng(seed, used), n) if used is not None
                       else iq.SEQUENCE_FAMILIES[family](n))
                case = iq.IneqCase(seq=seq, alpha=alpha, lam_exp=lam, p=p, m=m, n=n)
                base = [lemma, variant, alpha, lam, p, m, n]
                try:
                    v = {"hardy_upper": iq.check_hardy_upper, "hardy_lower": iq.check_hardy_lower,
                         "reverse_copson": iq.check_reverse_copson,
                         "two_sided": lambda c, var: replace(iq.check_two_sided_asymp(c, var)[0],
                                                             direction="two-sided"),
                         }[lemma](case, variant)
                except iq.PreconditionError as exc:
                    rows.append(base + [0.0, 0.0, 0.0, used, "skip", "",
                                        str(exc).replace(",", ";")])
                    continue
                rows.append(base + [v.lhs, v.rhs, v.ratio, used, "ok", v.direction, v.clause])
        return render_csv(Report(columns=INEQ_COLUMNS, rows=rows,
                                 comments=[f"seed={seed} cases={len(rows)}"]))

    @pytest.mark.parametrize("index", range(len(CONFIGS)))
    @pytest.mark.parametrize("seed", [0, 11])
    def test_csv_is_byte_identical_to_per_case_checks(self, tmp_path, index, seed):
        cfg = self.CONFIGS[index]
        out = tmp_path / "sweep.csv"
        assert main(["ineq-sweep", "--config", write_cfg(tmp_path, self.cfg_text(cfg)),
                     "--seed", str(seed), "--out", str(out), "--quiet"]) == 0
        text = out.read_text()
        assert ",skip," in text and ",two-sided," in text
        assert text == self.oracle_csv(cfg, seed)

    @pytest.mark.parametrize("extra, message", [
        ("ineq.p_values = 2,0.5\n", "error: upper Hardy bound needs p >= 1, got 0.5"),
        ("ineq.m_values = 4\nineq.n_values = 8,4\n", "error: need m < n"),
    ])
    def test_hardy_upper_domain_errors_exit_3(self, tmp_path, capsys, extra, message):
        cfg = write_cfg(tmp_path, "ineq.lemmas = jensen,hardy_upper,reverse_copson\n" + extra)
        assert main(["ineq-sweep", "--config", cfg]) == 3
        assert capsys.readouterr().err.strip() == message
