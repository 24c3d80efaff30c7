import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

import cascsim
from cascsim import eventlog
from cascsim.cli import main
from cascsim.config import config_from_dict, load_config
from cascsim.errors import ConfigError
from cascsim.trace import (generate_synthetic_trace, SyntheticTraceParams, TraceSet,
                           write_trace_csv)
from cascsim.cascade import forwards

from oracle_calibration import calibrate_grid_matrix


def tiny_config_doc(count=2, kind="static"):
    return {
        "name": "tiny",
        "fleet": [{
            "tier": "mid", "count": count, "t_inf_ms": 43.0,
            "trace": {"synthetic": {
                "light_accuracy": 0.75,
                "heavy_accuracy_given_light_correct": 0.9,
                "heavy_accuracy_given_light_wrong": 0.4,
                "count": 200,
            }},
        }],
        "server": {"batch_latency_table": {"1": 15.0, "2": 20.0}, "max_effective_batch": 2},
        "scheduler": {"kind": kind, "initial_threshold": 0.5},
        "network": {"uplink_ms": 0.0, "downlink_ms": 0.0},
        "slos_ms": [100.0, 200.0],
        "seeds": [1, 2, 3],
    }


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def preset_doc(name):
    """The JSON document of a shipped preset."""
    text = resources.files("cascsim").joinpath("presets", f"{name}.json").read_text("utf-8")
    return json.loads(text)


class TestCapacityCommand:
    TABLE = '{"1": 10, "2": 12, "4": 16, "8": 24, "16": 40}'

    def test_greedy_worked_example(self, capsys):
        assert main(["capacity", "--table", self.TABLE, "--slo", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["capacity"] == 36
        assert doc["schedule"] == [[16, 2], [4, 1]]
        assert doc["time_used_ms"] == 96.0
        assert sorted(doc) == ["capacity", "schedule", "slo_ms", "time_used_ms"]

    def test_a_quotient_rounded_up_to_a_whole_count_is_stepped_back(self, capsys):
        """53.4 / 17.8 rounds to 3.0, but 3 * 17.8 is 53.400000000000006, over the
        budget, so only two batches fit."""
        assert main(["capacity", "--table", '{"1": 17.8}', "--slo", "53.4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["capacity"], doc["schedule"], doc["time_used_ms"]) == (2, [[1, 2]], 35.6)

    def test_zero_slo_fails_with_error_json(self, capsys):
        assert main(["capacity", "--table", self.TABLE, "--slo", "0"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "slo" in err["message"]

    @pytest.mark.parametrize("slo", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_slo_fails_with_error_json(self, capsys, slo):
        assert main(["capacity", "--config", "homog_efflite0_inceptionv3", "--slo", slo]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("--slo:")

    def test_bad_table_json(self, capsys):
        assert main(["capacity", "--table", "{oops", "--slo", "100"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("flag, value", [("--max-effective", "4"),
                                             ("--table", '{"1": 10}')])
    def test_table_flags_are_refused_with_config(self, capsys, flag, value):
        assert main(["capacity", "--config", "homog_efflite0_inceptionv3", flag, value,
                     "--slo", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{flag}:")

    @pytest.mark.parametrize("config", ["homog_efflite0_inceptionv3", "no_such_preset"])
    def test_calibrate_refuses_config_with_trace(self, tmp_path, capsys, config):
        path = tmp_path / "trace.csv"
        with open(path, "w", encoding="utf-8") as fh:
            write_trace_csv(generate_synthetic_trace(
                SyntheticTraceParams(0.75, 0.9, 0.4, count=200), seed=5), fh)
        assert main(["calibrate", "--trace", str(path), "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("--config:")


class TestSimulateCommand:
    def test_reports_per_seed_plus_mean(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config_doc())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        for seed in (1, 2, 3):
            assert (out / f"report_seed{seed}.json").is_file()
        mean = json.loads((out / "report_mean.json").read_text())
        assert mean["seeds"] == [1, 2, 3]
        stdout_doc = json.loads(capsys.readouterr().out)
        assert stdout_doc == mean

    def test_seed_list_override(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config_doc())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_path, "--out", str(out),
                     "--seed-list", "7"]) == 0
        assert (out / "report_seed7.json").is_file()
        assert not (out / "report_seed1.json").exists()

    def test_event_log_needs_out_dir(self, capsys, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config_doc())
        assert main(["simulate", "--config", cfg_path, "--event-log"]) == 1

    def test_missing_batch_table_names_field(self, tmp_path, capsys):
        doc = tiny_config_doc()
        del doc["server"]["batch_latency_table"]
        cfg_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg_path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "server.batch_latency_table" in err["message"]

    def test_preset_run_lands_near_calibrated_forward_rate(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", "homog_efflite0_inceptionv3",
                     "--scheduler", "static", "--seed-list", "1",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report_seed1.json").read_text())
        assert abs(report["forward_rate"] - 0.30) < 0.05
        # with a static threshold the realized rate equals the trace rate
        cfg = load_config("homog_efflite0_inceptionv3")
        threshold = cfg.resolve_initial_thresholds()[0]
        traces = cfg.build_traces(seed=1)
        rates = [forwards(traces[d].bvsb, threshold).mean() for d in traces]
        assert report["forward_rate"] == pytest.approx(float(np.mean(rates)))


class TestSweepCommand:
    def test_series_shape(self, tmp_path):
        cfg_path = write_config(tmp_path, tiny_config_doc())
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg_path, "--devices", "2..6:2",
                     "--scheduler", "both", "--seed-list", "1", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        header, rows = lines[0], lines[1:]
        assert header == "devices,seed,scheduler,slo_ms,satisfaction,throughput,accuracy,forward_rate"
        # 3 points x 1 seed x 2 schedulers x 2 slos
        assert len(rows) == 12
        devices = sorted({int(r.split(",")[0]) for r in rows})
        assert devices == [2, 4, 6]

    def test_indivisible_heterogeneous_count_rejected(self, capsys):
        assert main(["sweep", "--config", "heterog_inceptionv3",
                     "--devices", "5..10:5", "--seed-list", "1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "not divisible" in err["message"]

    def test_empty_range_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config_doc())
        assert main(["sweep", "--config", cfg_path, "--devices", "6..2:2"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_malformed_range_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config_doc())
        assert main(["sweep", "--config", cfg_path, "--devices", "5-10"]) == 1


class TestCalibrateCommand:
    def test_trace_file_calibration_matches_grid_oracle(self, tmp_path, capsys):
        trace = generate_synthetic_trace(
            SyntheticTraceParams(0.75, 0.9, 0.4, count=2000), seed=5)
        path = tmp_path / "trace.csv"
        with open(path, "w", encoding="utf-8") as fh:
            write_trace_csv(trace, fh)
        assert main(["calibrate", "--trace", str(path), "--target", "0.3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["threshold"], doc["forward_rate"], doc["cascade_accuracy"]) == \
            calibrate_grid_matrix(trace, 0.3, 0.01)

    def test_config_calibration_lists_groups(self, capsys):
        assert main(["calibrate", "--config", "heterog_inceptionv3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [g["tier"] for g in doc["thresholds"]] == ["low", "mid", "high"]
        assert all(0.0 <= g["threshold"] <= 1.0 for g in doc["thresholds"])

    def test_config_target_is_kept_unless_a_flag_is_given(self, tmp_path, capsys):
        doc = preset_doc("homog_efflite0_inceptionv3")
        doc["scheduler"]["calibration"]["target_forward_rate"] = 0.5
        cfg_path = write_config(tmp_path, doc)
        simulated = load_config(cfg_path).resolve_initial_thresholds()[0]
        assert main(["calibrate", "--config", cfg_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["target_forward_rate"] == 0.5
        assert out["thresholds"][0]["threshold"] == simulated
        assert main(["calibrate", "--config", cfg_path, "--target", "0.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["target_forward_rate"] == 0.3
        assert out["thresholds"][0]["threshold"] == \
            load_config("homog_efflite0_inceptionv3").resolve_initial_thresholds()[0]

    def test_fixed_threshold_config_is_printed_and_refuses_calibration_flags(
            self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tiny_config_doc())
        assert main(["calibrate", "--config", cfg_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["target_forward_rate"] is None
        assert [g["threshold"] for g in out["thresholds"]] == [0.5]
        for flag, value in (("--target", "0.3"), ("--tolerance", "0.02")):
            assert main(["calibrate", "--config", cfg_path, flag, value]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError"
            assert err["message"].startswith(f"{flag}:")

    def test_needs_a_source(self, capsys):
        assert main(["calibrate", "--target", "0.3"]) == 1


class TestLoadConfig:
    @pytest.mark.parametrize("verb", ["simulate", "calibrate"])
    def test_relative_csv_path_resolves_against_the_config_file(self, tmp_path, monkeypatch,
                                                                capsys, verb):
        sub = tmp_path / "sub"
        sub.mkdir()
        trace = generate_synthetic_trace(SyntheticTraceParams(0.75, 0.9, 0.4, count=50), 3)
        with open(sub / "trace.csv", "w", encoding="utf-8") as fh:
            write_trace_csv(trace, fh)
        doc = tiny_config_doc()
        doc["fleet"][0]["trace"] = {"csv": "trace.csv"}
        calibrated()(doc)
        cfg_path = write_config(sub, doc)
        monkeypatch.chdir(tmp_path)
        assert main([verb, "--config", "sub/config.json"]) == 0
        assert load_config(cfg_path).fleet[0].trace_csv == str(sub / "trace.csv")

    @pytest.mark.parametrize("verb", ["simulate", "calibrate"])
    def test_inline_csv_text_is_not_joined_to_the_config_directory(self, tmp_path, monkeypatch,
                                                                   verb):
        sub = tmp_path / "sub"
        sub.mkdir()
        trace = generate_synthetic_trace(SyntheticTraceParams(0.75, 0.9, 0.4, count=50), 3)
        text = io.StringIO()
        write_trace_csv(trace, text)
        doc = tiny_config_doc()
        doc["fleet"][0]["trace"] = {"csv": text.getvalue()}
        calibrated()(doc)
        cfg_path = write_config(sub, doc)
        monkeypatch.chdir(tmp_path)
        assert main([verb, "--config", "sub/config.json"]) == 0
        assert load_config(cfg_path).fleet[0].trace_csv == text.getvalue()

    def test_unknown_preset_lists_alternatives(self):
        with pytest.raises(ConfigError) as err:
            load_config("nope_not_a_preset")
        assert "homog_efflite0_inceptionv3" in str(err.value)

    def test_all_presets_load_and_validate(self):
        from cascsim.config import preset_names
        for name in preset_names():
            cfg = load_config(name)
            cfg.validate()
            assert len(cfg.device_groups()) >= 1


def calibrated(**calibration):
    """An edit that replaces the fixed initial threshold with a calibration section."""
    def edit(doc):
        del doc["scheduler"]["initial_threshold"]
        doc["scheduler"]["calibration"] = calibration
    return edit


def table_edit(entries):
    """An edit that sets entries of the batch-latency table."""
    return lambda d: d["server"]["batch_latency_table"].update(entries)


# the batch-latency table is read by the strict reader: no truncation, no coercion
BAD_TABLES = [
    ("server.max_effective_batch", lambda d: d["server"].update(max_effective_batch=2.9)),
    ("server.max_effective_batch", lambda d: d["server"].update(max_effective_batch=True)),
    ("server.max_effective_batch", lambda d: d["server"].update(max_effective_batch="4")),
    ("server.batch_latency_table.2", table_edit({"2": "ten"})),
    ("server.batch_latency_table.1", table_edit({"1": None})),
    ("server.batch_latency_table.x", table_edit({"x": 12.0})),
    ("server.batch_latency_table", lambda d: d["server"].update(batch_latency_table=None)),
]


class TestNonFiniteConfig:
    """Every float the engine reads must be finite (NaN and Infinity parse from
    JSON), every value must have its field's JSON type and range, every size
    must fit a machine integer, and every key must name a field."""

    @pytest.mark.parametrize("field, edit", [
        ("fleet[0].t_inf_ms", lambda d: d["fleet"][0].update(t_inf_ms=float("nan"))),
        ("fleet[0].t_inf_ms", lambda d: d["fleet"][0].update(t_inf_ms=float("inf"))),
        ("server.batch_latency_table.2",
         lambda d: d["server"]["batch_latency_table"].update({"2": float("inf")})),
        ("server.batch_latency_table.1",
         lambda d: d["server"]["batch_latency_table"].update({"1": float("nan")})),
        ("network.uplink_ms", lambda d: d["network"].update(uplink_ms=float("nan"))),
        ("network.downlink_ms", lambda d: d["network"].update(downlink_ms=float("inf"))),
        ("scheduler.tick_period_ms",
         lambda d: d["scheduler"].update(tick_period_ms=float("nan"))),
        ("scheduler.tick_period_ms",
         lambda d: d["scheduler"].update(tick_period_ms=float("inf"))),
        ("scheduler.slo_ms", lambda d: d["scheduler"].update(slo_ms=float("nan"))),
        ("scheduler.alpha", lambda d: d["scheduler"].update(alpha=float("nan"))),
        ("scheduler.flush_factor", lambda d: d["scheduler"].update(flush_factor=float("nan"))),
        ("slos_ms", lambda d: d.update(slos_ms=[100.0, float("nan")])),
        ("slos_ms", lambda d: d.update(slos_ms=[float("inf")])),
        ("scheduler.window", lambda d: d["scheduler"].update(window="x")),
        ("fleet[0].count", lambda d: d["fleet"][0].update(count=2.7)),
        ("seeds[0]", lambda d: d.update(seeds=[True])),
        ("fleet[0]", lambda d: d.update(fleet=[3])),
        ("schedular", lambda d: d.update(schedular=d.pop("scheduler"))),
        ("scheduler.calibration.target_forward_rate", calibrated(target_forward_rate=1.5)),
        ("scheduler.calibration.accuracy_tolerance",
         calibrated(accuracy_tolerance=float("nan"))),
        ("scheduler.calibration.count", calibrated(count=0)),
        ("scheduler.calibration.count", calibrated(count=10**20)),
        ("scheduler.calibration.seed", calibrated(seed=-1)),
        pytest.param("scheduler.window", lambda d: d["scheduler"].update(window=10**20),
                     id="scheduler.window-too-large"),
        ("fleet[0].trace.synthetic.count",
         lambda d: d["fleet"][0]["trace"]["synthetic"].update(count=10**20)),
        ("fleet[0].trace.synthetic.bvsb_shape_correct",
         lambda d: d["fleet"][0]["trace"]["synthetic"].update(
             bvsb_shape_correct=[float("nan"), 1.0])),
        ("fleet[0].trace.csv", lambda d: d["fleet"][0].update(trace={"csv": "a\0b.csv"})),
        ("sim.start_phase", lambda d: d.update(sim={"start_phase": "random"})),
        ("seeds", lambda d: d.update(seeds=[])),
        ("seeds", lambda d: d.update(seeds=[-1])),
        ("fleet[0].trace", lambda d: d["fleet"][0]["trace"].update(csv="trace.csv")),
        ("fleet[0].trace", lambda d: d["fleet"][0].update(trace={})),
        ("scheduler.kind", lambda d: d["scheduler"].update(kind="fast")),
        ("scheduler.initial_threshold", lambda d: d["scheduler"].update(initial_threshold=1.5)),
        *BAD_TABLES,
    ])
    def test_rejected_with_field_path(self, field, edit):
        doc = tiny_config_doc()
        edit(doc)
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert info.value.field == field

    @pytest.mark.parametrize("key, value", [("horizon_ms", None), ("horizon_ms", 1000.0),
                                            ("include_local_in_latency", True)])
    def test_removed_sim_keys_are_unknown_fields(self, key, value):
        """Every run ends when every sample is final, and latency always counts
        local inference: the two keys that changed that are gone."""
        doc = tiny_config_doc()
        doc["sim"] = {"start_phase": "staggered", key: value}
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == f"sim.{key}: unknown field"

    @pytest.mark.parametrize("message, edit", [
        ("scheduler.kind: required field missing",
         lambda s: (s.pop("kind"), s.update(alpha=-1.0))),
        ("scheduler.initial_threshold: must be a JSON number, got '0.5'",
         lambda s: s.update(initial_threshold="0.5", window="x")),
        ("scheduler.beta: must be positive and below alpha (0.83), got nan",
         lambda s: s.update(calibration={}, beta=float("nan"))),
        ("scheduler.foo: unknown field", lambda s: s.update(foo=1, kind="fast")),
        ("scheduler.margin: must be in [0, 1], got 2.0",
         lambda s: (s.pop("initial_threshold"), s.update(calibration={"count": 0}, margin=2))),
    ])
    def test_first_of_several_scheduler_faults(self, message, edit):
        """A ``scheduler`` section with several faults reports the first: an unknown
        key, then each field's presence and JSON type in field order (kind, the
        threshold source, the tuning), then the kind's value, the tuning ranges,
        the threshold source and the calibration's ranges."""
        doc = tiny_config_doc()
        edit(doc["scheduler"])
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == message

    def test_cli_exits_1_with_json_error(self, tmp_path, capsys):
        doc = tiny_config_doc()
        doc["network"]["downlink_ms"] = float("inf")
        cfg_path = write_config(tmp_path, doc)  # json.dumps writes Infinity
        assert "Infinity" in open(cfg_path, encoding="utf-8").read()
        assert main(["simulate", "--config", cfg_path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("network.downlink_ms:")

    def test_cli_wrong_type_exits_1_with_json_error(self, tmp_path, capsys):
        doc = tiny_config_doc()
        doc["scheduler"]["window"] = "x"
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("scheduler.window:")

    @pytest.mark.parametrize("message, edit", [
        ("scheduler.window:", lambda d: d["scheduler"].update(window=10**20)),
        ("fleet[0].count:", lambda d: d["fleet"][0].update(count=10**20)),
        ("fleet[0].trace.synthetic.count:",
         lambda d: d["fleet"][0]["trace"]["synthetic"].update(count=10**20)),
        ("scheduler.calibration.count:", calibrated(count=10**20)),
        # within range, but more samples than numpy can allocate
        ("fleet[0].trace.synthetic.count: 1000000000000000 samples are too many",
         lambda d: d["fleet"][0]["trace"]["synthetic"].update(count=10**15)),
        ("scheduler.calibration.count: 1000000000000000 samples are too many",
         calibrated(count=10**15)),
        ("scheduler.calibration.seed:", calibrated(seed=-1)),
        ("scheduler.calibration.accuracy_tolerance:",
         calibrated(accuracy_tolerance=float("nan"))),
        ("fleet[0].trace.csv:", lambda d: d["fleet"][0].update(trace={"csv": "a\0b.csv"})),
        *((f"{field}:", edit) for field, edit in BAD_TABLES),
    ])
    def test_cli_out_of_range_exits_1_with_json_error(self, tmp_path, capsys, message, edit):
        doc = tiny_config_doc()
        edit(doc)
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(message)


class TestCliInputErrors:
    """Malformed flags and unreadable inputs end in exit 1 and a JSON error whose
    message starts with the field path, never in a traceback or a silent run."""

    @pytest.mark.parametrize("message, argv", [
        ("--seed-list:", ["simulate", "--config", "{config}", "--seed-list", "-1"]),
        ("--seed-list:", ["simulate", "--config", "{config}", "--seed-list", ","]),
        ("--seed-list:", ["sweep", "--config", "{config}", "--devices", "2..4:2",
                          "--seed-list", ","]),
        ("--devices:", ["simulate", "--config", "{config}", "--devices", "0"]),
        ("--devices:", ["simulate", "--config", "heterog_inceptionv3", "--devices", "7"]),
        ("--devices:", ["sweep", "--config", "{config}", "--devices", "0..3:3"]),
        ("--devices:", ["sweep", "--config", "{config}", "--devices",
                        "1..99999999999999999999:1"]),
        ("slo_ms:", ["capacity", "--table", '{"1": 5e-324}', "--slo", "1"]),
        ("slo_ms:", ["capacity", "--config", "{tiny_latency}", "--slo", "100"]),
        ("slo_ms:", ["simulate", "--config", "{tiny_latency}", "--devices", "2",
                     "--seed-list", "1"]),
        ("slo_ms:", ["capacity", "--table", '{"1": 1e-300}', "--slo", "1"]),
        ("slo_ms:", ["simulate", "--config", "{inexact_capacity}", "--devices", "2",
                     "--seed-list", "1"]),
        ("fleet[0].trace.csv:", ["simulate", "--config", "{csv_config}"]),
        ("fleet[0].trace.csv:", ["calibrate", "--config", "{csv_config}"]),
        ("--trace:", ["calibrate", "--trace", "{missing}"]),
        ("--trace:", ["calibrate", "--trace", "{nul}"]),
        ("--table.2:", ["capacity", "--table", '{"1": 10, "2": "12"}', "--slo", "100"]),
        ("--table.x:", ["capacity", "--table", '{"1": 10, "x": 12}', "--slo", "100"]),
        ("--max-effective:", ["capacity", "--table", '{"1": 10, "2": 12}',
                              "--max-effective", "4", "--slo", "100"]),
        ("--target:", ["calibrate", "--config", "{config}", "--target", "1.5"]),
        ("--target:", ["calibrate", "--trace", "{missing}", "--target", "0"]),
        ("--tolerance:", ["calibrate", "--config", "{config}", "--tolerance", "nan"]),
        ("--tolerance:", ["calibrate", "--trace", "{missing}", "--tolerance", "-0.1"]),
        ("--table:", ["capacity", "--slo", "100"]),
        ("--trace:", ["calibrate"]),
    ])
    def test_exits_1_with_json_error(self, tmp_path, capsys, message, argv):
        missing = tmp_path / "missing.csv"
        csv_doc = tiny_config_doc()
        csv_doc["fleet"][0]["trace"] = {"csv": str(missing)}
        calibrated()(csv_doc)
        (tmp_path / "csv").mkdir()
        tiny_latency = preset_doc("homog_efflite0_inceptionv3")
        tiny_latency["server"] = {"batch_latency_table": {"1": 5e-324}}
        (tmp_path / "tiny_latency").mkdir()
        inexact_capacity = preset_doc("homog_efflite0_inceptionv3")
        inexact_capacity["server"] = {"batch_latency_table": {"1": 1e-300}}
        (tmp_path / "inexact_capacity").mkdir()
        paths = {"{config}": write_config(tmp_path, tiny_config_doc()),
                 "{csv_config}": write_config(tmp_path / "csv", csv_doc),
                 "{tiny_latency}": write_config(tmp_path / "tiny_latency", tiny_latency),
                 "{inexact_capacity}": write_config(tmp_path / "inexact_capacity",
                                                    inexact_capacity),
                 "{missing}": str(missing), "{nul}": f"{missing}\0"}
        assert main([paths.get(arg, arg) for arg in argv]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(message)
        if ("trace.csv" in message or "--trace" in message) and argv != ["calibrate"]:
            assert str(missing) in err["message"]  # the path that could not be read

    @pytest.mark.parametrize("argv", [["simulate"], ["sweep", "--devices", "2..4:2"],
                                      ["capacity", "--slo", "100"], ["calibrate"]])
    @pytest.mark.parametrize("fault, message", [("directory", "cannot read: Is a directory"),
                                                ("latin-1", "not UTF-8 text"),
                                                ("[]", "must be a JSON object, got []"),
                                                ("nothing", "invalid JSON: Expecting value: "
                                                 "line 1 column 1 (char 0)"),
                                                ('"x"', "must be a JSON object, got 'x'")])
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys, argv, fault,
                                                      message):
        """A config file that cannot be read, is not UTF-8, is not JSON or holds no JSON
        object is refused at the file's path."""
        path = tmp_path / "config.json"
        if fault == "directory":
            path.mkdir()
        elif fault == "latin-1":
            path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        else:
            path.write_text(fault, encoding="utf-8")
        assert main([argv[0], "--config", str(path), *argv[1:]]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": f"{path}: {message}"}

    def test_malformed_trace_file_is_a_trace_error(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"sample_index,bvsb,light_correct,heavy_correct\n0,\xff,1,1\n")
        assert main(["calibrate", "--trace", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "TraceError", "message": "--trace: row 2: not UTF-8 text"}

    @pytest.mark.parametrize("verb", ["calibrate", "simulate"])
    def test_trace_error_names_the_group_of_a_multi_group_config(self, tmp_path, capsys,
                                                                 verb):
        path = tmp_path / "trace.csv"
        path.write_text("sample_index,bvsb,light_correct,heavy_correct\n"
                        "0,0.5,1,1\n1,2.0,1,0\n", encoding="utf-8")
        doc = preset_doc("heterog_inceptionv3")
        doc["fleet"][1]["trace"] = {"csv": str(path)}
        assert main([verb, "--config", write_config(tmp_path, doc)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "TraceError",
                       "message": "fleet[1].trace.csv: row 3: bvsb 2.0 outside [0, 1]"}


def two_device_preset(edit=None):
    """The homog preset at 2 devices of 200 samples, with ``edit`` applied."""
    doc = preset_doc("homog_efflite0_inceptionv3")
    doc["fleet"][0]["count"] = 2
    doc["fleet"][0]["trace"]["synthetic"]["count"] = 200
    if edit:
        edit(doc)
    return doc


class TestRunawayRuns:
    """A run whose events would fall past the largest float, or more than
    sys.maxsize tick periods in, is refused at a field before it starts. Each
    case runs ``cascsim.cli`` in a child process with a timeout, so a run that
    never ends fails the test instead of hanging the suite."""

    @pytest.mark.parametrize("field, edit", [
        ("network.downlink_ms:",
         lambda doc: doc["network"].update(uplink_ms=1e308, downlink_ms=1e308)),
        ("fleet[0].t_inf_ms:", lambda doc: doc["fleet"][0].update(t_inf_ms=1e306)),
        ("scheduler.tick_period_ms:", lambda doc: doc["network"].update(uplink_ms=1e308)),
        ("scheduler.tick_period_ms:",
         lambda doc: doc["scheduler"].update(tick_period_ms=1e-300)),
    ], ids=["infinite_links", "infinite_local_time", "huge_uplink", "tiny_tick_period"])
    def test_exits_1_with_one_json_error(self, tmp_path, field, edit):
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(cascsim.__file__)))
        path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-m", "cascsim.cli", "simulate", "--config",
             write_config(tmp_path, two_device_preset(edit)), "--seed-list", "1"],
            capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=path))
        assert (done.returncode, done.stdout) == (1, "")
        [line] = done.stderr.splitlines()  # no overflow warning either
        err = json.loads(line)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(field)

    def test_finite_but_slow_runs_are_allowed(self, tmp_path, capsys):
        doc = two_device_preset(lambda doc: doc["network"].update(uplink_ms=1e7,
                                                                  downlink_ms=1e7))
        assert main(["simulate", "--config", write_config(tmp_path, doc),
                     "--seed-list", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["makespan_ms"] > 2e7


@pytest.mark.parametrize("argv", [["simulate", "--devices", "4", "--seed-list", "1,2,3"],
                                  ["sweep", "--devices", "2..6:2", "--seed-list", "1"]])
def test_a_csv_fleet_loads_its_file_once_per_command(tmp_path, monkeypatch, capsys, argv):
    """Calibration and every run of the command share the one parsed file."""
    import cascsim.config
    preset = "homog_efflite0_inceptionv3"
    params = replace(load_config(preset).fleet[0].synthetic, count=300)
    with open(tmp_path / "group0.csv", "w", encoding="utf-8") as fh:
        write_trace_csv(generate_synthetic_trace(params, [7, 0]), fh)
    doc = preset_doc(preset)
    doc["fleet"][0]["trace"] = {"csv": "group0.csv"}
    loads = []
    load = cascsim.config.load_trace_csv
    monkeypatch.setattr(cascsim.config, "load_trace_csv",
                        lambda *args: loads.append(args) or load(*args))
    assert main([argv[0], "--config", write_config(tmp_path, doc), *argv[1:]]) == 0
    assert len(loads) == 1


def test_logged_simulate_lets_each_seed_log_go(tmp_path, capsys):
    """Each seed's event log and sample columns are released once its files are
    written, so a 3-seed logged simulate peaks at about the traced memory of a
    1-seed one (it held every log until the mean, 1.8x). The preset runs on 300-sample traces and a
    1000-sample calibration, which keeps tracemalloc's per-allocation cost low;
    a warm-up run keeps first-call imports out of the 1-seed peak."""
    doc = json.loads(resources.files("cascsim").joinpath(
        "presets", "homog_efflite0_inceptionv3.json").read_text(encoding="utf-8"))
    for group in doc["fleet"]:
        group["trace"]["synthetic"]["count"] = 300
    doc["scheduler"]["calibration"]["count"] = 1000
    config = write_config(tmp_path, doc)

    def run(seeds):
        assert main(["simulate", "--config", config, "--devices", "6", "--seed-list", seeds,
                     "--event-log", "--out", str(tmp_path / seeds.replace(",", "_"))]) == 0
        capsys.readouterr()

    def peak(seeds):
        tracemalloc.start()
        try:
            run(seeds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run("9")
    one = peak("1")
    assert peak("1,2,3") < 1.3 * one


def run_watching_seeds(monkeypatch, argv: list[str]) -> tuple[list, list]:
    """Run ``main(argv)``, checking when each seed's first run starts that no
    synthetic trace of an earlier seed is held. Returns the seeds in the order
    they started and the (seed, weak reference) of every synthetic trace drawn."""
    import cascsim.config

    class Referable(TraceSet):  # TraceSet's slots leave out weak references
        pass

    drawn = []
    draw = cascsim.config.generate_synthetic_trace

    def drawing(params, key):
        trace = draw(params, key)
        trace = Referable(trace.bvsb, trace.light_correct, trace.heavy_correct)
        drawn.append((key[0], weakref.ref(trace)))
        return trace

    started = []
    run = cascsim.cli.run_simulation

    def checked_run(cfg, seed, **kwargs):
        if seed not in started:
            gc.collect()
            assert [s for s, trace in drawn if s in started and trace() is not None] == []
            started.append(seed)
        return run(cfg, seed=seed, **kwargs)

    monkeypatch.setattr(cascsim.config, "generate_synthetic_trace", drawing)
    monkeypatch.setattr(cascsim.cli, "run_simulation", checked_run)
    assert main(argv) == 0
    return started, drawn


def test_simulate_holds_no_earlier_seeds_synthetic_traces(tmp_path, monkeypatch, capsys):
    """When a seed's run starts, no synthetic trace of an earlier seed is held:
    only the csv files and calibrations stay in the command's memo."""
    started, drawn = run_watching_seeds(monkeypatch, [
        "simulate", "--config", write_config(tmp_path, tiny_config_doc(count=3)),
        "--seed-list", "1,2,3"])
    assert started == [1, 2, 3] and len(drawn) == 9


def test_sweep_holds_no_earlier_seeds_synthetic_traces(tmp_path, monkeypatch, capsys):
    """When a seed's first run starts, no synthetic trace of an earlier seed is
    held, though each seed runs at several device counts."""
    started, drawn = run_watching_seeds(monkeypatch, [
        "sweep", "--config", write_config(tmp_path, tiny_config_doc()),
        "--devices", "1..3:2", "--seed-list", "1,2,3"])
    assert started == [1, 2, 3] and len(drawn) == 9


def test_logged_simulate_streams_its_event_log(tmp_path, monkeypatch, capsys):
    """The event log is formatted as it is written, one chunk of events at a time,
    so a logged run's traced peak stays within ``allowance`` of the same run
    unlogged, though the log is more than 4x that (built whole, then written, it
    peaked about 2x the log above the unlogged run). 12 heterogeneous devices on
    1400-sample traces (enough for a v3 log of more than 4x the allowance), a
    1000-sample calibration and 256-event chunks keep tracemalloc's cost low; a
    warm-up run keeps first-call imports out of the peaks."""
    allowance = 600_000
    monkeypatch.setattr(eventlog, "_CHUNK", 256)
    doc = preset_doc("heterog_inceptionv3")
    for group in doc["fleet"]:
        group["trace"]["synthetic"]["count"] = 1400
    doc["scheduler"]["calibration"]["count"] = 1000
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"

    def peak(*flags):
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", config, "--devices", "12", "--seed-list", "1",
                         "--out", str(out), *flags]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak("--event-log")
    unlogged, logged = peak(), peak("--event-log")
    assert (out / "events_seed1.tsv").stat().st_size >= 4 * allowance
    assert logged - unlogged < allowance, (logged, unlogged)


SETUP_THEN_RUNS = """
import json, sys
import cascsim
seen = []
cascsim.load_config("heterog_inceptionv3").resolve_initial_thresholds()
seen.append("cascsim.eventlog" in sys.modules)
from cascsim.cli import main
for flags in ([], ["--event-log"]):
    assert main(["simulate", "--config", sys.argv[1], "--seed-list", "1",
                 "--out", sys.argv[2], *flags]) == 0
    seen.append("cascsim.eventlog" in sys.modules)
print(json.dumps(seen))
"""


def test_setup_and_an_unlogged_run_never_import_the_event_log(tmp_path):
    """A fresh import with a preset's config and initial thresholds (what perfbench's
    ``setup_s`` times), then a ``simulate`` without ``--event-log``, leave
    ``cascsim.eventlog`` unimported; a logged run then imports it. One child process
    runs the three steps in turn, so no test's earlier import hides the answer."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cascsim.__file__)))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", SETUP_THEN_RUNS, write_config(tmp_path, tiny_config_doc()),
         str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [False, False, True]


def test_a_failed_event_log_leaves_no_file(tmp_path, monkeypatch, capsys):
    """A log that fails after its first piece (say, on a full disk) exits 1 with the
    JSON error and leaves neither the events file nor its temporary file."""
    def failing_log(run, report):
        yield "first\n"
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(eventlog, "rebuild_event_log", failing_log)
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, tiny_config_doc()),
                 "--seed-list", "1", "--out", str(out), "--event-log"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "OSError", "message": "[Errno 28] No space left on device"}
    assert sorted(p.name for p in out.iterdir()) == ["report_seed1.json"]


def test_an_out_that_names_a_file_is_a_json_error(tmp_path, capsys):
    """``--out`` naming a file, not a directory, exits 1 with one JSON line on stderr."""
    out = tmp_path / "out"
    out.write_text("not a directory\n", encoding="utf-8")
    assert main(["simulate", "--config", write_config(tmp_path, tiny_config_doc()),
                 "--seed-list", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "FileExistsError",
                               "message": f"[Errno 17] File exists: '{out}'"}
    assert out.read_text(encoding="utf-8") == "not a directory\n"
