"""Tests of the benchmark driver's metrics and output checks.

    python3 -m unittest discover -s perfbench/tests

They exercise `perfbench/run.py` on hand-made records, so they need no
build and run in well under a second.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (the driver module, found through the path above)

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

MODEL_FACTS = {
    "model_eta_at_k": 0.86,
    "model_bootstrap_end": 2.0,
    "model_efficient_end": 34.5,
    "model_completion": 34.5,
}


def record(workload, **facts):
    """A passing record of `workload`, with `facts` overriding."""
    base = {
        "flash_crowd": {"initial_population": 5000, "final_population": 0, "round_cap": 200,
                        "invariants_hold": True},
        "churn_growth": {"initial_population": 300, "final_population": 4300,
                         "tail_entropy": 0.0},
        "paper_validation": {"initial_population": 40, "final_population": 60,
                             "doctor_checks": 200, "doctor_violations": 0,
                             "telemetry_readable": True, "observers_completed": 12,
                             "phase_order_violations": 0, "observed_bootstrap_end": 1.2,
                             "observed_efficient_end": 30.1, "observed_completion": 30.1},
    }[workload]
    departures = 5000 if workload == "flash_crowd" else 800
    out = {
        "run": {"workload": workload, "seed": 1, "threads": 1, "traced": False},
        "timing": {"setup_s": 0.01, "sim_s": 2.0, "model_s": 0.3, "peer_rounds": 100000,
                   "peak_rss_mib": 12.0},
        "fingerprint": {"rounds": 34, "arrivals": 5000, "departures": departures,
                        "completions": departures, "pieces_exchanged": 9000,
                        "final_entropy": "0.0"},
        "facts": dict(base, **MODEL_FACTS),
    }
    out["facts"].update(facts)
    return out


def traced(workload, threads, exchange_s=1.0, sim_s=2.1):
    """A traced record carrying every per-layer metric the harness prints."""
    out = record(workload)
    out["run"].update(threads=threads, traced=True)
    out["timing"]["sim_s"] = sim_s
    out["layers"] = {name: 1.0 for name in run.PER_LAYER_UNITS
                     if name not in ("exchange.speedup_2t", "trace.overhead", "model.step_s")}
    out["layers"]["stage.exchange.self_s"] = exchange_s
    return out


# One breaking change per behaviour check: (check name, facts override).
BREAKS = {
    "flash_crowd": [
        ("flash_crowd.all_complete", {"final_population": 3}),
        ("flash_crowd.before_round_cap", {"round_cap": 34}),
        ("flash_crowd.invariants", {"invariants_hold": False}),
        ("model.predictions_finite", {"model_completion": float("nan")}),
    ],
    "churn_growth": [
        ("churn_growth.population_grew", {"final_population": 400}),
        ("churn_growth.tail_entropy_near_zero", {"tail_entropy": 0.6}),
        ("model.predictions_finite", {"model_eta_at_k": float("inf")}),
    ],
    "paper_validation": [
        ("paper_validation.doctor_clean", {"doctor_violations": 2}),
        ("paper_validation.phases_ordered", {"phase_order_violations": 1}),
        ("paper_validation.observed_boundaries_finite", {"observed_completion": float("nan")}),
        ("model.predictions_finite", {"model_eta_at_k": 1.5}),
    ],
}


def failed(checks):
    return [name for name, passed in checks if not passed]


class MetricNames(unittest.TestCase):
    def test_end_to_end_names_and_units_match_benchmark_json(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END_UNITS)
        printed = run.result_line([], run.end_to_end([record("flash_crowd")] * 3))["metrics"]
        self.assertEqual(set(printed), set(declared))
        for name, metric in printed.items():
            self.assertEqual(metric["unit"], declared[name])

    def test_per_layer_names_and_units_match_benchmark_json(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(declared, run.PER_LAYER_UNITS)
        one, two = traced("flash_crowd", 1, 2.0), traced("flash_crowd", 2, 1.0)
        layers = run.per_layer(two, one, two, record("flash_crowd"))
        self.assertEqual(set(layers), set(declared))
        self.assertAlmostEqual(layers["exchange.speedup_2t"]["value"], 2.0)
        self.assertAlmostEqual(layers["trace.overhead"]["value"], 2.1 / 2.0 - 1.0)

    def test_result_line_has_exactly_the_contract_keys(self):
        line = run.result_line([("a", True), ("b", False)], run.end_to_end([record("churn_growth")]))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (False, 2, 1))
        for metric in line["metrics"].values():
            self.assertEqual(set(metric), {"value", "unit"})

    def test_workloads_match_benchmark_json(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(run.WORKLOADS))

    def test_end_to_end_reports_the_whole_run(self):
        fast, slow, slower = (record("churn_growth") for _ in range(3))
        fast["timing"].update(sim_s=1.0, setup_s=0.02, peak_rss_mib=11.0)
        slower["timing"].update(sim_s=6.0, peer_rounds=300000, peak_rss_mib=13.0)
        metrics = run.end_to_end([slow, fast, slower])
        self.assertEqual(metrics["sim_s"]["value"], 3.0)
        self.assertEqual(metrics["sim_s"]["median"], 2.0)
        self.assertAlmostEqual(metrics["setup_s"]["value"], 0.04 / 3)
        self.assertEqual(metrics["peer_rounds_per_s"]["value"], 500000 / 9.0)
        self.assertEqual(metrics["peak_rss_mib"]["value"], 12.0)


class OutputChecks(unittest.TestCase):
    def test_good_records_pass_every_check(self):
        for workload in run.WORKLOADS:
            records = [record(workload), record(workload)]
            checks = run.run_checks(workload, records, [("fingerprint.same", records)])
            checks.append(run.repeat_check(records))
            self.assertEqual(failed(checks), [], workload)

    def test_each_check_fails_on_its_broken_record(self):
        for workload, breaks in BREAKS.items():
            every = {name for name, _ in run.BEHAVIOUR_CHECKS[workload]} | {"model.predictions_finite"}
            self.assertEqual({name for name, _ in breaks}, every, workload)
            for name, override in breaks:
                checks = run.run_checks(workload, [record(workload, **override)], [])
                self.assertEqual(failed(checks), [name], f"{workload}: {override}")

    def test_fingerprint_mismatch_is_counted_not_raised(self):
        a, b = record("flash_crowd"), record("flash_crowd")
        b["fingerprint"]["pieces_exchanged"] += 1
        checks = run.run_checks("flash_crowd", [a, b], [("fingerprint.threads_1_matches_2", [a, b])])
        self.assertEqual(failed(checks), ["fingerprint.threads_1_matches_2"])
        line = run.result_line(checks, run.end_to_end([a, b]))
        self.assertEqual((line["correct"], line["failed"]), (False, 1))

    def test_repeat_check_needs_a_repeated_matching_input_set(self):
        a, b, c = record("churn_growth"), record("churn_growth"), record("churn_growth")
        c["run"]["seed"] = 2
        c["fingerprint"]["arrivals"] += 7
        self.assertEqual(run.repeat_check([a, b, c]), ("fingerprint.repeatable", True))
        self.assertEqual(run.repeat_check([a, c]), ("fingerprint.repeatable", False))
        b["fingerprint"]["final_entropy"] = "0.5"
        self.assertEqual(run.repeat_check([a, b, c]), ("fingerprint.repeatable", False))

    def test_input_sets_are_fixed_by_the_seed(self):
        inputs = [run.repetition_input(4, rep) for rep in range(8)]
        self.assertEqual(inputs, [run.repetition_input(4, rep) for rep in range(8)])
        self.assertEqual(inputs[run.REPEAT_AT], inputs[0])
        self.assertEqual(len(set(inputs)), len(inputs) - 1)
        self.assertTrue(set(inputs).isdisjoint(run.repetition_input(5, rep) for rep in range(8)))

    def test_malformed_record_fails_checks_without_raising(self):
        for workload in run.WORKLOADS:
            broken = copy.deepcopy(record(workload))
            del broken["facts"]
            checks = run.run_checks(workload, [broken], [("fingerprint.same", [broken, {}])])
            checks.append(run.repeat_check([broken, {}]))
            self.assertEqual(len(failed(checks)), len(checks), workload)


class Contract(unittest.TestCase):
    def test_command_and_paths(self):
        self.assertEqual(BENCHMARK["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(BENCHMARK["paths"], ["perfbench"])
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in BENCHMARK["end_to_end"])}])

    def test_bad_flags_exit_2(self):
        with self.assertRaises(SystemExit) as caught:
            run.main(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        self.assertEqual(caught.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
