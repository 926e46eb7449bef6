#!/usr/bin/env python3
"""Self-tests of the benchmark: ``python3 perfbench/selftest.py`` from the checkout root.

Covers the seeded generator, the oracles against closed forms, span
self-time arithmetic, the tracer's patching, the verdict rules, and a
minimal-length smoke run of every workload.  The file is not named
``test_*.py`` so that the program's own pytest suite does not collect it.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import record  # noqa: E402
import tracer  # noqa: E402
import verdict  # noqa: E402


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in ("sweep", "traceclass", "decay", "cli"):
            a, b = gen.Inputs(w, 7), gen.Inputs(w, 7)
            self.assertEqual([a.round(r) for r in range(5)], [b.round(r) for r in range(5)])
            self.assertEqual(a.wells, b.wells)

    def test_rounds_drawn_in_any_order_match(self):
        a, b = gen.Inputs("sweep", 3), gen.Inputs("sweep", 3)
        self.assertEqual(a.round(4), [b.round(r) for r in range(5)][4])

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(gen.Inputs("sweep", 1).round(0), gen.Inputs("sweep", 2).round(0))

    def test_csv_files_repeat(self):
        texts = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as d:
                gen.Inputs("cli", 5).write_files(d)
                with open(os.path.join(d, gen.Inputs.csv_name(0))) as fh:
                    texts.append(fh.read())
        self.assertEqual(texts[0], texts[1])

    def test_strata_are_covered_evenly(self):
        # every run of traceclass holds the same number of couplings per decade and sign
        for seed in (1, 2):
            inputs = gen.Inputs("traceclass", seed)
            a = [op["a"] for r in range(inputs.n_rounds) for op in inputs.round(r)]
            weak = sorted(x for x in a if -10 ** 0.5 <= x <= -10 ** -0.5)
            self.assertEqual(len(weak), inputs.n_rounds)
            # golden-ratio steps leave no gap wider than twice the even spacing
            logs = [math.log10(-x) for x in weak]
            self.assertLess(max(abs(p - q) for p, q in zip(sorted(logs), sorted(logs)[1:])), 2 / len(logs))

    def test_round_composition_is_fixed(self):
        def families(w, seed):
            return sorted(json.loads(op["spec"])["model"] if "spec" in op else op["kind"]
                          for op in gen.Inputs(w, seed).round(0))
        for w in ("sweep", "decay", "cli"):
            self.assertEqual(families(w, 1), families(w, 2))


class OracleTest(unittest.TestCase):
    def test_rankone_roots_solve_the_quadratic(self):
        for a in (0.05, 1.0, 4.0, 30.0, -0.3, -2.0, -40.0):
            for z, sheet in oracle.rankone_roots(a):
                k = oracle.momentum(z, sheet)
                self.assertLess(abs((1 - 1j * k) ** 2 + a), 1e-9 * max(1.0, abs(a)))

    def test_rankone_matches_closed_form_model(self):
        from scatres import smatrix
        for a in (0.3, 4.0, -2.0, -0.7):
            ks = smatrix.RankOneModel(a).eigen_momenta()
            mine = [oracle.momentum(z, s) for z, s in oracle.rankone_roots(a)]
            for k in ks:
                self.assertTrue(any(abs(k - m) < 1e-12 for m in mine))
        self.assertEqual(oracle.rankone_oracle(4.0).expected, [((3 - 4j), 2)])

    def test_jost_ode_matches_program_ode_and_closed_form(self):
        from scatres import smatrix
        for k in (0.3 + 0.2j, 2 - 1j, -1 + 3j, 3.2 - 1.28j):
            mine = complex(oracle.jost_ode(k, 10.0, 1.0))
            self.assertLess(abs(mine - smatrix.jost_F_ode(k, 10.0, 1.0)) / abs(mine), 1e-10)
            self.assertLess(abs(mine - complex(smatrix.jost_F(k, 10.0, 1.0))) / abs(mine), 1e-8)

    def test_square_well_poles(self):
        from scipy.optimize import brentq
        from scatres import smatrix
        poles = oracle.squarewell_poles(10.0, 1.0)
        bound = brentq(lambda kap: smatrix.jost_F_ode(1j * kap, 10.0, 1.0).real, 1.5, 3.0, xtol=1e-12)
        self.assertEqual([s for _, s in poles["expected"]].count(1), 1)
        self.assertTrue(any(s == 1 and abs(z + bound * bound) < 1e-8 for z, s in poles["expected"]))
        res = poles["resonances"]
        self.assertEqual(len(res), 2)
        self.assertLess(abs(res[0] - (8.80144 - 8.19478j)), 1e-4)
        self.assertLess(abs(res[1] - (45.87247 - 23.74684j)), 1e-4)
        for z, sheet in poles["expected"]:
            k = oracle.momentum(z, sheet)
            self.assertLess(abs(complex(smatrix.jost_F(k, 10.0, 1.0))), 1e-8)
            self.assertTrue(oracle.squarewell_is_pole(z, sheet, 10.0, 1.0))
        self.assertFalse(oracle.squarewell_is_pole(8.0 - 8.0j, 2, 10.0, 1.0))

    def test_csv_oracle_tolerance(self):
        orc = oracle.Oracles().for_op({"kind": "cli", "command": "resonances", "csv_a": 1.0,
                                       "spec": '{"model": "traceclass", "file": "f.csv"}'})
        self.assertEqual(orc.matched([(-2j + 1e-5, 2)]), 1)
        self.assertEqual(orc.matched([(-2j + 1e-3, 2)]), 0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # root 0..10 with children 1..3 and 4..8; the second child has a child 5..6
        spans = [["root", 0.0, 10.0, -1, 1], ["a", 1.0, 3.0, 0, 1], ["b", 4.0, 8.0, 0, 1],
                 ["c", 5.0, 6.0, 2, 1], ["other", 11.0, 12.0, -1, 2]]
        self.assertEqual(tracer.self_times(spans), [4.0, 2.0, 3.0, 1.0, 1.0])

    def test_overlapping_and_overhanging_children(self):
        spans = [["p", 0.0, 10.0, -1, 1], ["x", 2.0, 6.0, 0, 1], ["y", 5.0, 12.0, 0, 1]]
        self.assertEqual(tracer.self_times(spans)[0], 2.0)

    def test_summary_and_merge(self):
        t = tracer.Tracer()
        t.spans.extend([["f", 0.0, 0.003, -1, 1], ["g", 0.001, 0.002, 0, 1]])
        t.counts["f.points"] = 5
        s = t.summary()
        self.assertEqual(s["calls"], {"f": 1, "g": 1})
        self.assertAlmostEqual(s["self_ms"]["f"], 2.0)
        merged = tracer.merge([s, s])
        self.assertEqual(merged["calls"]["f"], 2)
        self.assertEqual(merged["counts"]["f.points"], 10)


class StatsTest(unittest.TestCase):
    def test_throughput_is_median_over_blocks_of_whole_rounds(self):
        import run
        # four rounds of two ops, 0.3 s per op; a block closes at a round end after >= 1 s
        oks = [True, True, True, False, False, False, True, True, True]
        verdicts = [{"ok": ok, "round": i // 2, "t_done": 0.3 * (i + 1), "latency_ms": 300.0, "raw_ms": 600.0}
                    for i, ok in enumerate(oks)]
        # the fifth, partial round is too short for a block of its own and joins the last one
        self.assertEqual([len(b) for b in run.blocks(verdicts)], [4, 5])
        self.assertAlmostEqual(run.throughput(verdicts), (3 / 1.2 + 3 / 1.5) / 2)
        self.assertAlmostEqual(run.throughput(verdicts, field="raw_ms"), (3 / 2.4 + 3 / 3.0) / 2)

    def test_per_op_fails_an_op_when_any_execution_fails(self):
        import run
        execs = [{"key": (0, 0), "ok": True, "reasons": [], "found": 1, "expected": 1},
                 {"key": (0, 1), "ok": True, "reasons": [], "found": 2, "expected": 2},
                 {"key": (0, 0), "ok": False, "reasons": ["exception"], "found": 0, "expected": 1}]
        ops = run.per_op(execs)
        self.assertEqual([(o["key"], o["ok"], o["reasons"], o["executions"], o["found"]) for o in ops],
                         [((0, 0), False, ["exception"], 2, 1), ((0, 1), True, [], 1, 2)])

    def test_tail_keeps_ten_samples_beyond_and_floors_at_p95(self):
        import run
        self.assertEqual(run.tail(list(range(1000))), (989, 99.0))
        self.assertEqual(run.tail(list(range(20))), (18, 95.0))

    def test_tail_is_median_over_blocks(self):
        import run
        # three one-second rounds of 200 ops each; one burst slows round 1 only
        lat = [float(i % 200) for i in range(600)]
        lat[250:280] = [1000.0] * 30
        verdicts = [{"ok": True, "latency_ms": x, "round": i // 200, "t_done": (i + 1) / 200}
                    for i, x in enumerate(lat)]
        stats = run.latency_stats(verdicts)
        self.assertEqual((stats["blocks"], stats["tail"]), (3, 189.0))


class HostSpeedTest(unittest.TestCase):
    def test_scale_uses_median_of_nearest_samples(self):
        import hostspeed
        hs = hostspeed.HostSpeed(hostspeed.in_process_probe(hostspeed.kernel), hostspeed.REFERENCE_MS)
        hs.times = [float(t) for t in range(10)]
        hs.probe_ms = [8.0] * 5 + [16.0] * 5  # the host halves its speed at t = 5
        self.assertEqual(hs.local_probe_ms(1.2), 8.0)
        self.assertEqual(hs.local_probe_ms(8.6), 16.0)
        self.assertEqual(hs.scale(9.9), hostspeed.REFERENCE_MS / 16.0)
        hs.times, hs.probe_ms = [0.0, 1.0], [4.0, 6.0]  # fewer samples than NEAREST
        self.assertEqual(hs.local_probe_ms(0.4), 5.0)

    def test_sample_keeps_time_order(self):
        import hostspeed
        hs = hostspeed.HostSpeed(hostspeed.in_process_probe(hostspeed.array_kernel), hostspeed.ARRAY_REFERENCE_MS)
        for _ in range(3):
            hs.sample()
        self.assertEqual(hs.times, sorted(hs.times))
        self.assertEqual(len(hs.probe_ms), 3)
        self.assertTrue(all(k > 0 for k in hs.probe_ms))


class TracerTest(unittest.TestCase):
    def test_install_patches_every_binding_and_uninstall_restores(self):
        import scatres.cli  # noqa: F401  (loads every module)
        from scatres import cli, finder, hardy, semigroup, smatrix, subspace, verify
        orig = (hardy.mt_expand, subspace.mt_expand, cli.build_polar_isometry,
                smatrix.RankOneModel.pole_condition, verify.SUITES["hardy"])
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIs(subspace.mt_expand, hardy.mt_expand)
            self.assertIs(cli.build_polar_isometry, semigroup.build_polar_isometry)
            self.assertIsNot(subspace.mt_expand, orig[0])
            self.assertIsNot(verify.SUITES["hardy"], orig[4])
            finder.find_resonances(smatrix.RankOneModel(1.0))
        finally:
            t.uninstall()
        self.assertEqual(orig, (hardy.mt_expand, subspace.mt_expand, cli.build_polar_isometry,
                                smatrix.RankOneModel.pole_condition, verify.SUITES["hardy"]))
        s = t.summary()
        self.assertEqual(s["calls"]["finder.find_resonances"], 1)
        self.assertEqual(s["counts"]["finder.rim_scan.points"], 2 * 4001)


class VerdictTest(unittest.TestCase):
    def test_missed_spurious_and_nonfinite(self):
        op = {"kind": "sweep", "spec": '{"a": 4.0, "model": "rankone"}'}
        orc = oracle.Oracles().for_op(op)
        out = {"poles": [], "json": "{}", "csv": "re_zeta\n"}
        self.assertEqual(verdict.judge_in_process(op, out, orc), ["missed_pole"])
        out = {"poles": [((3 - 4j), 2), ((1 - 1j), 2)], "json": "{}", "csv": "re_zeta\nnan\n"}
        self.assertEqual(verdict.judge_in_process(op, out, orc), ["spurious_pole", "nonfinite_output"])
        out = {"poles": [((3 - 4j), 2)], "json": "{}", "csv": "re_zeta\n3\n"}
        self.assertEqual(verdict.judge_in_process(op, out, orc), [])

    def test_trivial_decay_is_right_without_resonances(self):
        op = {"kind": "cli", "command": "decay", "spec": '{"a": -2.0, "model": "rankone"}'}
        orc = oracle.Oracles().for_op(op)
        self.assertEqual(verdict.judge_cli(op, {"exit": 3, "files": {}, "stdout": ""}, orc), [])
        op = {"kind": "cli", "command": "decay", "spec": '{"model": "example1"}'}
        orc = oracle.Oracles().for_op(op)
        self.assertEqual(verdict.judge_cli(op, {"exit": 3, "files": {}, "stdout": ""}, orc), ["exit_code"])

    def test_decay_curve_against_reference(self):
        op = {"kind": "decay", "spec": '{"model": "example1"}'}
        orc = oracle.Oracles().for_op(op)
        ref = [cmath.exp(-0.1 * i).real for i in range(31)]
        out = {"poles": [(1j, 1), ((1 - 1j), 1)], "outcome": "curve", "zeta": 1 - 1j,
               "decay": ref, "reference": ref, "unitary": ref, "resolvent_err": 1e-4}
        self.assertEqual(verdict.judge_in_process(op, out, orc), [])
        out["decay"] = [1.05 * v for v in ref]
        self.assertEqual(verdict.judge_in_process(op, out, orc), ["decay_off_reference"])


class RecordTest(unittest.TestCase):
    def test_importtime_parser(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:       200 |        300 |   scipy",
            "import time:        50 |         50 |     scipy.special._x",
            "import time:       400 |        450 |   scipy.special",
            "import time:        10 |        900 | scatres.cli",
        ])
        self.assertEqual(record.parse_importtime(text), {"scatres_cli_ms": 0.9, "scipy_ms": 0.75})


class ContractTest(unittest.TestCase):
    def test_per_layer_names_match_benchmark_file(self):
        spec = bench_spec()
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], layers.spec())
        import run
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))

    def _run(self, workload, trace):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                               "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_smoke_runs(self):
        spec = bench_spec()
        for w in [w["name"] for w in spec["workloads"]]:
            with self.subTest(workload=w):
                result = self._run(w, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), [m["name"] for m in spec["end_to_end"]])
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_counts_repeat(self):
        a, b = self._run("sweep", 1), self._run("sweep", 1)
        names = [m["name"] for m in bench_spec()["per_layer"]]
        self.assertEqual(list(a["metrics"]), names)
        counts = [n for n in names if a["metrics"][n]["unit"] == "count"]
        self.assertEqual({n: a["metrics"][n]["value"] for n in counts},
                         {n: b["metrics"][n]["value"] for n in counts})

    def test_refuses_without_program(self):
        with tempfile.TemporaryDirectory() as d:
            os.makedirs(os.path.join(d, "perfbench"))
            for name in os.listdir(HERE):
                if name.endswith(".py"):
                    with open(os.path.join(HERE, name)) as src, \
                            open(os.path.join(d, "perfbench", name), "w") as dst:
                        dst.write(src.read())
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=d, capture_output=True,
                                  text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
