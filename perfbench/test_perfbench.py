#!/usr/bin/env python3
"""The benchmark's own test, at smoke size (tiny data, 400 ops per window).

    python3 perfbench/test_perfbench.py

Run from anywhere inside a checkout; it builds through run.py like the
benchmark itself. It checks that

  * every metric BENCHMARK.json lists is printed, with its unit, on every
    workload and in both modes, and each end-to-end metric of the report
    appears exactly on the workloads it is defined for;
  * two runs with one seed print identical simulated-time, space and
    write-amplification figures on point_resident and ingest_durable;
  * in a traced run of a single-client workload, the per-span SimDisk count
    deltas of the root spans sum exactly to the window's totals.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["point_resident", "analytic_evicting", "ingest_durable", "fleet_sessions"]
SERIAL = ["point_resident", "analytic_evicting", "ingest_durable"]
ALL = set(WORKLOADS)

# The end-to-end report: each metric and the workloads it is defined on.
END_TO_END = {
    "setup_s": ALL,
    "setup_sim_ms": ALL,
    "ops_per_s": ALL,
    "cpu_us_per_op": ALL,
    "ptq_p50_us": ALL,
    "ptq_p99_us": {"point_resident", "analytic_evicting", "ingest_durable"},
    "topk_p50_us": {"point_resident", "ingest_durable", "fleet_sessions"},
    "secondary_p50_us": {"analytic_evicting"},
    "insert_p50_us": {"ingest_durable", "fleet_sessions"},
    "sim_ms_per_op": ALL,
    "cold_read_sim_ms": ALL,
    "space_amp": ALL,
    "write_amp": {"ingest_durable", "fleet_sessions"},
    "total_write_amp": ALL,
    "peak_rss_mb": ALL,
    "error_rate": ALL,
}

WRITES = {"ingest_durable", "fleet_sessions"}
# The traced report: each per-layer metric and the workloads it is defined on
# (sim.rows_per_device_read only appears where the window read the device).
PER_LAYER = {
    "engine.bind_us": set(SERIAL),
    "engine.plan_cache_hit_ratio": ALL,
    "engine.insert_us": {"ingest_durable"},
    "engine.delete_us": {"ingest_durable"},
    "engine.create_table_ms": ALL,
    "partition.shards_probed_per_read": {"fleet_sessions"},
    "partition.shards_pruned_ratio": {"fleet_sessions"},
    "exec.execute_us.ptq": set(SERIAL),
    "exec.execute_us.topk": {"point_resident", "ingest_durable"},
    "exec.execute_us.secondary": {"analytic_evicting"},
    "exec.rows_per_read.ptq": ALL,
    "exec.rows_per_read.secondary": {"analytic_evicting"},
    "exec.us_per_row.ptq": set(SERIAL),
    "exec.us_per_row.secondary": {"analytic_evicting"},
    "exec.aggregate_us": {"analytic_evicting"},
    "core.fractures_at_end": WRITES,
    "core.fractures_probed_per_read": WRITES,
    "core.fractures_pruned_ratio": WRITES,
    "core.bloom_rejects_per_read": WRITES,
    "storage.pool_hit_ratio": ALL,
    "storage.misses_per_op": ALL,
    "storage.evictions_per_op": ALL,
    "storage.writebacks_per_op": ALL,
    "sim.reads_per_op": ALL,
    "sim.seeks_per_op": ALL,
    "sim.bytes_read_per_op": ALL,
    "sim.writes_per_op": ALL,
    "sim.bytes_written_per_op": ALL,
    "sim.file_opens_per_op": ALL,
    "sim.rotations_per_op": ALL,
    "sim.gc_ms_per_op": {"fleet_sessions"},
    "wal.syncs_per_insert": WRITES,
    "wal.log_bytes_per_insert": WRITES,
    "wal.recover_ms": WRITES,
    "wal.records_replayed": WRITES,
    "maintenance.busy_ms": WRITES,
    "maintenance.busy_share": WRITES,
    "maintenance.flushes": WRITES,
    "maintenance.partial_merges": WRITES,
    "maintenance.full_merges": WRITES,
    "maintenance.rewrite_bytes_per_user_byte": WRITES,
    "datagen.generate_ms": ALL,
    "setup.warmup_ms": ALL,
    "trace.ops_per_s_ratio": ALL,
}
DISK_FIELDS = ["reads", "writes", "seeks", "bytes_read", "bytes_written",
               "file_opens", "rotations"]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n"
                             f"{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
    return p.stdout.splitlines()


def report(lines, tag):
    """{name: (value text, unit)} of the `metric` / `layer` report lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == tag:
            out[parts[1]] = (parts[2], parts[3])
    return out


def key_values(line):
    return {k: int(v) for k, v in (f.split("=") for f in line.split()[1:])}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {(w, t): run(w, 1, t) for w in WORKLOADS for t in (0, 1)}

    def test_listed_metrics_printed_with_units(self):
        for (workload, trace), lines in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                listed = self.spec["per_layer" if trace else "end_to_end"]
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
                printed = report(lines, "layer" if trace else "metric")
                for m in listed:
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertEqual(printed[m["name"]][1], m["unit"])

    def test_each_metric_on_its_workloads(self):
        for (workload, trace), lines in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                table = PER_LAYER if trace else END_TO_END
                printed = set(report(lines, "layer" if trace else "metric"))
                printed.discard("sim.rows_per_device_read")
                want = {name for name, on in table.items() if workload in on}
                self.assertEqual(printed, want)

    def test_error_rate_zero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                printed = report(self.runs[(workload, 0)], "metric")
                self.assertEqual(float(printed["error_rate"][0]), 0.0)

    def test_one_seed_repeats_counts_exactly(self):
        exact = ["sim_ms_per_op", "space_amp", "cold_read_sim_ms", "setup_sim_ms",
                 "total_write_amp"]
        for workload, names in [("point_resident", exact),
                                ("ingest_durable", exact + ["write_amp"])]:
            with self.subTest(workload=workload):
                first = report(run(workload, 7, 0), "metric")
                second = report(run(workload, 7, 0), "metric")
                for name in names:
                    self.assertEqual(first[name], second[name], name)

    def test_span_deltas_sum_to_window_totals(self):
        for workload in SERIAL:
            with self.subTest(workload=workload):
                lines = self.runs[(workload, 1)]
                window = key_values(next(l for l in lines if l.startswith("window_disk")))
                build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
                path = os.path.join(ROOT, build, "perfbench", "runs",
                                    f"trace-{workload}.tsv")
                sums = dict.fromkeys(DISK_FIELDS, 0)
                with open(path) as f:
                    header = f.readline().rstrip("\n").split("\t")
                    for row in f:
                        span = dict(zip(header, row.rstrip("\n").split("\t")))
                        if span["parent"] == "-1":
                            for field in DISK_FIELDS:
                                sums[field] += int(span[field])
                if workload != "point_resident":  # resident: no device I/O at all
                    self.assertGreater(window["writes"] + window["reads"], 0)
                self.assertEqual(sums, {k: window[k] for k in DISK_FIELDS})


if __name__ == "__main__":
    unittest.main()
