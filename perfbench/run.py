#!/usr/bin/env python3
"""Benchmark of scatres: pole sweeps, trace-class pole finding, decay pipelines, CLI.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {sweep,traceclass,decay,cli} --seed N \\
        --seconds S --trace {0,1}

Workloads are closed loops driven by one client in this process:

* ``sweep``: in-process ``model_from_spec`` -> ``find_resonances`` ->
  ``conjugate_pair_audit`` -> JSON/CSV export over closed-form models;
* ``traceclass``: in-process ``find_resonances`` on
  ``TraceClassModel(rankone_trace_data(a))``;
* ``decay``: in-process steps of ``scatres decay`` plus one ``resolve_B``;
* ``cli``: fresh ``python -m scatres.cli`` processes, one at a time.

Every op's output is judged against an oracle that does not use the pole
finder (``oracle.py``).  Failed ops are counted with their reasons and leave
the latency percentiles; they are never filtered out of the inputs.

A run has a fixed number of distinct ops, drawn from the seed as whole rounds
(``gen.ROUNDS``).  ``--trace 0`` runs every round once, then again from the
first while a whole round still fits in ``--seconds``, and reports the
end-to-end metrics.  ``attempted`` counts distinct ops and ``failed`` those
with a failed execution, so both repeat exactly for a given seed.
``--trace 1`` runs a fixed number of rounds, once untraced and once with
spans around the program's functions, and reports the per-layer metrics of
``layers.py`` together with the tracing overhead; a fixed op count makes
every count repeat exactly for a given seed.

Op timings are scaled to a reference host speed (``hostspeed.py``): a fixed
probe that does not call the program (a numeric kernel in this process; a
fresh interpreter running it for ``cli``) is timed between ops, and each
timing is multiplied by the probe's reference time over its time nearby.
The host this runs on shifts its speed by up to half for tens of seconds at
a time; the scaling takes that out and leaves changes to the program in.
The raw wall-clock values are printed beside the scaled ones and recorded.

End-to-end metrics (every workload): ``setup_s`` (raw wall-clock median of
three set-ups, each an import plus one fixed warm-up op; five cold ``import
scatres.cli`` for ``cli``), ``ops_per_s`` (correct op executions per second
of op time, median over blocks of whole rounds), ``latency_p50_ms`` and
``latency_tail_ms`` (successful executions), ``peak_rss_mb`` (this process,
or the largest child for ``cli``), ``ok_frac`` (1 - failed/attempted) and
``pole_recall`` (expected poles found / expected poles).  The summary also
prints ``failed_frac`` and, for ``cli``, the median time of each command.

The last line of standard output is the JSON result; the lines before it
are a readable summary, and the full record (environment, ``verify``
accuracy values, per-op verdicts, raw timings, host-speed samples) is
written under ``.perfbench_work/``.  ``correct`` is true when an oracle
checked every op's output; ops that fail the check are counted in
``failed`` with their reasons.  Exits 2 without a result when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep", "traceclass", "decay", "cli")

import gen  # noqa: E402  (standard library only, like ops, record and hostspeed)
import hostspeed  # noqa: E402
import ops  # noqa: E402
import record  # noqa: E402

# One BLAS thread and no other concurrency: on a shared 2-core host a second
# BLAS thread buys no speed on the program's small matrices and doubles the
# spread of timings.  Set before numpy loads.
for _var in record.THREAD_VARS:
    os.environ[_var] = "1"

SETUP_PROBES = 2  # fresh-process set-ups besides this process's own
CLI_SETUP_SAMPLES = 5
TRACE_ROUNDS = {"sweep": 20, "traceclass": 1, "decay": 1, "cli": 1}
# A sweep op takes a few milliseconds, short enough for one hiccup of the host
# to triple it: each runs five times back to back, its latency is the median
# of the five, and every execution counts toward ops_per_s.
REPEATS = {"sweep": 5}
TAIL_BEYOND = 10
TAIL_FLOOR = 0.95
BLOCK_S = 1.0
END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"), ("ok_frac", "ratio"), ("pole_recall", "ratio"),
)


def _work_dir(name: str) -> str:
    path = os.path.join(ROOT, ".perfbench_work", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Run:
    """One benchmark run: inputs, program handle, op loop, host-speed samples."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.inputs = gen.Inputs(workload, seed)
        self.work = work
        self.env = ops.python_env(ROOT)
        self.lib = None
        self.oracles = None  # built after the timed loop
        self.n_ops = 0
        self.t0 = None  # clock when the last loop began
        self.argv = [ops.python(), "-m", "scatres.cli"]
        # a host-speed probe matched to what the workload's ops spend time on
        if workload == "cli":
            probe = hostspeed.fresh_process_probe(
                [ops.python(), "-c", "import hostspeed; hostspeed.kernel()"], dict(self.env, PYTHONPATH=HERE))
            self.speed = hostspeed.HostSpeed(probe, hostspeed.PROCESS_REFERENCE_MS)
        elif workload == "decay":
            self.speed = hostspeed.HostSpeed(hostspeed.in_process_probe(hostspeed.array_kernel),
                                             hostspeed.ARRAY_REFERENCE_MS)
        else:
            self.speed = hostspeed.HostSpeed(hostspeed.in_process_probe(hostspeed.kernel),
                                             hostspeed.REFERENCE_MS)
        self.inputs.write_files(work)

    # -- set-up ----------------------------------------------------------------

    def setup_in_process(self) -> float:
        """Import the program and run one untimed warm-up op; the seconds taken."""
        t0 = time.perf_counter()
        self.lib = ops.load()
        ops.IN_PROCESS[self.workload](self.lib, self.inputs.warmup, self._op_dir("in-process"))
        return time.perf_counter() - t0

    def setup_samples(self) -> list[float]:
        """Seconds of each set-up measured in this run.

        Set-up is reported in raw wall-clock seconds: it is mostly imports,
        whose time does not follow the host-speed kernel (``hostspeed.py``).
        """
        if self.workload == "cli":
            code = "import time; t = time.perf_counter(); import scatres.cli; print(time.perf_counter() - t)"
            return [float(_check_output([ops.python(), "-c", code], self.env).split()[-1])
                    for _ in range(CLI_SETUP_SAMPLES)]
        samples = [self.setup_in_process()]
        for i in range(SETUP_PROBES):
            out = _check_output([ops.python(), os.path.join(HERE, "run.py"), "--workload", self.workload,
                                 "--seed", str(self.inputs.seed), "--probe-setup", str(i)], self.env)
            samples.append(json.loads(out.splitlines()[-1])["setup_s"])
        return samples

    # -- op loop -----------------------------------------------------------------

    def _op_dir(self, name) -> str:
        path = os.path.join(self.work, "ops", str(name))
        os.makedirs(path, exist_ok=True)
        return path

    def run_op(self, op: dict, argv=None, tracer=None):
        self.n_ops += 1
        if tracer is not None:
            tracer.op = self.n_ops
        if self.workload == "cli":  # a fresh output directory per command
            return ops.timed(ops.run_cli, argv or self.argv, op, self._op_dir(self.n_ops), self.env, self.work)
        times = []
        for _ in range(REPEATS.get(self.workload, 1)):
            out, dt = ops.timed(ops.IN_PROCESS[self.workload], self.lib, op, self._op_dir("in-process"))
            times.append(dt)
        dt = statistics.median(times)
        if "csv_path" in out:
            with open(out["csv_path"]) as fh:
                out["csv"] = fh.read()
        return out, dt

    def loop(self, seconds=None, rounds=None, argv_for=None, tracer=None):
        """Rounds 0..R-1 in order, then again from 0 while a whole round still fits in ``seconds``.

        R is the run's number of distinct rounds, or ``rounds`` when given;
        every one of them runs at least once.  The host's speed is sampled
        between ops.  Each record is one execution: ``key`` (round, position)
        names the op, ``t_done`` counts seconds since the loop began and
        ``t_mid`` is the clock at the middle of the execution.
        """
        n_rounds = rounds if rounds is not None else self.inputs.n_rounds
        records = []
        t0 = self.t0 = time.perf_counter()
        r = 0
        while True:
            for i, op in enumerate(self.inputs.round(r % n_rounds)):
                self.speed.maybe_sample()
                argv = argv_for(self.n_ops + 1) if argv_for else None
                out, dt = self.run_op(op, argv, tracer)
                now = time.perf_counter()
                records.append({"key": (r % n_rounds, i), "op": op, "out": out, "dt": dt, "round": r,
                                "t_done": now - t0, "t_mid": now - dt / 2})
            r += 1
            elapsed = time.perf_counter() - t0
            if r >= n_rounds and (seconds is None or elapsed * (r + 1) / r > seconds):
                break
        self.speed.sample()
        return records, time.perf_counter() - t0


def _check_output(argv, env) -> str:
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


# ---------------------------------------------------------------------------
# verdicts and metrics


def _verdict(run: Run, op: dict, res: dict) -> dict:
    """Reasons an op's output is wrong (none when right), against its oracle."""
    import oracle
    import verdict
    try:
        orc = run.oracles.for_op(op)
    except oracle.OracleError as exc:
        return {"ok": False, "reasons": ["unverified"], "error": str(exc), "found": 0, "expected": 0}
    if op["kind"] == "cli":
        reasons = verdict.judge_cli(op, res, orc)
    else:
        reasons = verdict.judge_in_process(op, res, orc)
    found, expected = verdict.recall_counts(op, res, orc)
    entry = {"ok": not reasons, "reasons": reasons, "found": found, "expected": expected}
    if "exception" in res:
        entry["exception"] = res["exception"]
    if op["kind"] == "cli":
        entry["exit"] = res["exit"]
    return entry


def judge(run: Run, records) -> list[dict]:
    """Verdict of every execution.  Repeats of an in-process op that return the
    same output as an earlier execution share its verdict."""
    import oracle
    if run.oracles is None:
        run.oracles = oracle.Oracles()
    seen: dict = {}
    out = []
    for rec in records:
        op, res = rec["op"], rec["out"]
        fingerprint = None
        if op["kind"] != "cli":
            fingerprint = (rec["key"], repr(sorted((k, v) for k, v in res.items() if k != "csv_path")))
        if fingerprint is None or fingerprint not in seen:
            v = _verdict(run, op, res)
            if fingerprint is not None:
                seen[fingerprint] = v
        else:
            v = seen[fingerprint]
        scale = run.speed.scale(rec["t_mid"])
        out.append(dict(v, key=rec["key"], family=_family(op), input=_describe(op), round=rec["round"],
                        t_done=rec["t_done"], scale=scale, raw_ms=1e3 * rec["dt"],
                        latency_ms=1e3 * rec["dt"] * scale))
    return out


def per_op(executions) -> list[dict]:
    """One verdict per distinct op: failed when any of its executions failed.

    Found and expected poles come from the first execution.
    """
    ops_by_key: dict = {}
    for v in executions:
        o = ops_by_key.get(v["key"])
        if o is None:
            ops_by_key[v["key"]] = dict(v, reasons=list(v["reasons"]), executions=1)
            continue
        o["executions"] += 1
        if not v["ok"]:
            o["ok"] = False
            o["reasons"] = sorted(set(o["reasons"]) | set(v["reasons"]))
    return sorted(ops_by_key.values(), key=lambda o: o["key"])


def _family(op: dict) -> str:
    model = json.loads(op["spec"])["model"] if "spec" in op else op["kind"]
    return f"{op['command']} {model}" if op["kind"] == "cli" else model


def _describe(op: dict) -> str:
    if op["kind"] == "traceclass":
        return f"traceclass a={op['a']!r}"
    text = op.get("command", op["kind"])
    if "spec" in op:
        text += " " + op["spec"]
    if "basis_n" in op:
        text += f" basis_n={op['basis_n']}"
    return text


def blocks(verdicts) -> list[list[dict]]:
    """Consecutive whole rounds grouped into blocks of at least BLOCK_S seconds."""
    out, cur, start = [], [], 0.0
    for i, v in enumerate(verdicts):
        cur.append(v)
        last_of_round = i + 1 == len(verdicts) or verdicts[i + 1]["round"] != v["round"]
        if last_of_round and v["t_done"] - start >= BLOCK_S:
            out.append(cur)
            cur, start = [], v["t_done"]
    if cur:
        if out:
            out[-1].extend(cur)
        else:
            out.append(cur)
    return out


def throughput(verdicts, repeats: int = 1, field: str = "latency_ms") -> float:
    """Correct op executions per second of op time: the median over blocks, so a
    burst of load from outside the benchmark moves one block rather than the run.

    ``field`` picks the scaled (``latency_ms``) or raw (``raw_ms``) op times.
    """
    rates = []
    for b in blocks(verdicts):
        busy_s = sum(v[field] for v in b) / 1e3
        rates.append(repeats * sum(v["ok"] for v in b) / busy_s)
    return statistics.median(rates)


def tail(lat: list[float]) -> tuple[float, float]:
    """Highest sample with TAIL_BEYOND samples above it, never below p95 (nearest
    rank); returns (value, percentile)."""
    lat = sorted(lat)
    n = len(lat)
    idx = max(n - 1 - TAIL_BEYOND, math.ceil(TAIL_FLOOR * n) - 1)
    return lat[idx], 100.0 * (idx + 1) / n


def latency_stats(verdicts, field: str = "latency_ms") -> dict:
    """Median and tail of successful executions (of all when none succeeded).

    The tail is taken in each block of whole rounds and the median over
    blocks is reported, so that one burst of load from outside the benchmark
    moves one block rather than the run's tail.
    """
    every = not any(v["ok"] for v in verdicts)
    ok = [v for v in verdicts if every or v["ok"]]
    per_block = [[v[field] for v in b if every or v["ok"]] for b in blocks(verdicts)]
    tails = [tail(lat) for lat in per_block if lat]
    return {"p50": statistics.median(v[field] for v in ok),
            "tail": statistics.median(t for t, _ in tails),
            "tail_pct": statistics.median(p for _, p in tails), "blocks": len(tails),
            "samples": len(ok)}


def end_to_end(executions, op_verdicts, setup: list[float], rss_mb: float, repeats: int,
               field: str = "latency_ms") -> tuple[dict, dict]:
    """End-to-end metrics.  With ``field="raw_ms"`` the op timings are the raw
    wall-clock ones rather than those scaled to the reference host speed."""
    lat = latency_stats(executions, field)
    expected = sum(v["expected"] for v in op_verdicts)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": throughput(executions, repeats, field),
        "latency_p50_ms": lat["p50"],
        "latency_tail_ms": lat["tail"],
        "peak_rss_mb": rss_mb,
        "ok_frac": sum(v["ok"] for v in op_verdicts) / len(op_verdicts),
        "pole_recall": sum(v["found"] for v in op_verdicts) / expected if expected else 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, lat


def command_p50(executions) -> dict:
    """Median scaled time per CLI command, failures included (readable summary only)."""
    by = {}
    for v in executions:
        command = v["family"].split()[0]
        by.setdefault(command, []).append(v["latency_ms"])
    return {f"{c}_p50_ms": statistics.median(t) for c, t in by.items()}


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def accuracy(run: Run, records) -> dict:
    """Measured value of every ``verify`` check: from this run's own ``verify``
    command, else from one ``verify`` run per program source, kept under
    ``.perfbench_work`` by source digest (the checks are deterministic)."""
    for rec in records:
        res = rec["out"]
        if rec["op"].get("command") == "verify" and "report.json" in res.get("files", {}):
            return record.accuracy_from_report(res["files"]["report.json"])
    path = os.path.join(ROOT, ".perfbench_work", f"accuracy-{record.source_digest(SRC)[:16]}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    acc = record.run_verify(ops.python(), run.env, os.path.join(run.work, "accuracy"))
    if acc:
        with open(path, "w") as fh:
            json.dump(acc, fh)
    return acc


# ---------------------------------------------------------------------------
# traced runs


def traced(run: Run):
    """Fixed rounds untraced, then the same rounds traced; per-layer metrics.

    Counts come from the traced pass alone.  The overhead compares the op
    rates of the two passes.
    """
    import layers
    import tracer as tracing

    rounds = TRACE_ROUNDS[run.workload]
    extra = {}
    if run.workload == "cli":
        base, wall_u = run.loop(rounds=rounds)
        summaries = []
        child = os.path.join(HERE, "child.py")
        paths = {}

        def argv_for(op_id):
            paths[op_id] = os.path.join(run.work, f"trace-{op_id}.json")
            return [ops.python(), child, paths[op_id], str(op_id), "--"]

        first = run.n_ops + 1
        records, wall_t = run.loop(rounds=rounds, argv_for=argv_for)
        per_cmd: dict = {}
        import_ms = []
        n_spans = 0
        for op_id, rec in zip(range(first, run.n_ops + 1), records):
            if not os.path.exists(paths[op_id]):
                continue
            with open(paths[op_id]) as fh:
                data = json.load(fh)
            summaries.append(data["summary"])
            import_ms.append(data["import_ms"])
            n_spans += data["spans"]
            per_cmd.setdefault(rec["op"]["command"], []).append(data["command_ms"])
        summary = tracing.merge(summaries)
        extra["cli.import_ms"] = statistics.median(import_ms) if import_ms else 0.0
        for cmd, values in per_cmd.items():
            extra[f"cli.{cmd}.command_ms"] = statistics.median(values)
    else:
        run.setup_in_process()
        run.loop(rounds=rounds)  # fills the program's caches, so both timed passes find them warm
        base, wall_u = run.loop(rounds=rounds)
        tr = tracing.Tracer()
        tr.install()
        try:
            records, wall_t = run.loop(rounds=rounds, tracer=tr)
        finally:
            tr.uninstall()
        summary = tr.summary()
        n_spans = len(tr.spans)
        with open(os.path.join(run.work, "spans.json"), "w") as fh:
            json.dump(tr.spans, fh)
    extra.update(record.import_times(ops.python(), run.env))
    verdicts = per_op(judge(run, records))
    acc = accuracy(run, records)
    extra.update({f"verify.{k}": v for k, v in acc.items()})
    n = len(records)
    extra.update({
        "trace.ops": n, "trace.spans": n_spans,
        "trace.untraced_ops_per_s": len(base) / wall_u,
        "trace.traced_ops_per_s": n / wall_t,
        "trace.overhead_pct": 100.0 * (1.0 - (n / wall_t) / (len(base) / wall_u)),
    })
    return layers.metrics(summary, extra), verdicts, acc, {"trace_summary": summary}


# ---------------------------------------------------------------------------


def summarize(workload, seed, metrics, raw, verdicts, lat, acc, env, commands, speed) -> None:
    """Readable summary: metrics with units, failures with reasons, records."""
    print(f"== scatres benchmark: workload={workload} seed={seed}")
    for name, m in metrics.items():
        was = f"   (raw {raw[name]['value']:.6g})" if raw and raw[name]["value"] != m["value"] else ""
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}{was}")
    if lat:
        print(f"  latency over {lat['samples']} successful executions; tail = p{lat['tail_pct']:.2f},"
              f" median over {lat['blocks']} block(s)")
    for k, v in commands.items():
        print(f"  {k:42s} {v:>16.6g} ms")
    if speed:
        print(f"  timings scaled to a host-speed probe time of {speed['reference_ms']} ms; probe median"
              f" {speed['probe_median_ms']:.3f} ms over {speed['samples']} samples"
              f" ({speed['spent_s']:.2f} s); raw wall-clock values in parentheses")
    bad = [v for v in verdicts if not v["ok"]]
    print(f"  per-op verdicts ({len(verdicts)} ops; latency of the first execution):")
    for v in verdicts:
        verdict = "ok" if v["ok"] else "FAIL " + ",".join(v["reasons"])
        code = f" exit={v['exit']}" if "exit" in v else ""
        detail = f" ({v['exception'][:120]})" if "exception" in v else ""
        key = "{}.{}".format(*v["key"])
        print(f"    op {key:>6s} x{v.get('executions', 1):<3d} {v['latency_ms']:10.2f} ms  {verdict}{code}{detail}:"
              f" {v['input'][:140]}")
    print(f"  ops: {len(verdicts)} attempted, {len(bad)} failed, failed_frac {len(bad) / len(verdicts):.4f}")
    reasons = Counter((v["family"], r) for v in bad for r in v["reasons"])
    for (family, reason), count in sorted(reasons.items()):
        print(f"    FAIL {count:5d} x {reason:24s} {family}")
    worst = sorted(acc.items(), key=lambda kv: -kv[1])[:3]
    print(f"  verify: {len(acc)} checks recorded; largest measured: "
          + ", ".join(f"{k}={v:.3g}" for k, v in worst))
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']},"
          f" blas {env['blas']}, threads {env['threads']}, commit {env['git_commit']},"
          f" source {env['source_sha256'][:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "scatres", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.probe_setup is not None:
        run = Run(args.workload, args.seed,
                  _work_dir(f"{args.workload}-s{args.seed}-probe{args.probe_setup}"))
        print(json.dumps({"setup_s": run.setup_in_process()}))
        return 0

    import compileall
    compileall.compile_dir(os.path.join(SRC, "scatres"), quiet=1)
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = _work_dir(name)
    run = Run(args.workload, args.seed, work)

    if args.trace:
        metrics, verdicts, acc, extra_record = traced(run)
        lat, cmd, raw, speed = None, {}, None, None
    else:
        setup = run.setup_samples()
        records, wall = run.loop(seconds=args.seconds)
        rss = peak_rss_mb(args.workload)
        executions = judge(run, records)
        verdicts = per_op(executions)
        repeats = REPEATS.get(args.workload, 1)
        metrics, lat = end_to_end(executions, verdicts, setup, rss, repeats)
        raw, _ = end_to_end(executions, verdicts, setup, rss, repeats, field="raw_ms")
        acc = accuracy(run, records)
        cmd = command_p50(executions) if args.workload == "cli" else {}
        speed = {"reference_ms": run.speed.reference_ms, "probe_median_ms": run.speed.median_probe_ms(),
                 "samples": len(run.speed.probe_ms), "spent_s": run.speed.spent_s}
        extra_record = {"setup_samples_s": setup, "wall_s": wall, "raw_metrics": raw,
                        "host_speed": dict(speed, probe_ms=run.speed.probe_ms,
                                           t=[t - run.t0 for t in run.speed.times]),
                        "executions": [{k: v[k] for k in ("key", "ok", "raw_ms", "scale", "t_done")}
                                       for v in executions]}

    env = record.environment(ROOT)
    attempted = len(verdicts)
    failed = sum(not v["ok"] for v in verdicts)
    # correct: every op's output was checked by an oracle; failed ops are counted, not hidden
    correct = not any("unverified" in v["reasons"] for v in verdicts)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(ROOT, ".perfbench_work", name + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "result": result, "environment": env, "accuracy": acc,
                   "extra": extra_record, "command_p50_ms": cmd, "verdicts": verdicts}, fh, indent=1)
    summarize(args.workload, args.seed, metrics, raw, verdicts, lat, acc, env, cmd, speed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
