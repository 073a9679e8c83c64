"""Benchmark for pbent: drive the `pbent` CLI on seeded inputs, check every
output, and print the metrics as one JSON object on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from `src/`.  With
`--trace 0` the CLI runs as a user runs it and the end-to-end metrics are
reported.  With `--trace 1` each op also runs once through
`perfbench/traced_cli.py`, which records a span per layer call, and the
per-layer metrics are reported.  See perfbench/README.md for the workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median
from typing import Callable

import numpy as np

import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("perfbench") / "work"  # relative to ROOT, where every command runs
MIN_SETUP_SAMPLES = 20
CALL_TIMEOUT_S = 120
SEARCH_WIDTH = 2

# The two scans of search-ndcor, each with its pinned summary and the sha256
# of its whole --stable output as the package first produced it.
SEARCH_SCANS = (
    (
        ["--p", "3", "--m", "4"],
        {"pairs_scanned": 5616, "abs_sq_eq_p2": 576, "abs_sq_ne_p2": 5040, "witnesses": 5616},
        "e75f1f7b4c3a241c69f31d206a16d7ef90bd5977d4f9b756ec77475a41bf7360",
    ),
    (
        ["--p", "5", "--m", "3", "--limit", "1200"],
        {"pairs_scanned": 1200, "abs_sq_eq_p2": 32, "abs_sq_ne_p2": 1168, "witnesses": 1200},
        "c25cd7ebe3b111dc332c2a3013f78d6972e2d9724f89decaf485e1c6a54f85c3",
    ),
)


# ---- running the CLI --------------------------------------------------------------


@dataclass
class Ran:
    code: int
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


# A process's peak RSS (ru_maxrss) starts from the peak of the process it was
# spawned from: exec keeps the old address space's high-water mark.  This
# process holds NumPy and the inputs, so the CLI is started from a small
# runner instead, which times it and records its peak RSS and its workers'.
RUNNER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(proc.pid, 0)
wall_s = time.perf_counter() - start
with open(sys.argv[1], "w") as fh:
    json.dump({"wall_s": wall_s, "maxrss_kb": usage.ru_maxrss}, fh)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_pbent(args: list[str], spans_path: Path | None = None) -> Ran:
    """One CLI process, timed from spawn to exit.  The runner and the CLI run
    in a session of their own, so that a timeout also stops the search's
    pool workers."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "pbent.cli", *args]
    else:
        cmd = [sys.executable, "perfbench/traced_cli.py", str(spans_path), "--", *args]
    usage_path = WORK / "usage.json"
    usage_path.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, "-c", RUNNER, str(usage_path), *cmd],
                            env=dict(os.environ, PYTHONPATH="src"), start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return Ran(-signal.SIGKILL, CALL_TIMEOUT_S, 0, out, err + b"\ntimed out")
    try:
        usage = json.loads(usage_path.read_text())
    except (OSError, ValueError):
        return Ran(proc.returncode or -1, 0.0, 0, out, err + b"\nrunner left no usage record")
    return Ran(proc.returncode, usage["wall_s"], usage["maxrss_kb"], out, err)


SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import pbent.cli
from pbent.field import make_field
for p, m, modulus in json.loads(sys.argv[1]):
    make_field(p, m, modulus)
print(time.perf_counter() - t0)
"""


def setup_sample(fields) -> float:
    """Fresh interpreter: import the CLI and build the workload's fields."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, json.dumps(fields)],
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        timeout=CALL_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return float(proc.stdout)


# ---- calibration ----------------------------------------------------------------------

# The machine the benchmark runs on is shared, and its speed drifts by a
# quarter or more within an hour.  Each run therefore also times a fixed
# piece of work of the CLI's own kind, in this process and between the ops,
# and scales its times to a machine on which that work takes CAL_REF_S.
CAL_TABLE = np.random.default_rng(0).integers(0, 3, size=(2, 3**11), dtype=np.int64)
CAL_REF_S = 0.3  # about the mean calibrate() on the 2-core machine the benchmark was sized on


def calibrate() -> float:
    """Seconds for digit-wise NumPy rolls over a 3^11-point table, then a
    per-row dict lookup: the two kinds of work in a classify."""
    start = time.perf_counter()
    acc = CAL_TABLE.copy()
    for k in range(11):
        for shift in (1, 2):
            acc += np.roll(CAL_TABLE, shift * 3**k, axis=-1)
        acc %= 5
    rows = np.ascontiguousarray(acc.T)
    index = {r.tobytes(): i for i, r in enumerate(np.unique(rows, axis=0))}
    total = 0
    for row in rows:
        total += index[row.tobytes()]
    return time.perf_counter() - start


# ---- workloads ------------------------------------------------------------------------


@dataclass
class Op:
    """The CLI calls of one op, and a check of each call's output."""

    calls: list[list[str]]
    check: Callable[[int, bytes, bool], str | None]  # (call, output, stable) -> error
    outputs: list[Path | None]  # --out file of each call, None for stdout


class ClassifyVec3:
    """`pbent classify --tt` on 3^12-point tables over F_3^12.

    Op 0 classifies a uniformly random table (not bent); every later op a
    fresh Maiorana-McFarland bent table.
    """

    name = "classify-vec3"
    fields: list = []
    samples_per_op = 2
    untimed_ops = 1  # the random table's share of the mean would depend on the op count

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def op(self, i: int) -> Op:
        bent = i > 0
        table = inputs.mm_bent_table(self.rng) if bent else inputs.random_table(self.rng)
        path = WORK / "table.tt"
        path.write_bytes(inputs.render_tt(table, inputs.VEC3_P, 2 * inputs.VEC3_HALF))

        def check(_call, out: bytes, _stable) -> str | None:
            rep = json.loads(out)
            if bent:
                want = {"bent": True, "regularity": "regular", "dual_bent": True}
                hist = {str(3**12): 3**12}
                got = {k: rep.get(k) for k in want}
                got_hist = rep.get("spectrum_histogram")
                if got != want or got_hist != hist:
                    return f"MM table gave {got}, histogram {str(got_hist)[:80]}"
            elif rep.get("bent") is not False or rep.get("regularity") != "not_bent":
                return "random table not reported as not_bent"
            return None

        return Op([["classify", "--tt", str(path)]], check, [None])


class DualField5:
    """`pbent dual --expr "Tr(a x^2) + Tr(c x)"` over F_{5^8}, seeded a != 0 and c."""

    name = "dual-field5"
    fields = [[inputs.FIELD5_P, 8, list(inputs.FIELD5_MODULUS)]]
    samples_per_op = 2
    untimed_ops = 0

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.oracle = inputs.DualOracle()

    def op(self, i: int) -> Op:
        a, c = self.oracle.draw(self.rng)
        path = WORK / "dual.tt"
        modulus = ",".join(map(str, inputs.FIELD5_MODULUS))
        args = ["dual", "--p", "5", "--m", "8", "--modulus", modulus,
                "--expr", self.oracle.expr(a, c), "--out", str(path)]

        def check(_call, out: bytes, _stable) -> str | None:
            if out != self.oracle.expected(a, c):
                return f"dual of {self.oracle.expr(a, c)} differs from the closed form"
            return None

        return Op([args], check, [path])


class SearchNdcor:
    """`pbent search --stable --width 2`: all pairs of F_81, then the first
    1,200 pairs of F_125.  The pair sets are fixed, so the seed changes nothing."""

    name = "search-ndcor"
    fields = [[3, 4, None], [5, 3, None]]
    samples_per_op = 10
    untimed_ops = 0
    pairs_per_op = sum(s[1]["pairs_scanned"] for s in SEARCH_SCANS)

    def __init__(self, seed: int) -> None:
        self.busy_s: list[float] = []  # summed runtime_ms of each unstable call

    def op(self, i: int) -> Op:
        path = WORK / "search.jsonl"
        calls = [["search", *scan[0], "--width", str(SEARCH_WIDTH), "--stable",
                  "--out", str(path)] for scan in SEARCH_SCANS]

        def check(call: int, out: bytes, stable: bool) -> str | None:
            _, summary, digest = SEARCH_SCANS[call]
            if not stable:
                out = self._strip_runtimes(out)
            lines = out.decode().splitlines()
            got = json.loads(lines[-1]).get("summary", {})
            got = {k: got.get(k) for k in summary}
            if got != summary:
                return f"search {call} summary {got} != {summary}"
            if hashlib.sha256(out).hexdigest() != digest:
                return f"search {call} output differs from the pinned --stable output"
            return None

        return Op(calls, check, [path, path])

    def _strip_runtimes(self, out: bytes) -> bytes:
        lines, busy = [], 0.0
        for line in out.decode().splitlines():
            rec = json.loads(line)
            busy += rec.pop("runtime_ms", 0.0) / 1000.0
            lines.append(json.dumps(rec, sort_keys=True))
        self.busy_s.append(busy)
        return ("\n".join(lines) + "\n").encode()


WORKLOADS = {w.name: w for w in (ClassifyVec3, DualField5, SearchNdcor)}


# ---- ops ------------------------------------------------------------------------------


@dataclass
class OpResult:
    wall_s: float = 0.0
    calls: int = 0
    maxrss_kb: int = 0
    error: str | None = None
    spans: list = field(default_factory=list)
    missing: set = field(default_factory=set)  # entry points the tracer could not wrap


def run_op(op: Op, traced: bool) -> OpResult:
    res = OpResult()
    spans_path = WORK / "spans.json"
    for k, args in enumerate(op.calls):
        if traced:
            args = [a for a in args if a != "--stable"]
            spans_path.unlink(missing_ok=True)
        ran = run_pbent(args, spans_path if traced else None)
        res.wall_s += ran.wall_s
        res.calls += 1
        res.maxrss_kb = max(res.maxrss_kb, ran.maxrss_kb)
        error = _call_error(op, k, ran, traced)
        if traced and error is None:
            try:
                trace = json.loads(spans_path.read_text())
                res.spans.extend(trace["spans"])
                res.missing.update(trace["missing"])
            except (OSError, ValueError, KeyError) as exc:
                error = f"call {k} left no readable spans: {exc}"
        res.error = res.error or error
    return res


def _call_error(op: Op, k: int, ran: Ran, traced: bool) -> str | None:
    if ran.code != 0 or b"Traceback" in ran.stderr:
        return f"call {k} exited {ran.code}: {ran.stderr.decode(errors='replace')[-300:]}"
    out_path = op.outputs[k]
    try:
        out = out_path.read_bytes() if out_path else ran.stdout
        return op.check(k, out, not traced)
    except (OSError, ValueError) as exc:  # missing file, bad JSON or text
        return f"call {k} output unreadable: {exc}"


def measure(workload, seconds: float, traced: bool, before_op=None):
    """Ops for about `seconds`; with tracing, each op runs untraced and then
    traced.  `before_op` runs ahead of each op.  A new op starts only if it
    is likely to end within half an op of `seconds`, so runs keep their
    length however long an op takes.  Returns (untraced results, traced
    results)."""
    plain, traced_res = [], []
    start = time.perf_counter()
    while True:
        if before_op:
            before_op()
        op = workload.op(len(plain))
        plain.append(run_op(op, traced=False))
        if traced:
            traced_res.append(run_op(op, traced=True))
        spent = time.perf_counter() - start
        if spent + 0.5 * spent / len(plain) > seconds:
            return plain, traced_res


# ---- metrics --------------------------------------------------------------------------


def tail_percentile(walls: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, once it reaches p50."""
    n = len(walls)
    pct = (100 * (n - 10)) // n if n > 10 else 0
    if pct < 50:
        return None
    return {"pct": pct, "s": sorted(walls)[n - 11]}


def end_to_end(workload, seconds: float) -> tuple[dict, dict, list[OpResult]]:
    """Times are scaled by CAL_REF_S / mean calibration (see calibrate).
    Calibration and set-up samples run ahead of every op, so that they
    spread over the run like the ops do."""
    setup: list[float] = []
    cal: list[float] = []

    def sample() -> None:
        for _ in range(workload.samples_per_op):
            cal.append(calibrate())
            setup.append(setup_sample(workload.fields))

    ops, _ = measure(workload, seconds, traced=False, before_op=sample)
    while len(setup) < MIN_SETUP_SAMPLES:
        sample()
    # means, not medians: the machine flips between a fast and a slow state
    # within seconds, and a mean follows the share of time spent in each
    scale = CAL_REF_S / mean(cal)
    walls = [r.wall_s for r in ops]
    timed = walls[workload.untimed_ops:] or walls
    metrics = {
        "op_s.mean": {"value": mean(timed) * scale, "unit": "s"},
        "setup_s": {"value": mean(setup) * scale, "unit": "s"},
        "peak_rss_mb": {"value": max(r.maxrss_kb for r in ops) / 1024.0, "unit": "MiB"},
    }
    detail = {
        "scale": scale,
        "raw_op_s.mean": mean(timed),
        "raw_setup_s": mean(setup),
        "raw_op_s.p50": median(timed),
        "op_tail": tail_percentile(timed),
        "op_walls_s": walls,
        "setup_samples_s": setup,
        "calibration_s": cal,
    }
    if isinstance(workload, SearchNdcor):
        detail["pairs_per_s"] = workload.pairs_per_op * len(ops) / sum(walls)
    return metrics, detail, ops


LAYER_GROUPS = {
    "cli.input_s": ("pfunc.load_tt", "field.make_field", "pfunc.from_expr",
                    "constructions.independent_pairs"),
    "cli.output_s": ("bent.to_json", "walsh.histogram", "cli.json_text",
                     "pfunc.dump_tt", "cli.emit"),
}
LAYER_SPANS = {
    "cli.import_s": "cli.import",
    "pfunc.walsh_perm_s": "pfunc.walsh_perm",
    "walsh.transform_s": "walsh.transform",
    "walsh.abs_sq_s": "walsh.abs_sq",
    "bent.is_bent_s": "bent.is_bent",
    "bent.extract_dual_s": "bent.extract_dual",
    "bent.dual_transform_s": "bent.dual_transform",
}


COUNTS = {
    "pfunc.walsh_perm_identity": ("walsh_perm_identity", "count"),
    "walsh.transforms": ("transforms", "count"),
    "walsh.stage_elem_ops": ("stage_elem_ops", "count"),
    "walsh.stage_bytes": ("stage_bytes", "B"),
}


def per_layer(workload, seconds: float) -> tuple[dict, dict, list[OpResult]]:
    """Layer metrics are medians over the traced ops, so that the share of
    classify-vec3's one random table does not depend on how many ops fit."""
    plain, traced = measure(workload, seconds, traced=True)
    sums = [tracing.summarize(r.spans) for r in traced]

    def self_s(s, names) -> float:
        return sum(s["self_s"].get(n, 0.0) for n in names)

    metrics: dict = {}
    for name, span in LAYER_SPANS.items():
        metrics[name] = (median(self_s(s, [span]) for s in sums), "s")
    for name, spans in LAYER_GROUPS.items():
        metrics[name] = (median(self_s(s, spans) for s in sums), "s")
    for name, (key, unit) in COUNTS.items():
        metrics[name] = (median(s[key] for s in sums), unit)
    calls = [c for s in sums for c in s["classify_calls"]]
    metrics["bent.classify_s"] = (median([c[0] for c in calls] or [0.0]), "s")
    total = sum(c[0] for c in calls)
    metrics["bent.coverage"] = (sum(c[1] for c in calls) / total if total else 0.0, "ratio")
    traced_op = median(r.wall_s for r in traced)
    untraced_op = median(r.wall_s for r in plain)
    metrics["trace.overhead_s"] = (traced_op - untraced_op, "s")

    detail = {
        "self_s_by_op": [{n: round(v, 6) for n, v in sorted(s["self_s"].items())} for s in sums],
        "walsh_perm_computed_by_op": [s["walsh_perm_computed"] for s in sums],
        "classify_calls_by_op": [len(s["classify_calls"]) for s in sums],
        "traced_op_s": [r.wall_s for r in traced],
        "unwrapped_entry_points": sorted(set().union(*(r.missing for r in traced))),
        "untraced_op_s": [r.wall_s for r in plain],
    }
    if isinstance(workload, SearchNdcor):
        busy = sum(workload.busy_s)
        detail["cli.worker_busy_s"] = busy / len(traced)
        detail["cli.worker_util"] = busy / (sum(r.wall_s for r in traced) * SEARCH_WIDTH)
        # F_81 scan: pairs with {1, alpha, beta} independent, out of q^2
        detail["constructions.pair_yield"] = SEARCH_SCANS[0][1]["pairs_scanned"] / 81**2
    trace_path = WORK / f"trace-{workload.name}.json"
    trace_path.write_text(json.dumps([r.spans for r in traced]))
    detail["trace_file"] = str(trace_path)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail, plain + traced


# ---- provenance -----------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_rev() -> str | None:
    """HEAD of the git checkout, or None outside one."""
    if not Path(".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    os.chdir(ROOT)
    if not Path("src/pbent/cli.py").is_file():
        sys.stderr.write("error: src/pbent not found; run from a full checkout\n")
        return 2
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    measure_fn = per_layer if args.trace else end_to_end
    metrics, detail, ops = measure_fn(workload, args.seconds)

    failures = [r.error for r in ops if r.error]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "search_width": SEARCH_WIDTH if isinstance(workload, SearchNdcor) else None,
        "ops": len(ops),
        "cli_calls": sum(r.calls for r in ops),
        "setup_samples": len(detail.get("setup_samples_s", ())),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"detail": detail, "failed_frac": len(failures) / len(ops),
                      "failures": failures[:5]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
