"""Benchmark of the stackydeg pipeline: one workload, one seed, one process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wide-gluing --seed 0 --seconds 15 --trace 0

One process and one thread run the workload as a closed loop with a
single client: the next op starts when the previous one has finished.
Each op's result is checked exactly, outside the timed region, before
its time is recorded; an op that raises, exits nonzero or fails a check
counts as failed and posts no time.

``--trace 0`` reports the end-to-end metrics of a time-bounded run.
``--trace 1`` runs a fixed number of ops twice, untraced and then with
probes on the package's modules, and reports the per-layer metrics; the
two passes must give byte-identical outputs. ``--workload all`` runs
every workload in turn. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench-out"

DEFAULT_SEED = 0
MIN_OPS = 100            # so that p90 has at least ten samples beyond it
DEADLINE_S = 150         # a workload's run ends well within 180 s
SETUP_SPAWNS = 15
TRACE_OPS = {"wide-gluing": 36, "big-graph": 40, "cli-mix": 240}
SNF_SIZES = (1, 2, 3, 4, 5)
CANARY_NS = 1_000_000    # the canary's nominal time: op times are scaled to it


def load_package():
    """Import the package from this checkout's source tree, or exit."""
    init = SRC / "stackydeg" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; "
                         "run from the root of a stackydeg checkout")
    sys.path.insert(0, str(SRC))
    import stackydeg.cli

    if Path(stackydeg.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported stackydeg from {stackydeg.__file__}, "
                         f"not from {SRC}")
    return stackydeg


# ---------------------------------------------------------------------------
# Ops. ``call`` is the timed part; ``collect`` gathers its artifacts after.


class LibraryOps:
    """degeneration_input_from_json -> degenerate -> to_json_dict + dumps."""

    def __init__(self, pkg, corpus):
        self.engine = pkg.engine

    def call(self, item, index):
        engine = self.engine
        out = engine.degenerate(engine.degeneration_input_from_json(item["doc"]))
        return json.dumps(out.to_json_dict(), sort_keys=True)

    def collect(self, item, index, result) -> dict:
        return {"out": result.encode()}

    def close(self):
        pass


class CliOps:
    """One in-process ``cli.main`` call per op; files live in a temporary
    directory inside the checkout."""

    def __init__(self, pkg, corpus):
        self.cli = pkg.cli
        self.dir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
        self.outputs = {k: self.dir / f"result.{k}" for k in ("out", "dot", "log")}
        for ix, item in enumerate(corpus):
            (self.dir / f"in-{ix}.json").write_text(json.dumps(item["doc"]))

    def call(self, item, index):
        path = str(self.dir / f"in-{index}.json")
        if item["kind"] == "snf":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(["snf", path])
            return code, buf.getvalue()
        for p in self.outputs.values():
            p.unlink(missing_ok=True)
        o = self.outputs
        code = self.cli.main(["degen", path, "--out", str(o["out"]),
                              "--dot", str(o["dot"]), "--log", str(o["log"])])
        return code, None

    def collect(self, item, index, result) -> dict:
        code, stdout = result
        arts = {"exit": str(code).encode()}
        if item["kind"] == "snf":
            arts["stdout"] = stdout.encode()
        else:
            for name, p in self.outputs.items():
                arts[name] = p.read_bytes() if p.exists() else b""
        return arts

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def make_ops(pkg, workload, corpus):
    return (CliOps if workload == "cli-mix" else LibraryOps)(pkg, corpus)


def digest(arts: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arts):
        h.update(name.encode() + b"\0" + arts[name] + b"\0")
    return h.hexdigest()[:16]


def corpus_digest(corpus) -> str:
    # item by item, so that the drift gate adds nothing to peak_rss_mb
    h = hashlib.sha256()
    for item in corpus:
        h.update(json.dumps(item, sort_keys=True).encode())
    return h.hexdigest()


def check(checks, item, arts: dict) -> tuple:
    """(problems, facts) for one op's artifacts; facts are output counts."""
    if arts.get("exit", b"0") != b"0":
        return [f"exit code {arts['exit'].decode()}"], Counter()
    if item["kind"] == "snf":
        return checks.check_snf(item, json.loads(arts["stdout"])), Counter()
    out = json.loads(arts["out"])
    problems = checks.check_degen(item, out)
    if "log" in arts and json.loads(arts["log"]) != out["log"]:
        problems.append("--log file differs from the log in --out")
    log_types = Counter(r["type"] for r in out["log"])
    facts = Counter({
        "persistent_nodes": log_types["snf"],
        "normalize_records": log_types["normalize"],
        "contractions": log_types["contract"],
        "inserted_components": sum(len(r["inserted"]) for r in out["log"]
                                   if r["type"] == "insert"),
        "limit_components": len(out["limit_curve"]["components"]),
        "limit_nodes": len(out["limit_curve"]["nodes"]),
    })
    return problems, facts


# ---------------------------------------------------------------------------
# The measuring loop.

_CANARY_TERMS = [Fraction(i + 1, i + 2) for i in range(20)]


def canary_ns() -> int:
    """Best of three timings of a fixed piece of Fraction arithmetic, with
    the collector off; the best of three leaves out cold caches."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(3):
            t0 = time.perf_counter_ns()
            acc = Fraction(0)
            for x in _CANARY_TERMS:
                for y in _CANARY_TERMS:
                    acc += x * y
            elapsed = time.perf_counter_ns() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best
    finally:
        if enabled:
            gc.enable()


class Pass:
    """What one pass over the corpus measured.

    ``canary_ns[i]`` was timed right before op i and ``canary_ns[i + 1]``
    right after it. Other tenants of the host slow every process down in
    episodes of seconds to minutes, and the canaries next to an op measure
    by how much (README.md).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.raw_ns: list = []
        self.completed: list = []
        self.canary_ns: list = []
        self.facts: Counter = Counter()

    def scaled_ns(self) -> list:
        """Each op's time scaled to a host on which the canary takes
        CANARY_NS, by the median of the three canaries on each side."""
        c = self.canary_ns
        return [t * CANARY_NS / statistics.median(c[max(0, i - 2):i + 4])
                for i, t in enumerate(self.raw_ns)]

    def summary(self, scaled: bool) -> dict:
        times = self.scaled_ns() if scaled else self.raw_ns
        done = [t / 1e6 for t, ok in zip(times, self.completed) if ok]
        return {
            "ops_per_s": (len(done) / (sum(times) / 1e9), "1/s"),
            "op_ms_p50": (statistics.median(done), "ms"),
            "op_ms_p90": (statistics.quantiles(done, n=10)[8], "ms"),
        }


def run_pass(ops, checks, corpus, *, count=None, seconds=None, tracer=None,
             expected=None, seen=None, deadline=float("inf")) -> Pass:
    """Run ops in corpus order (wrapping), ``count`` of them, or else
    until about ``seconds`` of scaled op time and MIN_OPS completed ops
    have passed. Stopping on scaled time makes a busy host cover the same
    corpus items as a quiet one.

    ``expected`` holds recorded output digests per corpus index; ``seen``
    collects the digest of each index's first output, which every later
    output of that index must equal. No op starts after ``deadline``
    (a ``time.perf_counter`` value).
    """
    res = Pass()
    res.canary_ns.append(canary_ns())
    busy_ns = 0.0
    while True:
        if count is not None and res.attempted >= count:
            break
        if count is None and busy_ns >= seconds * 1e9 \
                and sum(res.completed) >= MIN_OPS:
            break
        if time.perf_counter() >= deadline:
            print(f"perfbench: stopped at the deadline after {res.attempted} ops",
                  file=sys.stderr)
            break
        index = res.attempted % len(corpus)
        item = corpus[index]
        error = None
        if tracer is not None:
            tracer.op_id = res.attempted
            tracer.active = True
        t0 = time.perf_counter_ns()
        try:
            result = ops.call(item, index)
        except Exception:  # an op that raises is a failed op; keep measuring
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.active = False
        res.canary_ns.append(canary_ns())
        busy_ns += (t1 - t0) * CANARY_NS * 2 / sum(res.canary_ns[-2:])
        res.attempted += 1
        res.raw_ns.append(t1 - t0)
        if error is None:
            arts = ops.collect(item, index, result)
            try:
                problems, facts = check(checks, item, arts)
            except Exception:  # malformed output is a failed check
                problems, facts = [traceback.format_exc(limit=3)], Counter()
            got = digest(arts)
            want = expected[index] if expected else seen.setdefault(index, got)
            if got != want:
                problems.append(f"output digest {got} != {want}")
        else:
            problems, facts = [error], Counter()
        res.completed.append(not problems)
        if problems:
            res.failed += 1
            if res.failed <= 5:
                print(f"perfbench: op {res.attempted - 1} (corpus item {index}) "
                      f"failed: {'; '.join(problems)}", file=sys.stderr)
            continue
        res.facts += facts
    return res


# ---------------------------------------------------------------------------
# Metrics.


def setup_seconds() -> float:
    """Median wall time from spawning an interpreter until
    ``import stackydeg.cli`` returns, over SETUP_SPAWNS fresh processes."""
    code = ("import time, stackydeg.cli; "
            "print(time.monotonic_ns(), stackydeg.cli.__file__)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for ix in range(SETUP_SPAWNS + 1):  # the first spawn is a warm-up
        start = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        done, path = proc.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != (SRC / "stackydeg").resolve():
            raise SystemExit(f"perfbench: set-up child imported {path.strip()}")
        if ix:
            times.append((int(done) - start) / 1e9)
    return statistics.median(times)


def end_to_end_metrics(res: Pass, setup_s: float) -> dict:
    return {
        **res.summary(scaled=True),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(tracer, traced: Pass, plain: Pass) -> dict:
    calls, total, own = tracer.span_totals()
    counts, facts = tracer.counts, traced.facts

    def ms(name):
        return total[name] / 1e6

    snf_calls = sum(n for name, n in calls.items() if name.startswith("dvrlinalg.snf"))
    nodes = facts["persistent_nodes"]
    out = {
        "field.ratfunc_new": (counts["field.ratfunc_new"], "count"),
        "field.add_calls": (counts["field.add_calls"], "count"),
        "field.mul_calls": (counts["field.mul_calls"], "count"),
        "field.inv_calls": (counts["field.inv_calls"], "count"),
        "field.max_poly_degree": (tracer.max_poly_degree, "degree"),
        "field.max_coeff_bits": (tracer.max_coeff_bits, "bit"),
        "field.parse_calls": (calls["field.parse"], "count"),
        "field.parse_ms": (ms("field.parse"), "ms"),
        "curve.from_json_ms": (ms("curve.from_json"), "ms"),
        "engine.parse_ms": (ms("engine.parse"), "ms"),
        "dvrlinalg.snf_calls": (snf_calls, "count"),
    }
    for k in SNF_SIZES:
        out[f"dvrlinalg.snf_ms.n{k}"] = (ms(f"dvrlinalg.snf.n{k}"), "ms")
    out.update({
        "dvrlinalg.snf_cli_ms": (ms("dvrlinalg.snf_cli"), "ms"),
        "dvrlinalg.det_calls": (calls["dvrlinalg.det"], "count"),
        "dvrlinalg.det_ms": (ms("dvrlinalg.det"), "ms"),
        "dvrlinalg.inverse_calls": (calls["dvrlinalg.inverse"], "count"),
        "dvrlinalg.inverse_ms": (ms("dvrlinalg.inverse"), "ms"),
        "dvrlinalg.det_calls_per_node": (
            calls["dvrlinalg.det"] / nodes if nodes else 0.0, "ratio"),
        "engine.validate_input_ms": (ms("engine.validate_input"), "ms"),
        "engine.insert_ms": (ms("engine.insert"), "ms"),
        "engine.inserted_components": (facts["inserted_components"], "count"),
        "engine.contract_ms": (ms("engine.contract"), "ms"),
        "engine.contractions": (facts["contractions"], "count"),
        "engine.normalize_records": (facts["normalize_records"], "count"),
        "engine.persistent_nodes": (nodes, "count"),
        "engine.degenerate_ms": (ms("engine.degenerate"), "ms"),
        "engine.degenerate_self_ms": (own["engine.degenerate"] / 1e6, "ms"),
        "engine.to_json_ms": (ms("engine.to_json"), "ms"),
        "curve.validate_ms": (ms("curve.validate"), "ms"),
        "curve.validate_calls": (calls["curve.validate"], "count"),
        "curve.limit_components": (facts["limit_components"], "count"),
        "curve.limit_nodes": (facts["limit_nodes"], "count"),
        "curve.to_dot_ms": (ms("curve.to_dot"), "ms"),
        "cli.dumps_ms": (ms("cli.dumps"), "ms"),
        "cli.main_self_ms": (own["cli.main"] / 1e6, "ms"),
        "trace.overhead_ratio": (sum(traced.scaled_ns()) / sum(plain.scaled_ns()),
                                 "ratio"),
    })
    return out


# ---------------------------------------------------------------------------
# Reporting.


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(pkg, workload: str, seed: int, seconds: float, trace: bool,
                 ops_count: int | None) -> tuple:
    """Run one workload; returns (attempted, failed, metrics, info)."""
    import checks
    import workloads
    from tracer import Tracer

    deadline = time.perf_counter() + DEADLINE_S
    corpus = workloads.make_corpus(workload, seed)
    expected = None
    if seed == DEFAULT_SEED:
        record = json.loads(DIGESTS.read_text())[workload]
        if record["corpus"] != corpus_digest(corpus):
            raise SystemExit(f"perfbench: the {workload} corpus for seed "
                             f"{seed} differs from the one recorded in "
                             f"{DIGESTS.name}; the generators have drifted")
        expected = record["outputs"]
    ops = make_ops(pkg, workload, corpus)
    seen: dict = {}
    try:
        run_pass(ops, checks, corpus[:1], count=1, expected=expected, seen=seen)
        if not trace:
            setup_s = setup_seconds()
            res = run_pass(ops, checks, corpus, count=ops_count, seconds=seconds,
                           expected=expected, seen=seen, deadline=deadline)
            if sum(res.completed) < 2:
                raise SystemExit("perfbench: fewer than two ops completed")
            metrics = end_to_end_metrics(res, setup_s)
            raw = res.summary(scaled=False)
        else:
            n = ops_count or TRACE_OPS[workload]
            plain = run_pass(ops, checks, corpus, count=n, expected=expected,
                             seen=seen, deadline=deadline)
            tracer = Tracer()
            tracer.install()
            try:
                res = run_pass(ops, checks, corpus, count=n, tracer=tracer,
                               expected=expected, seen=seen, deadline=deadline)
            finally:
                tracer.uninstall()
            metrics = per_layer_metrics(tracer, res, plain)
            res.attempted += plain.attempted
            res.failed += plain.failed
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.json")
    finally:
        ops.close()
    info = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "ops": res.attempted, "latency_samples": sum(res.completed),
        "corpus_items": len(corpus), "fail_ratio": res.failed / res.attempted,
        "canary_ms": [min(res.canary_ns) / 1e6, statistics.median(res.canary_ns) / 1e6,
                      max(res.canary_ns) / 1e6],
        "python": platform.python_version(), "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
    }
    if not trace:
        info["unscaled"] = {k: v for k, (v, _) in raw.items()}
    return res.attempted, res.failed, metrics, info


def record_digests(pkg) -> None:
    """Write digests.json: each workload's default-seed corpus digest and
    the output digest of every corpus item, as the code now computes them."""
    import checks
    import workloads

    record = {}
    for workload in workloads.WORKLOADS:
        corpus = workloads.make_corpus(workload, DEFAULT_SEED)
        ops = make_ops(pkg, workload, corpus)
        seen: dict = {}
        try:
            res = run_pass(ops, checks, corpus, count=len(corpus), seen=seen)
        finally:
            ops.close()
        if res.failed:
            raise SystemExit(f"perfbench: {res.failed} {workload} ops failed; "
                             "nothing recorded")
        record[workload] = {"corpus": corpus_digest(corpus),
                            "outputs": [seen[i] for i in range(len(corpus))]}
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many measured ops")
    parser.add_argument("--record-digests", action="store_true",
                        help="record the default seed's digests and exit")
    args = parser.parse_args(argv)
    pkg = load_package()
    if args.record_digests:
        record_digests(pkg)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        a, f, m, info = run_workload(pkg, name, args.seed, args.seconds,
                                     bool(args.trace), args.ops)
        attempted, failed = attempted + a, failed + f
        print(f"# {name}: {a} ops, {info['latency_samples']} latency samples")
        for key, (value, unit) in [*m.items(), ("fail_ratio", (info["fail_ratio"], "ratio"))]:
            print(f"  {key:32} {value:>14.6g} {unit}")
        print(json.dumps({"perfbench": info}))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
