"""Pipeline benchmark for qasum: warm paper-scale eval, long-summary
scoring and cold HTTP rank.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a qasum checkout; the package is imported from its
``src`` directory. Each workload is set up three times in fresh processes
(interpreter start, ``import qasum``, corpus generation, ranking file,
cold cache priming and, for rank, the completion server); ``setup_s`` is
the median. The timed phase repeats the workload's run through
``run_eval`` or ``run_rank`` for ``--seconds`` in total, in three blocks
after the three set-ups, and reports the median rate. Each set-up time
and each repetition's rate is scaled to a reference CPU speed by the
probe in ``probe.py``, which samples how fast the host runs during that
set-up or repetition; the unscaled figures go to stderr.
An output gate checks every repetition: warm outputs byte-identical to the
cold priming outputs, HTTP ranking byte-identical to the in-process one,
digests equal to those in ``recorded.json`` for its seed, a warm cache hit
ratio of 1.0, and no failed item. On a mismatch it prints the reason and
``"correct": false`` with no metrics, and exits 1.

With ``--trace 1`` one more repetition runs under the outside-in tracer
(``tracer.py``) and the per-layer metrics replace the end-to-end ones.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. ``--workload all`` runs every workload in its own process and
prints one table.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

from probe import SpeedProbe
from workloads import (
    MANIFEST, POOL_FRACTION, RECORDED, ROOT, SOURCE_DATE_EPOCH, SRC_DIR, WORK_DIR, WORKLOADS,
)

SETUP_REPS = 3
PREPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "prepare.py")
SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")
CHILD_TIMEOUT_S = 150

LAYER_PREFIXES = ("corpus", "questions", "prompting", "lm", "metrics", "harness")


class GateFailure(Exception):
    """An output check failed; the run's numbers would not mean anything."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def environment() -> dict:
    # find_spec looks numba up without importing it into the measured process.
    has_numba = importlib.util.find_spec("numba") is not None
    head = os.path.join(ROOT, ".git", "HEAD")
    sha = "unknown (not a git checkout)"
    if os.path.exists(head):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False).stdout.strip() or sha
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numba": has_numba, "git_sha": sha}


def stop_process(proc) -> None:
    if proc is None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout:
        proc.stdout.close()


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Bench:
    def __init__(self, workload, seed: int):
        from synth import read_groups, split_counts

        self.workload = workload
        self.seed = seed
        self.work = os.path.join(WORK_DIR, f"{workload.name}-s{seed}-{os.getpid()}")
        self.server = None
        self.probe = SpeedProbe()
        # Raw walls, and for each the factor that scales it to the probe's
        # reference speed (probe.py): a rate is multiplied by it, a time
        # divided.
        self.walls: list[float] = []
        self.scales: list[float] = []
        self.setup_walls: list[float] = []
        self.setup_scales: list[float] = []
        self.attempted = 0
        self.failed = 0
        per_domain = split_counts(read_groups(MANIFEST, workload.corpus_scale), POOL_FRACTION)
        if workload.kind == "eval":
            cap = workload.eval_subsample
            n = sum(ev if cap is None else min(cap, ev) for _pool, ev in per_domain.values())
            self.items_per_rep = n * len(workload.k_values)
        else:
            cap = workload.rank_subsample
            n = sum(pool if cap is None else min(cap, pool) for pool, _ev in per_domain.values())
            self.items_per_rep = n * 10  # ten bank questions per instance

    # -- set-up ---------------------------------------------------------

    def set_up(self, rep: int) -> None:
        """One set-up in fresh processes, timed. The first one is what the
        timed phase runs on; later ones must write the same outputs."""
        root = os.path.join(self.work, f"setup{rep}")
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, PREPARE, "--workload", self.workload.name,
             "--seed", str(self.seed), "--dir", root],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        server = self.start_server() if self.workload.kind == "rank" else None
        self.setup_walls.append(time.perf_counter() - started)
        result = json.loads(done.stdout.splitlines()[-1])
        self.setup_scales.append(self.probe.scale(result["probe_hz"]))
        digests = result["digests"]
        if rep == 0:
            self.root, self.digests, self.server = root, digests, server
            self.check_recorded()
            return
        stop_process(server)
        shutil.rmtree(root)
        check(digests == self.digests, "two set-ups with the same seed wrote different outputs")

    def check_recorded(self) -> None:
        with open(RECORDED, encoding="utf-8") as fh:
            recorded = json.load(fh)
        if self.seed != recorded["seed"]:
            return
        expected = recorded["digests"][self.workload.name]
        for name, value in sorted(self.digests.items()):
            check(value == expected.get(name),
                  f"{name} digest {value} differs from the recorded {expected.get(name)}")

    def start_server(self) -> subprocess.Popen:
        server = subprocess.Popen([sys.executable, SERVER], stdout=subprocess.PIPE, text=True)
        line = server.stdout.readline()
        if not line.startswith("port "):
            stop_process(server)
            raise RuntimeError("completion server did not start")
        server.port = int(line.split()[1])
        return server

    def server_requests(self) -> int:
        url = f"http://127.0.0.1:{self.server.port}/stats"
        with urllib.request.urlopen(url, timeout=10) as resp:
            return json.load(resp)["requests"]

    def close(self) -> None:
        stop_process(self.server)
        shutil.rmtree(self.work, ignore_errors=True)

    # -- timed phase ----------------------------------------------------

    def load(self) -> None:
        from qasum import harness
        from synth import ScriptedSource

        self.harness = harness
        self.source = ScriptedSource()
        self.config_path = os.path.join(self.root, "config.json")
        if self.workload.kind == "eval":
            self.cfg = harness.config_from_file(self.config_path)
            prime = os.path.join(self.root, "prime")
            self.expected = {name: read_bytes(os.path.join(prime, name))
                             for name in self.digests if name != "ranking.json"}
        else:
            self.expected = {"ranking.json": read_bytes(os.path.join(self.root, "ranking.json"))}

    def repetition(self, label: str) -> tuple[float, float, int]:
        """Run the workload once; returns (wall seconds, probe speed during
        the run, output bytes). The probe must be started."""
        out = os.path.join(self.work, label)
        if self.workload.kind == "eval":
            self.probe.take()
            started = time.perf_counter()
            manifest = self.harness.run_eval(self.cfg, out, backend=self.source)
            wall = time.perf_counter() - started
            speed = self.probe.take()
            files = [os.path.join(out, name) for name in os.listdir(out)]
            self.check_eval(manifest, out)
        else:
            cfg = self.harness.config_from_file(
                self.config_path, endpoint=f"http://127.0.0.1:{self.server.port}/v1/completions",
                cache_dir=os.path.join(out, "cache"))
            os.makedirs(out)
            ranking = os.path.join(out, "ranking.json")
            self.probe.take()
            started = time.perf_counter()
            self.harness.run_rank(cfg, ranking)
            wall = time.perf_counter() - started
            speed = self.probe.take()
            files = [ranking]
            self.check_rank(ranking)
        output_bytes = sum(os.path.getsize(path) for path in files)
        shutil.rmtree(out)
        return wall, speed, output_bytes

    def check_eval(self, manifest, out: str) -> None:
        for name, data in self.expected.items():
            check(read_bytes(os.path.join(out, name)) == data,
                  f"warm {name} differs from the cold priming output")
        stats = manifest.cache
        check(stats.misses == 0 and stats.hits > 0,
              f"warm cache hit ratio is not 1.0 ({stats.hits} hits, {stats.misses} misses)")
        ok = sum(1 for row in manifest.rows if row.parse_status == "ok")
        self.count(ok)

    def check_rank(self, ranking: str) -> None:
        data = read_bytes(ranking)
        check(data == self.expected["ranking.json"],
              "HTTP ranking differs from the in-process ranking")
        doc = json.loads(data)
        self.count(sum(e["n"] for entries in doc["domains"].values() for e in entries))

    def count(self, completed: int) -> None:
        self.attempted += self.items_per_rep
        self.failed += self.items_per_rep - completed
        check(self.failed == 0, f"{self.failed} of {self.attempted} item(s) failed")

    def timed(self, seconds: float) -> float:
        """Repeat the workload for ``seconds`` (at least once); returns the
        time spent."""
        started = time.perf_counter()
        self.probe.start()
        try:
            while True:
                wall, speed, _ = self.repetition(f"rep{len(self.walls)}")
                self.walls.append(wall)
                self.scales.append(self.probe.scale(speed))
                if time.perf_counter() - started >= seconds:
                    return time.perf_counter() - started
        finally:
            self.probe.stop()

    def measure(self, seconds: float) -> None:
        """Set up SETUP_REPS times with the timed phase split into blocks
        between them, so one run samples the machine over its whole length
        rather than over one stretch of ``seconds``."""
        self.set_up(0)
        self.load()
        spent = 0.0
        for block in range(SETUP_REPS):
            spent += self.timed((seconds - spent) / (SETUP_REPS - block))
            if block + 1 < SETUP_REPS:
                self.set_up(block + 1)

    def traced(self) -> dict:
        from synth import ScriptedSource
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, backend_classes=(ScriptedSource,))
        before = self.server_requests() if self.server else 0
        self.probe.start()
        try:
            wall, speed, output_bytes = self.repetition("traced")
        finally:
            self.probe.stop()
            tracer.restore()
        untraced = statistics.median(w / s for w, s in zip(self.walls, self.scales))
        overhead = wall / self.probe.scale(speed) / untraced - 1
        served = self.server_requests() - before if self.server else None
        for name in tracer.missing:
            print(f"trace: {name} not found; its spans read 0", file=sys.stderr)
        tracer.write_spans(os.path.join(WORK_DIR, f"spans-{self.workload.name}.csv"))
        return layer_metrics(tracer, self.items_per_rep, wall, overhead, output_bytes, served)


def layer_metrics(tracer, items: int, wall: float, overhead: float,
                  output_bytes: int, served: int | None) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0))[0]

    def self_s(name):
        return totals.get(name, (0, 0))[1] / 1e9

    m: dict[str, tuple[float, str]] = {}
    for name in ("corpus.by_id", "corpus.sample_icl_examples", "lm.generate", "lm.cache.get",
                 "lm.cache.put", "lm.backend", "metrics.lcs", "metrics.tokenize", "prompting.build",
                 "questions.top_k"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("corpus.load_corpus", "corpus.split_corpus", "metrics.rouge_n",
                 "metrics.rouge_l", "metrics.overlap_precision", "metrics.aggregate",
                 "prompting.parse_output", "questions.rank_questions", "harness.run_eval",
                 "harness.run_rank", "harness.save_manifest", "harness.write_csv"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for prefix in LAYER_PREFIXES:
        m[f"{prefix}.self_s"] = (sum(ns for name, (_, ns) in totals.items()
                                     if name.startswith(prefix + ".")) / 1e9, "s")

    hits, misses = counts["lm.cache.hits"], counts["lm.cache.misses"]
    cells = counts["metrics.lcs.cells"]
    latencies = [ns / 1e6 for ns in tracer.durations_ns("lm.backend")]
    m["corpus.by_id.calls_per_item"] = (calls("corpus.by_id") / items, "1/item")
    m["lm.cache.hits"] = (hits, "count")
    m["lm.cache.misses"] = (misses, "count")
    m["lm.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["lm.cache.gets_per_item"] = (calls("lm.cache.get") / items, "1/item")
    m["lm.cache.bytes_written"] = (counts["lm.cache.bytes_written"], "B")
    m["lm.backend.latency_p50_ms"] = (percentile(latencies, 50), "ms")
    m["lm.backend.latency_p99_ms"] = (percentile(latencies, 99), "ms")
    m["lm.backend.retries"] = (served - calls("lm.backend") if served is not None else 0, "count")
    m["metrics.lcs.cells"] = (cells, "count")
    m["metrics.lcs.ns_per_cell"] = (self_s("metrics.lcs") * 1e9 / cells if cells else 0.0, "ns")
    m["metrics.tokenize.per_item"] = (calls("metrics.tokenize") / items, "1/item")
    for status in ("ok", "fallback", "failed"):
        m[f"prompting.parse.{status}"] = (counts[f"prompting.parse.{status}"], "count")
    m["harness.output_bytes"] = (output_bytes, "B")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    # Exit through the finally below, which stops the server, on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, SRC_DIR)
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    print(f"environment: {json.dumps(environment(), sort_keys=True)}", file=sys.stderr)
    bench = Bench(workload, args.seed)
    try:
        bench.measure(args.seconds)
        walls = bench.walls
        rate = statistics.median(bench.items_per_rep / w * s for w, s in zip(walls, bench.scales))
        setup = statistics.median(w / s for w, s in zip(bench.setup_walls, bench.setup_scales))
        print(f"set-up walls (s): {[round(t, 3) for t in bench.setup_walls]}, "
              f"scales {[round(s, 3) for s in bench.setup_scales]}; "
              f"repetition walls (s): {[round(w, 3) for w in walls]}, "
              f"scales {[round(s, 3) for s in bench.scales]}; "
              f"unscaled items_per_s {statistics.median(bench.items_per_rep / w for w in walls):.6g}",
              file=sys.stderr)
        if args.trace:
            metrics = bench.traced()
        else:
            metrics = {
                "items_per_s": (rate, "1/s"),
                "setup_s": (setup, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    except GateFailure as exc:
        print(f"output gate failed on {workload.name}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, bench.attempted),
                          "failed": bench.failed, "metrics": {}}))
        return 1
    finally:
        bench.close()

    error_rate = bench.failed / bench.attempted
    print(f"{workload.name}: {len(walls)} repetition(s) of {bench.items_per_rep} items, "
          f"{len(bench.setup_walls)} set-ups")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"  error_rate = {error_rate:.6g} ratio")
    print(json.dumps({
        "correct": True,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table, one JSON line."""
    results = {}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        if done.returncode != 0:
            status = 1
        for line in lines[:-1]:
            print(line)
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r.get("attempted", 0) for r in results.values()),
        "failed": sum(r.get("failed", 0) for r in results.values()),
        "metrics": {f"{wl}.{name}": metric for wl, r in results.items()
                    for name, metric in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (os.path.join(SRC_DIR, "qasum", "__init__.py"), MANIFEST)
               if not os.path.exists(p)]
    if missing:
        print(f"error: not a qasum checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
