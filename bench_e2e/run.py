#!/usr/bin/env python3
"""End-to-end benchmark of the cats campaign CLIs, with a per-layer ledger.

Run from the repository root:

    python3 bench_e2e/run.py --workload corpus6i-json --seed 1 --seconds 15 --trace 0
    python3 bench_e2e/run.py --all            # every workload, untraced and traced
    python3 bench_e2e/run.py --make-golden    # regenerate bench_e2e/golden/

The benchmark builds the library, the CLIs it drives (cats_diy, cats_sweep,
cats_merge) and its own traced replay tool (e2e_ledger) from source into
.bench_build/, and works in .bench_work/<workload>/.

--trace 0 times the real CLI pipelines, one campaign at a time (a closed
loop from one client): an untimed reference campaign, then campaigns at 1
and 4 workers in turn until --seconds have passed (at least two of each),
and reports the end-to-end metrics. --trace 1 runs e2e_ledger
instead: the same pipeline replayed in one process with a span around every
layer call, plus the sweep engine at 1/2/4 workers, and reports the
per-layer metrics. Every output is checked against the committed
naive-backend verdict table (golden/), j1 and j4 outputs must be identical,
and the figure catalogue is checked against the paper's verdicts. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
bench_e2e/LEDGER.md documents the workloads, metrics and baseline.
"""

import argparse
import gzip
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SOURCE_DIR = os.path.dirname(BENCH_DIR)
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "cmake")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

WORKLOADS = ["diy7-power", "corpus6i-json", "corpus6i-warm"]
MODELS = ["SC", "TSO", "PSO", "RMO", "C++RA", "Power", "ARM", "Power-ARM", "ARM llh"]
DIY_TESTS = 8994
CORPUS_TESTS = 10417
SETUP_REPS = 3
MIN_REPS = 2
WORKERS = (1, 4)

END_TO_END = [
    ("wall_s_j1", "s"),
    ("wall_s_j4", "s"),
    ("peak_rss_mb", "MB"),
    ("report_mb", "MB"),
    ("setup_s", "s"),
]

PER_LAYER = [
    ("diy.enumerate_s", "s"),
    ("diy.synthesize_us_per_test", "us"),
    ("litmus.parse_us_per_test", "us"),
    ("litmus.compile_us_per_test", "us"),
    ("herd.judge_us_per_test_p50", "us"),
    ("herd.judge_us_per_test_p99", "us"),
    ("herd.sc_only_us_per_test", "us"),
    ("herd.us_per_candidate_model", "us"),
    ("herd.candidates_total", "count"),
    ("herd.candidates_judged", "count"),
    ("herd.prune_rate", "ratio"),
    ("sweep.run_s_j1", "s"),
    ("sweep.par_eff_j2", "ratio"),
    ("sweep.par_eff_j4", "ratio"),
    ("sweep.producer_s", "s"),
    ("sweep.worker_idle_frac_j4", "ratio"),
    ("sweep.result_free_s", "s"),
    ("sweep.rss_growth_mb", "MB"),
    ("report.serialize_us_per_test", "us"),
    ("report.parse_us_per_test", "us"),
    ("report.bytes_per_test", "bytes"),
    ("campaign.cache_key_us_per_test", "us"),
    ("campaign.cache_lookup_us_per_hit", "us"),
    ("campaign.cache_store_us_per_test", "us"),
    ("campaign.cache_hit_rate", "ratio"),
    ("campaign.merge_us_per_test", "us"),
    ("ledger.wall_accounted", "ratio"),
    ("ledger.trace_overhead", "ratio"),
    ("ledger.outside_main_s", "s"),
    ("ledger.diy_self_s", "s"),
    ("ledger.litmus_self_s", "s"),
    ("ledger.herd_self_s", "s"),
    ("ledger.sweep_self_s", "s"),
    ("ledger.report_self_s", "s"),
    ("ledger.campaign_self_s", "s"),
    ("ledger.cli_self_s", "s"),
]
LEDGER_LAYERS = ["diy", "litmus", "herd", "sweep", "report", "campaign", "cli"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- processes

def run_timed(argv, cwd, stdout_path, stderr_path=os.devnull):
    """Runs argv to completion; returns (wall seconds, max RSS in MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_checked(argv, cwd, what):
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed ({proc.returncode}): {proc.stderr.decode()[-2000:]}")
    return proc.stdout.decode()


def tool(name):
    sub = "" if name == "e2e_ledger" else "cats"
    return os.path.join(BUILD_DIR, sub, name)


def build():
    if not os.path.isfile(os.path.join(SOURCE_DIR, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(SOURCE_DIR, "src")):
        raise BenchError(f"no cats sources next to {BENCH_DIR}")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        os.makedirs(BUILD_DIR, exist_ok=True)
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], ROOT, "cmake configure")
    run_checked(["cmake", "--build", BUILD_DIR, "-j4", "--target",
                 "cats_diy", "cats_sweep", "cats_merge", "e2e_ledger"], ROOT, "cmake build")


# ------------------------------------------------------------------ golden

def golden_path(workload):
    return os.path.join(GOLDEN_DIR, ("diy7-power" if workload == "diy7-power" else "corpus6i") + ".tsv.gz")


def load_golden(workload):
    """name -> (verdict letters, candidates_total, candidates_consistent, allowed counts)."""
    table = {}
    with gzip.open(golden_path(workload), "rt") as f:
        for line in f:
            if line.startswith("#"):
                continue
            name, verdicts, total, consistent, allowed = line.rstrip("\n").split("\t")
            table[name] = (verdicts, int(total), int(consistent), [int(a) for a in allowed.split(",")])
    return table


def make_golden():
    build()
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    work = os.path.join(WORK_ROOT, "golden")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    export_corpus(work)
    files = os.path.join(work, "files.txt")
    with open(files, "w") as f:
        f.writelines(f"corpus/{n}\n" for n in sorted(os.listdir(os.path.join(work, "corpus"))))
    for workload, extra in (("diy7-power", []), ("corpus6i-json", ["--files", "files.txt"])):
        text = run_checked([tool("e2e_ledger"), "golden", "--workload", workload] + extra, work,
                           "golden " + workload)
        with open(golden_path(workload), "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
                gz.write(text.encode())
        log(f"wrote {golden_path(workload)} ({text.count(chr(10)) - 1} tests)")


# ------------------------------------------------------------------ checks

class Checker:
    """Counts tests attempted and failed across every output of a run."""

    def __init__(self, workload):
        self.golden = load_golden(workload)
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, n, why):
        self.failed += n
        self.notes.append(why)

    def catalogue(self, work):
        out = run_checked([tool("e2e_ledger"), "catalogue"], work, "catalogue check")
        result = json.loads(out.strip().splitlines()[-1])
        self.attempted += int(result["attempted"])
        if result["failed"]:
            self.fail(int(result["failed"]), "catalogue: " + result["mismatches"])

    def listing(self, path):
        """A cats_diy listing: one row per cycle, verdict columns in MODELS order."""
        self.attempted += len(self.golden)
        with open(path) as f:
            lines = f.read().splitlines()
        seen = set()
        bad = 0
        for line in lines[1:1 + len(self.golden)]:
            cols = line.split()
            name, verdicts = cols[0], "".join(v[0] for v in cols[3:])
            seen.add(name)
            if name not in self.golden or self.golden[name][0] != verdicts:
                bad += 1
        bad += len(self.golden) - len(seen & set(self.golden))
        if bad:
            self.fail(min(bad, len(self.golden)), f"{path}: {bad} verdict rows disagree with golden")

    def report(self, path):
        """A merged cats-sweep-report/1: verdicts and candidate counts per test."""
        self.attempted += len(self.golden)
        with open(path) as f:
            doc = json.load(f)
        seen = set()
        bad = 0
        for t in doc["tests"]:
            seen.add(t["name"])
            want = self.golden.get(t["name"])
            got = ("".join(m["verdict"][0] for m in t["models"]), t["candidates_total"],
                   t["candidates_consistent"], [m["candidates_allowed"] for m in t["models"]])
            if want is None or tuple(want) != got or [m["model"] for m in t["models"]] != MODELS:
                bad += 1
        bad += len(self.golden) - len(seen & set(self.golden))
        if bad:
            self.fail(min(bad, len(self.golden)), f"{path}: {bad} tests disagree with golden")

    def same(self, ok, digest, reference, what):
        """Determinism: a campaign must exit 0 and its output must equal the
        reference output (None when the reference campaign failed)."""
        self.attempted += len(self.golden)
        if not ok:
            self.fail(len(self.golden), what + ": nonzero exit")
        elif reference is None or digest != reference:
            self.fail(len(self.golden), what + " differs from the reference output")


def listing_digest(path):
    """Digest of a diy listing without its timing line ("swept ..., 1.234s")."""
    with open(path, "rb") as f:
        lines = [l for l in f.read().splitlines() if not l.startswith(b"swept ")]
    return hashlib.sha256(b"\n".join(lines)).hexdigest()


def report_digest(path):
    """Digest of a merged report without the fields that legitimately differ:
    the top-level "jobs" (worker count) and the "cache" stanza (hit counts)."""
    with open(path, "rb") as f:
        text = f.read()
    head, sep, tail = text.partition(b'\n  "tests": [')
    kept, skipping = [], False
    for line in head.split(b"\n"):
        if line.startswith(b'  "cache": {'):
            skipping = True
        if not skipping and not line.startswith(b'  "jobs": '):
            kept.append(line)
        if skipping and line.startswith(b"  }"):
            skipping = False
    h = hashlib.sha256(b"\n".join(kept))
    h.update(sep)
    h.update(tail)
    return h.hexdigest()


# ----------------------------------------------------------------- set-up

def export_corpus(work, corpus="corpus"):
    run_checked([tool("cats_diy"), "--arch", "power", "--size", "6", "--internal",
                 "--export", corpus, "--quiet"], work, "corpus export")
    names = os.listdir(os.path.join(work, corpus))
    if len(names) != CORPUS_TESTS:
        raise BenchError(f"exported {len(names)} tests, expected {CORPUS_TESTS}")
    return names


def set_up(workload, work, seed, rep):
    """Set-up pass number `rep`; returns (file list, cache directory).
    diy7-power: enumerate and synthesize the corpus (cats_diy --synthesize),
    which checks every cycle synthesizes. corpus6i-json: export the size-6
    --internal corpus into a fresh directory. corpus6i-warm: fill a fresh
    cache directory with a cold cats_sweep --cache pass over the corpus
    exported before set-up. Every pass does the same work: it creates its
    files, never rewrites an earlier pass's. The corpus workloads list the
    files in seed-permuted order."""
    if workload == "diy7-power":
        out = run_checked([tool("cats_diy"), "--arch", "power", "--size", "7",
                           "--synthesize", "--quiet"], work, "diy synthesis")
        if f"{DIY_TESTS} canonical cycle(s)" not in out or "error" in out:
            raise BenchError("diy synthesis: " + out.strip())
        return [], None
    corpus = f"corpus.{rep}" if workload == "corpus6i-json" else "corpus"
    names = export_corpus(work, corpus) if workload == "corpus6i-json" else \
        os.listdir(os.path.join(work, corpus))
    files = [f"{corpus}/{n}" for n in sorted(names)]
    random.Random(seed).shuffle(files)
    with open(os.path.join(work, "files.txt"), "w") as f:
        f.writelines(p + "\n" for p in files)
    if workload == "corpus6i-json":
        return files, None
    cache = f"cache.{rep}"
    out = run_checked([tool("cats_sweep"), "--jobs", "4", "--cache", cache] + files,
                      work, "cold cache pass")
    if f"0 hit(s), {CORPUS_TESTS} miss(es)" not in out:
        raise BenchError("cold cache pass: " + out.strip()[-500:])
    return files, cache


# ---------------------------------------------------------------- pipelines

def cli_pipeline(workload, work, files, cache, jobs, tag):
    """One campaign through the real CLIs. Returns wall, peak RSS, report
    bytes, the output to check, and whether every process exited 0. Every
    campaign writes new files, and dirty pages are flushed after it (untimed),
    so one campaign's write-back does not land in the next one's wall."""
    err = os.path.join(work, "stderr.txt")
    if workload == "diy7-power":
        listing = os.path.join(work, f"listing_{tag}.txt")
        wall, rss, code = run_timed([tool("cats_diy"), "--arch", "power", "--size", "7",
                                     "--sweep", "--jobs", str(jobs)], work, listing, err)
        os.sync()
        return wall, rss, os.path.getsize(listing), listing, code == 0
    argv = [tool("cats_sweep"), "--jobs", str(jobs)]
    if cache:
        argv += ["--cache", cache]
    report, merged = f"report_{tag}.json", os.path.join(work, f"merged_{tag}.json")
    w1, r1, c1 = run_timed(argv + ["--json", report] + files, work,
                           os.path.join(work, f"table_{tag}.txt"), err)
    w2, r2, c2 = run_timed([tool("cats_merge"), "--zero-wall", report, "-o", merged],
                           work, os.devnull, err)
    os.sync()
    log(f"  {tag}: sweep {w1:.3f}s merge {w2:.3f}s")
    return w1 + w2, max(r1, r2), os.path.getsize(os.path.join(work, report)), merged, \
        c1 == 0 and c2 == 0


def measure_cli(workload, work, files, cache, seconds, checker):
    """Closed loop: one campaign at a time. An untimed plain campaign at 4
    workers goes first (the first 4-worker campaign after set-up runs slow):
    it is checked against the golden table and is the reference every timed
    output must equal, so for corpus6i-warm it also proves warm = cold up to
    the cache stanza. Then j1 and j4 alternate until `seconds` have passed,
    at least MIN_REPS times each."""
    digest_of = listing_digest if workload == "diy7-power" else report_digest
    _, _, _, output, ok = cli_pipeline(workload, work, files, None, 4, "reference")
    reference = None
    if ok:
        (checker.listing if workload == "diy7-power" else checker.report)(output)
        reference = digest_of(output)
    else:
        checker.attempted += len(checker.golden)
        checker.fail(len(checker.golden), f"{workload} reference campaign: nonzero exit")
    walls = {j: [] for j in WORKERS}
    rss, report_bytes = [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < MIN_REPS or time.perf_counter() < deadline:
        for jobs in WORKERS:
            tag = f"j{jobs}.{rep}"
            wall, peak, size, output, ok = cli_pipeline(workload, work, files, cache, jobs, tag)
            walls[jobs].append(wall)
            rss.append(peak)
            report_bytes.append(size)
            checker.same(ok, digest_of(output) if ok else None, reference, f"{workload} {tag}")
        rep += 1
    log(f"{workload}: {rep} rep(s) per worker count")
    return {
        "wall_s_j1": statistics.median(walls[1]),
        "wall_s_j4": statistics.median(walls[4]),
        "peak_rss_mb": statistics.median(rss),
        "report_mb": statistics.median(report_bytes) / 1e6,
    }


def ledger_args(workload, work, cache, out_dir):
    args = ["--workload", workload, "--work", out_dir]
    if workload != "diy7-power":
        args += ["--files", os.path.join(work, "files.txt")]
    if cache:
        args += ["--cache", os.path.join(work, cache)]
    return args


def measure_ledger(workload, work, cache, checker):
    """The traced replay (twice, alternating with its untraced twin) and the
    engine/probe pass; returns the per-layer metrics."""
    pipe_dir = os.path.join(work, "ledger")
    os.makedirs(pipe_dir, exist_ok=True)
    args = ledger_args(workload, work, cache, pipe_dir)
    traced, untraced = [], []
    for _ in range(2):
        for trace in (1, 0):
            out = os.path.join(work, f"ledger_{trace}.json")
            wall, _, code = run_timed([tool("e2e_ledger"), "pipeline", "--trace", str(trace)] + args,
                                      work, out, os.path.join(work, "stderr.txt"))
            os.sync()
            if code != 0:
                raise BenchError(f"e2e_ledger pipeline --trace {trace} failed ({code})")
            with open(out) as f:
                result = json.load(f)
            result["process_wall_s"] = wall
            (traced if trace else untraced).append(result)
            if workload == "diy7-power":
                checker.listing(os.path.join(pipe_dir, "listing.txt"))
            else:
                checker.report(os.path.join(pipe_dir, "merged.json"))
    layers = json.loads(run_checked([tool("e2e_ledger"), "layers"] + ledger_args(workload, work, cache, work),
                                    work, "e2e_ledger layers").strip().splitlines()[-1])
    if workload != "corpus6i-warm":
        checker.attempted += 1
        expected = sum(g[1] for g in checker.golden.values())
        if int(layers["herd.candidates_total"]) != expected:
            checker.fail(1, f"candidates_total {layers['herd.candidates_total']} != golden {expected}")

    def per_run(r):
        ops, tests = r["ops"], r["tests"]

        def op(name):
            return ops.get(name, {}).get("total_s", 0.0)

        judged = layers.get("herd.candidates_judged", 0)
        m = {
            "diy.enumerate_s": op("diy.enumerate"),
            "diy.synthesize_us_per_test": op("diy.synthesize") * 1e6 / tests,
            "litmus.parse_us_per_test": op("litmus.parse") * 1e6 / tests,
            "litmus.compile_us_per_test": op("litmus.compile") * 1e6 / tests,
            "herd.judge_us_per_test_p50": r["judge_p50_us"],
            "herd.judge_us_per_test_p99": r["judge_p99_us"],
            "herd.us_per_candidate_model":
                op("herd.judge") * 1e6 / (judged * len(MODELS)) if judged else 0.0,
            "sweep.result_free_s": op("sweep.result_free"),
            "report.serialize_us_per_test": op("report.serialize") * 1e6 / tests,
            "report.bytes_per_test": r["report_bytes"] / tests,
            "campaign.cache_lookup_us_per_hit":
                op("campaign.cache_lookup") * 1e6 / r["cache_hits"] if r["cache_hits"] else 0.0,
            "campaign.merge_us_per_test": op("campaign.merge") * 1e6 / tests,
            "ledger.wall_accounted":
                sum(v for k, v in r["layers"].items() if k in LEDGER_LAYERS) / r["process_wall_s"],
        }
        for layer in LEDGER_LAYERS:
            m[f"ledger.{layer}_self_s"] = r["layers"].get(layer, 0.0)
        return m

    runs = [per_run(r) for r in traced]
    metrics = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    metrics["ledger.trace_overhead"] = \
        statistics.median(r["process_wall_s"] for r in traced) / \
        statistics.median(r["process_wall_s"] for r in untraced) - 1
    # The wall no span can hold: start-up, and exit after main returns.
    metrics["ledger.outside_main_s"] = \
        statistics.median(r["process_wall_s"] - r["wall_s"] for r in untraced)
    for name, _ in PER_LAYER:
        if name not in metrics:
            metrics[name] = float(layers.get(name, 0.0))
    return metrics


# --------------------------------------------------------------------- main

def remove_work_dirs():
    """Deletes every run's files but the traces kept beside them."""
    if os.path.isdir(WORK_ROOT):
        for entry in os.scandir(WORK_ROOT):
            if entry.is_dir(follow_symlinks=False):
                shutil.rmtree(entry.path)


def run_workload(workload, seed, seconds, trace):
    build()
    work = os.path.join(WORK_ROOT, workload)
    remove_work_dirs()
    os.makedirs(work)
    if workload == "corpus6i-warm":
        # Its set-up is the cold store pass; the export is corpus6i-json's.
        export_corpus(work)
    os.sync()
    checker = Checker(workload)
    if workload == "diy7-power":
        log("diy7-power is fully determined by its flags; the seed is ignored")
    setup_times = []
    for rep in range(SETUP_REPS if not trace else 1):
        start = time.perf_counter()
        files, cache = set_up(workload, work, seed, rep)
        setup_times.append(time.perf_counter() - start)
        os.sync()
        log(f"  set-up {setup_times[-1]:.3f}s")
    checker.catalogue(work)
    if trace:
        values = measure_ledger(workload, work, cache, checker)
        spec = PER_LAYER
        os.replace(os.path.join(work, "ledger", "trace.json"),
                   os.path.join(WORK_ROOT, f"trace-{workload}.json"))
    else:
        values = measure_cli(workload, work, files, cache, seconds, checker)
        values["setup_s"] = statistics.median(setup_times)
        spec = END_TO_END
    remove_work_dirs()
    for note in checker.notes:
        log("CHECK FAILED: " + note)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    error_rate = checker.failed / checker.attempted
    print(f"# {workload} seed={seed} trace={trace}: error_rate {error_rate:.6g} "
          f"({checker.failed} of {checker.attempted} checks failed)")
    for name, unit in spec:
        print(f"{workload:14s} {name:36s} {values[name]:14.6g} {unit}")
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--make-golden", action="store_true", help="regenerate golden/")
    args = parser.parse_args()
    try:
        if args.make_golden:
            make_golden()
            return 0
        if args.all:
            results = {}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    results[f"{workload}/trace{trace}"] = \
                        run_workload(workload, args.seed, args.seconds, trace)
            print(json.dumps(results))
            return 0
        if not args.workload:
            parser.error("--workload, --all or --make-golden is required")
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    except (BenchError, OSError) as e:
        log(f"bench_e2e: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
