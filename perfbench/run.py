"""solitonlab benchmark: time to an exact verdict, end to end and per layer.

    python3 perfbench/run.py --workload toda-construct --seed 1 --seconds 40 --trace 0

A workload is a fixed list of CLI cases, each run with a fixed set of
parameter draws (CLI --seed values), all in perfbench/workloads.json.  A
pass runs every case once with each draw, in an order the workload seed
shuffles anew for every pass; each job runs as ``cli.run(cfg)`` in a fresh
child process (perfbench/child.py), one at a time from this process.
Every job's verdict is checked: exit code, stderr, every residual entry, and
the report's sha256 and proven-term count against perfbench/oracle.json.
Passes repeat while the next one, judged by the last, still ends within
--seconds (at least one runs).

Times are medians over the run's passes, per job, summed over the jobs of a
pass.  Each case's time is also divided by a fixed reference computation
timed in the same child just before and after it (child.reference_s): on a
shared host the speed of exact arithmetic swings by up to 2x for minutes,
and the ratio (unit "ref") stays steady where raw seconds do not.  Raw
seconds are kept in the result file.

With --trace 0 the end-to-end metrics of BENCHMARK.json are printed.  With
--trace 1 an untraced and a traced pass alternate on the same jobs, the
per-layer metrics come from the traced passes, and the tracing overhead is
the ratio of their normalised wall times.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; a
fuller result file with per-pass numbers and run provenance is written under
perfbench/out/.

The harness cannot pin CPUs or isolate its cgroup; the load average before
and after the run is recorded in the result file so that a noisy run can be
recognised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
WARMUP_CASE = "quasidet-selftest --trials 3"

# per-layer metric -> (metric group of spans.BOUNDARIES, field of
# spans.case_layer_metrics); "_ns" fields are reported in seconds.
LAYER_FIELDS = {
    "quasidet.gamma_s": ("quasidet.gamma", "incl_ns"),
    "quasidet.gamma_calls": ("quasidet.gamma", "calls"),
    "quasidet.cross_check_s": ("quasidet.cross_check", "incl_ns"),
    "quasidet.cell_quotient_s": ("quasidet.cell_quotient", "incl_ns"),
    "quasidet.qdet_s": ("quasidet.qdet", "incl_ns"),
    "quasidet.qdet_calls": ("quasidet.qdet", "calls"),
    "quasidet.wronski_s": ("quasidet.wronski", "incl_ns"),
    "series.inverse_s": ("series.inverse", "incl_ns"),
    "series.inverse_calls": ("series.inverse", "calls"),
    "series.matrix_inverse_s": ("series.matrix_inverse", "incl_ns"),
    "series.mul_s": ("series.mul", "incl_ns"),
    "series.mul_calls": ("series.mul", "calls"),
    "series.derive_calls": ("series.derive", "calls"),
    "series.exp_s": ("series.exp", "incl_ns"),
    "algebra.gj_s": ("algebra.gj", "incl_ns"),
    "algebra.gj_calls": ("algebra.gj", "calls"),
    "algebra.nested_inverse_s": ("algebra.nested_inverse", "incl_ns"),
    "algebra.matmul_calls": ("algebra.matmul", "calls"),
    "scalars.gaussian_new": ("scalars.gaussian_new", "calls"),
    "residual.check_s": ("residual.check", "incl_ns"),
    "residual.check_self_s": ("residual.check", "self_ns"),
    "residual.lemma_s": ("residual.lemma", "incl_ns"),
    "solitons.build_f_s": ("solitons.build_f", "incl_ns"),
    "solitons.solution_s": ("solitons.solution", "incl_ns"),
    "solitons.solution_self_s": ("solitons.solution", "self_ns"),
    "solitons.draws": ("solitons.draws", "calls"),
    "cli.run_s": ("cli.run", "incl_ns"),
    "cli.self_s": ("cli.run", "self_ns"),
}


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def case_key(case, seed):
    return f"{case} --seed {seed}"


def verdict_terms(body):
    """(proven_terms, residual entries, problems) of one report.

    proven_terms counts, over every exact_zero residual entry, the monomials
    of total degree < valid_order: vo for t-series (Langmuir), vo(vo+1)/2 for
    (u,v)-series; the selftest contributes its checked positions.
    """
    if body["system"] == "quasidet-selftest":
        ok = body["passed"] and not body["failures"] and body["positions_checked"] > 0
        return body["positions_checked"], 0, [] if ok else ["selftest did not pass"]
    arity = 1 if body["system"] == "langmuir" else 2
    terms = entries = 0
    problems = [] if body["passed"] else ["report says passed: false"]
    for check in body["checks"]:
        if not check["passed"]:
            problems.append(f"check {check['equation']} failed")
        for entry in check["entries"]:
            entries += 1
            if entry["exact_zero"] is True:
                vo = entry["valid_order"]
                terms += vo if arity == 1 else vo * (vo + 1) // 2
            elif check["exact"]:
                problems.append(f"{check['equation']} {entry['label']}: no exact_zero")
    if entries == 0:
        problems.append("no residual entries")
    return terms, entries, problems


def run_case(case, seed, traced, work):
    """Run one case in a fresh child; returns (timings, meta, report bytes)."""
    paths = {k: os.path.join(work, k) for k in ("report.json", "meta.json", "stderr.txt")}
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)
    argv = [
        sys.executable, CHILD, paths["meta.json"], "1" if traced else "0", "--",
        *case.split(), "--seed", str(seed), "--report", paths["report.json"],
    ]
    with open(paths["stderr.txt"], "w+b") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=work, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    meta = load_json(paths["meta.json"]) if os.path.exists(paths["meta.json"]) else None
    report = None
    if os.path.exists(paths["report.json"]):
        with open(paths["report.json"], "rb") as fh:
            report = fh.read()
    timings = {
        "exit": proc.returncode,
        "stderr": stderr[-2000:],
        "wall_s": t_exit - t_spawn,
        "setup_s": t_exit - t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "ref_s": 0.0,
        "wall_ref": 0.0,
        "cpu_ref": 0.0,
    }
    if meta is not None:
        # the reference computation and tracer set-up are not the case's time
        ref = (meta["ref_pre_s"] + meta["ref_post_s"]) / 2
        setup = meta["t_setup"] - t_spawn
        timings.update(
            setup_s=setup,
            wall_s=setup + meta["t_done"] - meta["t_run"],
            cpu_s=meta["cpu_setup"] + meta["cpu_done"] - meta["cpu_run"],
            ref_s=ref,
        )
        timings["wall_ref"] = timings["wall_s"] / ref
        timings["cpu_ref"] = timings["cpu_s"] / ref
    return timings, meta, report


def judge(case, seed, timings, report, oracle):
    """(problems, proven_terms, residual entries) of one finished case."""
    problems = []
    if timings["exit"] != 0:
        problems.append(f"exit code {timings['exit']}")
    if "Traceback" in timings["stderr"]:
        problems.append("traceback on stderr")
    if report is None:
        return problems + ["no report written"], 0, 0
    terms, entries, bad = verdict_terms(json.loads(report))
    problems += bad
    want = oracle.get(case_key(case, seed))
    if want is None:
        problems.append("no recorded digest for this case and seed")
    else:
        if hashlib.sha256(report).hexdigest() != want["sha256"]:
            problems.append("report sha256 differs from the recorded digest")
        if terms != want["proven_terms"]:
            problems.append(f"proven_terms {terms} != recorded {want['proven_terms']}")
    return problems, terms, entries


def trace_case(meta, wall_s):
    """(metric groups, problems) from one traced case's spans."""
    problems = []
    try:
        spans.check_nesting(meta["spans"])
    except ValueError as exc:
        problems.append(f"span tree: {exc}")
    groups = spans.case_layer_metrics(meta["spans"], meta["counts"])
    if any(g["self_ns"] < 0 for g in groups.values()):
        problems.append("negative self time")
    self_s = sum(g["self_ns"] for g in groups.values()) / 1e9
    if self_s > wall_s:
        problems.append(f"self times sum to {self_s:.6f} s > case wall {wall_s:.6f} s")
    return groups, problems


def run_pass(jobs, traced, work, oracle, tag):
    """Run each (case, draw) job once; returns the pass record."""
    records = []
    for index, (case, seed) in enumerate(jobs):
        timings, meta, report = run_case(case, seed, traced, work)
        problems, terms, entries = judge(case, seed, timings, report, oracle)
        rec = dict(timings, case=case, seed=seed, case_id=f"{tag}c{index}",
                   proven_terms=terms, entries=entries,
                   report_bytes=len(report) if report is not None else 0)
        if traced:
            if meta is None or "spans" not in meta:
                problems.append("no trace recorded")
            else:
                rec["groups"], more = trace_case(meta, timings["wall_s"])
                problems += more
                rec["counts"] = meta["counts"]
                rec["kernels"] = meta.get("kernels")
                rec["spans"] = [s + [rec["case_id"]] for s in meta["spans"]]
        rec["problems"] = problems
        records.append(rec)
    return {"traced": traced, "cases": records, "metrics": pass_metrics(records, traced)}


def pass_metrics(records, traced):
    out = {key: sum(r[key] for r in records)
           for key in ("wall_s", "cpu_s", "setup_s", "wall_ref", "cpu_ref", "proven_terms")}
    out["peak_rss_mb"] = max(r["rss_mb"] for r in records)
    if not traced or any("groups" not in r for r in records):
        return out
    total = {
        g: {k: sum(r["groups"][g][k] for r in records) for k in fields}
        for g, fields in records[0]["groups"].items()
    }
    for name, (group, field) in LAYER_FIELDS.items():
        value = total[group][field]
        out[name] = value / 1e9 if field.endswith("_ns") else value
    draws = total["solitons.draws"]["calls"]
    out["solitons.draw_success_ratio"] = (
        total["solitons.solution"]["outer_ok"] / draws if draws else 0.0
    )
    kernels = [r["kernels"] for r in records if r.get("kernels")]
    for name in ("qq_muladd_ns", "qqi_muladd_ns"):
        out[f"scalars.{name}"] = statistics.median(k[name] for k in kernels) if kernels else 0.0
    out["residual.entries"] = sum(r["entries"] for r in records)
    out["cli.report_bytes"] = sum(r["report_bytes"] for r in records)
    return out


def coverage_problems(workload, traced_passes, per_layer, values):
    """Every boundary mapped to this workload was entered in every traced
    pass, and every per-layer metric mapped to it is nonzero."""
    problems = []
    for p, one in enumerate(traced_passes):
        entered = dict.fromkeys(spans.BOUNDARIES, 0)
        for rec in one["cases"]:
            for s in rec.get("spans", []):
                entered[s[1]] += 1
            if "groups" in rec:
                for boundary, (kind, _, _) in spans.BOUNDARIES.items():
                    if kind == "count":
                        entered[boundary] += rec["counts"][boundary]
        for boundary, (_, _, on) in spans.BOUNDARIES.items():
            if workload in on and not entered[boundary]:
                problems.append(f"traced pass {p}: {boundary} never entered")
    for name, why in per_layer.items():
        if workload in why["exercised_on"] and not values.get(name):
            problems.append(f"{name} is zero on {workload}, where it is exercised")
    return problems


def read_loadavg():
    try:
        with open("/proc/loadavg", "r", encoding="utf-8") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed, load_before, load_after):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "commit": git_commit(),
        "seed": seed,
        "isolation": "none: the harness cannot pin CPUs or isolate its cgroup; "
        "children run one at a time from one parent process",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: workloads.json default_seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=OUT, help="directory for the result file")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of the workload's smallest case only")
    return parser.parse_args(argv)


def job_median_sum(passes, key):
    """Sum over the (case, draw) jobs of each job's median over the passes."""
    runs = {}
    for one in passes:
        for rec in one["cases"]:
            runs.setdefault((rec["case"], rec["seed"]), []).append(rec[key])
    return sum(statistics.median(v) for v in runs.values())


def run_values(untraced, traced, records):
    """Run-level metrics from the passes of one run.

    Times are per pass: each job's median over the run's repeats, summed
    over the jobs.  wall_ref and cpu_ref divide each case's time by the
    reference computation timed next to it (child.reference_s), so they keep
    steady while the host's speed swings; the raw seconds are kept as well.
    """
    values = {key: job_median_sum(untraced, key)
              for key in ("wall_ref", "cpu_ref", "setup_s", "wall_s", "cpu_s")}
    values["ref_s"] = statistics.median(r["ref_s"] for p in untraced for r in p["cases"])
    values["peak_rss_mb"] = statistics.median(p["metrics"]["peak_rss_mb"] for p in untraced)
    values["proven_terms"] = statistics.median(p["metrics"]["proven_terms"] for p in untraced)
    values["proven_terms_per_ref"] = values["proven_terms"] / values["cpu_ref"]
    values["pass_share"] = sum(not r["problems"] for r in records) / len(records)
    if traced:
        for name in traced[0]["metrics"]:
            values.setdefault(
                name, statistics.median(p["metrics"][name] for p in traced)
            )
        values["trace.overhead_ratio"] = (
            job_median_sum(traced, "wall_ref") / values["wall_ref"]
        )
    return values


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "solitonlab", "cli.py")):
        print(f"perfbench: no solitonlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    oracle = load_json(os.path.join(HERE, "oracle.json"))
    workload = config["workloads"].get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seed = config["default_seed"] if args.seed is None else args.seed
    if args.smoke:
        jobs = [(workload["smallest"], config["draws"][0])]
    else:
        jobs = [(case, d) for case in workload["cases"] for d in config["draws"]]
    rng = random.Random(f"{args.workload}:{seed}")

    os.makedirs(args.out, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=args.out)
    passes = []
    load_before = read_loadavg()
    try:
        warm, _, _ = run_case(WARMUP_CASE, seed, False, work)
        if warm["exit"] != 0:
            print(f"perfbench: warm-up case failed:\n{warm['stderr']}", file=sys.stderr)
            return 2
        started = time.monotonic()
        k = 0
        while True:
            order = rng.sample(jobs, len(jobs))
            t0 = time.monotonic()
            passes.append(run_pass(order, False, work, oracle, f"p{k}u"))
            if args.trace:
                passes.append(run_pass(order, True, work, oracle, f"p{k}t"))
            k += 1
            elapsed = time.monotonic() - started
            last = time.monotonic() - t0
            if args.smoke or elapsed + last > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = read_loadavg()

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    records = [r for p in passes for r in p["cases"]]
    values = run_values(untraced, traced, records)
    problems = []
    if traced and not args.smoke:
        problems = coverage_problems(args.workload, traced, config["per_layer"], values)
    failures = [
        {"case_id": r["case_id"], "case": r["case"], "seed": r["seed"],
         "problems": r["problems"]}
        for r in records if r["problems"]
    ]
    correct = not failures and not problems
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    stem = f"{'smoke-' if args.smoke else ''}{args.workload}-seed{seed}-trace{args.trace}"
    span_log = [[s for r in p["cases"] for s in r.pop("spans", [])] for p in traced]
    result = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "jobs": jobs,
        "passes": len(untraced),
        "provenance": provenance(seed, load_before, load_after),
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "values": values,
        "metrics": metrics,
        "per_pass": passes,
    }
    with open(os.path.join(args.out, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if traced:
        with open(os.path.join(args.out, stem + ".spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "boundary", "start_ns", "end_ns", "parent",
                                  "ok", "case_id"], "passes": span_log}, fh)
    for item in failures + [{"problems": problems}] * bool(problems):
        print(f"perfbench: FAIL {item.get('case_id', '')} {item.get('case', '')}: "
              f"{'; '.join(item['problems'])}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
