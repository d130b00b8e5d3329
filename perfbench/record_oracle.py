"""Record the verdict oracle that every benchmark pass checks against.

    python3 perfbench/record_oracle.py

Runs every case of every workload once with each of the draws listed in
perfbench/workloads.json and writes each report's sha256 and proven_terms to
perfbench/oracle.json.  A report that does not pass is an error, not an
entry.  Re-record only in a change that alters report content on purpose,
and say why in CHANGES.md.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile

import run


def main():
    config = run.load_json(os.path.join(run.HERE, "workloads.json"))
    cases = sorted({c for w in config["workloads"].values() for c in w["cases"]})
    os.makedirs(run.OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=run.OUT)
    oracle = {}
    try:
        for case in cases:
            for seed in config["draws"]:
                timings, _, report = run.run_case(case, seed, False, work)
                if report is None or timings["exit"] != 0:
                    sys.exit(f"{case} --seed {seed} failed:\n{timings['stderr']}")
                terms, _, problems = run.verdict_terms(json.loads(report))
                if problems:
                    sys.exit(f"{case} --seed {seed}: {'; '.join(problems)}")
                oracle[run.case_key(case, seed)] = {
                    "sha256": hashlib.sha256(report).hexdigest(),
                    "proven_terms": terms,
                }
                print(f"{run.case_key(case, seed)}: {terms} terms, "
                      f"{timings['wall_s']:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.HERE, "oracle.json"), "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
