"""Correctness checks for the benchmark's simulated results.

Every job's result row (the columns writeShardResultsCsv writes) is
compared with the recorded reference for the run's seed. A seed without
a reference is checked against the per-organization conservation
identities the repository's property test asserts
(tests/test_properties.cc, OrgConservationTest), and every repetition of
a job must repeat its first row exactly.
"""

import csv
import io
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

# Measured and warmup accesses per job: 8 cores of the default scaled
# config times the per-core lengths the runner configures.
EXPECTED_ACCESSES = {
    "queued-detailed": (8 * 25_000, 0),
    "functional-warmup": (8 * 25_000, 8 * 200_000),
    "shard-fleet": (8 * 25_000, 0),
}


def reference_path(workload, seed, ref_dir=REFERENCE_DIR):
    return os.path.join(ref_dir, f"{workload}-seed{seed}.csv")


def label_of(row):
    """The job label ("<workload>/<org>") a CSV row belongs to."""
    fields = row.split(",")
    return f"{fields[1]}/{fields[0]}" if len(fields) > 1 else ""


def load_reference(workload, seed, ref_dir=REFERENCE_DIR):
    """{label: row} for the seed, or None when no reference exists."""
    path = reference_path(workload, seed, ref_dir)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    return {label_of(row): row for row in lines[1:]}


def write_reference(workload, seed, header, rows, ref_dir=REFERENCE_DIR):
    os.makedirs(ref_dir, exist_ok=True)
    with open(reference_path(workload, seed, ref_dir), "w",
              encoding="utf-8") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(row + "\n")


def conservation_errors(workload, header, row):
    """Identities every correct row satisfies; returns the broken ones."""
    try:
        values = next(csv.DictReader(io.StringIO(header + "\n" + row + "\n")))
        num = {k: (float(v) if k == "llp_accuracy" else int(v))
               for k, v in values.items() if k not in ("org", "workload")}
    except (ValueError, TypeError, StopIteration) as e:
        return [f"unparsable row ({e})"]
    errors = []
    accesses, warmup = EXPECTED_ACCESSES[workload]
    if num["truncated"] != 0:
        errors.append("run truncated")
    if num["accesses"] != num["l3_hits"] + num["l3_misses"]:
        errors.append("accesses != l3_hits + l3_misses")
    if num["accesses"] != accesses:
        errors.append(f"accesses {num['accesses']} != {accesses}")
    if num["warmup_accesses"] != warmup:
        errors.append(f"warmup_accesses {num['warmup_accesses']} != {warmup}")
    if num["instructions"] <= 0 or num["kernel_steps"] <= 0:
        errors.append("no instructions or kernel steps")
    org = values["org"]
    if org == "Baseline" and (num["stacked_bytes"] or num["serviced_stacked"]
                              or num["swaps"]):
        errors.append("Baseline reports stacked-DRAM traffic")
    if org in ("CAMEO", "CAMEO-Freq") and (
            num["serviced_stacked"] + num["serviced_offchip"]
            < num["l3_misses"]):
        errors.append("CAMEO serviced fewer requests than L3 misses")
    return errors


def check_jobs(workload, labels, header, jobs, reference):
    """Check one run's jobs.

    labels: every job label the workload runs (each must appear).
    jobs: dicts with "label", "row" and "error" (one per completed or
    failed job attempt).
    reference: {label: row} or None.

    Returns (attempted, failed, notes): a job fails on an error, a row
    that differs from the reference (or breaks an identity when there is
    no reference), or a missing row.
    """
    attempted = 0
    failed = 0
    notes = []
    first_row = {}
    for job in jobs:
        attempted += 1
        label, row, error = job["label"], job["row"], job["error"]
        problem = None
        if error:
            problem = f"error: {error}"
        elif not row or label_of(row) != label:
            problem = "no result row"
        elif reference is not None:
            if reference.get(label) != row:
                problem = "row differs from the reference"
        else:
            broken = conservation_errors(workload, header, row)
            if broken:
                problem = "; ".join(broken)
            elif first_row.setdefault(label, row) != row:
                problem = "row differs from the job's first run"
        if problem:
            failed += 1
            notes.append(f"{label}: {problem}")
    seen = {job["label"] for job in jobs}
    for label in labels:
        if label not in seen:
            attempted += 1
            failed += 1
            notes.append(f"{label}: never ran")
    return attempted, failed, notes
