#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

run.py also runs them before every benchmark run. They show that the
correctness check catches a perturbed or missing reference row and a
broken conservation identity, and that span self time (a span minus the
part of it its children cover) is computed right on a synthetic span
set.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import check  # noqa: E402
import layers  # noqa: E402

HEADER = ("org,workload,category,exec_time,kernel_steps,truncated,"
          "instructions,accesses,warmup_accesses,l3_hits,l3_misses,"
          "stacked_bytes,offchip_bytes,storage_bytes,major_faults,"
          "minor_faults,serviced_stacked,serviced_offchip,swaps,"
          "llp_case0,llp_case1,llp_case2,llp_case3,llp_case4,"
          "llp_accuracy,page_migrations")


def _rows():
    """Two rows that satisfy every queued-detailed identity."""
    accesses, warmup = check.EXPECTED_ACCESSES["queued-detailed"]
    hits, misses = accesses // 4, accesses - accesses // 4
    common = f"{accesses},{warmup},{hits},{misses}"
    return {
        "mcf/Baseline": f"Baseline,mcf,1,900,500000,0,2000000,{common},"
                        "0,20000000,0,10,20,0,0,0,0,0,0,0,0,0,0",
        "mcf/CAMEO": f"CAMEO,mcf,1,800,500000,0,2000000,{common},16000000,"
                     f"8000000,0,10,20,{misses},{hits},9000,1,2,3,4,5,"
                     "0.33333333333333331,0",
    }


def _jobs(rows):
    return [{"label": label, "row": row, "error": ""}
            for label, row in rows.items()]


def test_reference_catches_perturbed_row(errors):
    rows = _rows()
    labels = list(rows)
    reference = dict(rows)
    _, failed, _ = check.check_jobs("queued-detailed", labels, HEADER,
                                    _jobs(rows), reference)
    if failed:
        errors.append("matching rows reported as failed")
    fields = rows["mcf/CAMEO"].split(",")
    fields[3] = str(int(fields[3]) + 1)  # exec_time off by one tick
    perturbed = dict(rows, **{"mcf/CAMEO": ",".join(fields)})
    attempted, failed, notes = check.check_jobs(
        "queued-detailed", labels, HEADER, _jobs(perturbed), reference)
    if (attempted, failed) != (2, 1) or "mcf/CAMEO" not in notes[0]:
        errors.append(f"perturbed row not caught: {failed} of {attempted}")
    attempted, failed, _ = check.check_jobs(
        "queued-detailed", labels, HEADER,
        _jobs({"mcf/Baseline": rows["mcf/Baseline"]}), reference)
    if (attempted, failed) != (2, 1):
        errors.append("missing row not counted as a failed job")


def test_identities_without_reference(errors):
    rows = _rows()
    labels = list(rows)
    _, failed, notes = check.check_jobs("queued-detailed", labels, HEADER,
                                        _jobs(rows), None)
    if failed:
        errors.append(f"valid rows broke an identity: {notes}")
    fields = rows["mcf/Baseline"].split(",")
    fields[9] = str(int(fields[9]) + 1)  # l3_hits no longer sums up
    broken = dict(rows, **{"mcf/Baseline": ",".join(fields)})
    _, failed, _ = check.check_jobs("queued-detailed", labels, HEADER,
                                    _jobs(broken), None)
    if failed != 1:
        errors.append("broken accesses identity not caught")
    repeat = _jobs(rows) + _jobs(broken)[:1]
    _, failed, _ = check.check_jobs("queued-detailed", labels, HEADER,
                                    repeat, None)
    if failed != 1:
        errors.append("non-repeating row not caught")


def test_self_time(errors):
    def span(i, parent, start, end):
        return {"id": i, "parent": parent, "start": start, "end": end}

    spans = [
        span(0, -1, 0, 100),
        span(1, 0, 10, 30),   # overlaps its sibling: [10, 50) counts once
        span(2, 0, 20, 50),
        span(3, 0, 90, 120),  # only [90, 100) lies inside the parent
        span(4, 2, 25, 45),   # grandchild: charged to span 2, not 0
        span(5, -1, 200, 260),
    ]
    expected = {0: 50, 1: 20, 2: 10, 3: 30, 4: 20, 5: 60}
    got = layers.self_times(spans)
    if got != expected:
        errors.append(f"self times {got} != {expected}")


def run_all():
    errors = []
    for test in (test_reference_catches_perturbed_row,
                 test_identities_without_reference, test_self_time):
        test(errors)
    return errors


if __name__ == "__main__":
    failures = run_all()
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    sys.exit(1 if failures else 0)
