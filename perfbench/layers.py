"""Per-layer metrics from the traced run's spans.

The runner writes its spans as Chrome trace-event JSON (open it in
Perfetto or chrome://tracing). Every event carries, in "args", its span
id, parent id, job id, start and end in ns, and the counts recorded at
the same boundary. This module derives the per-layer metrics from that
file; README.md defines each one.
"""

import json
import statistics


def load_spans(path):
    """The spans of a trace file, as dicts with name, start, end,
    parent, job and the remaining args."""
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for event in events:
        args = dict(event["args"])
        spans.append({
            "id": args.pop("id"),
            "parent": args.pop("parent"),
            "job": args.pop("job"),
            "start": args.pop("start_ns"),
            "end": args.pop("end_ns"),
            "name": event["name"],
            "args": args,
        })
    return spans


def covered(intervals, lo, hi):
    """Length of [lo, hi) covered by the union of the intervals."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """{span id: duration minus the part of it its children cover}.

    Children are the spans naming it as parent; overlapping children
    count once, and a child's time outside its parent's interval is not
    subtracted.
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"]) -
        covered(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def _dur(span):
    return span["end"] - span["start"]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, labels, orgs, clock_read_ns, fleet=None):
    """Per-layer metrics and per-access shares of one traced run.

    labels: job label per job id; orgs: organization names;
    fleet: for shard-fleet, {"wall_s", "job_seconds": {label: s},
    "shard_of": {label: shard}, "accesses": n} from the traced fleet.
    Returns (metrics, shares, host_ns_per_access).
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    selfs = self_times(spans)

    def named(name, **match):
        return [s for s in by_name.get(name, [])
                if all(s["args"].get(k) == v for k, v in match.items())]

    def total(name, key=None, **match):
        chosen = named(name, **match)
        if key is None:
            return sum(_dur(s) for s in chosen)
        return sum(s["args"].get(key, 0) for s in chosen)

    def org_of(job):
        return labels[job].split("/", 1)[1]

    m = {}
    runs = by_name.get("system.run", [])
    accesses = sum(s["args"]["accesses"] + s["args"]["warmup_accesses"]
                   for s in runs)

    # trace: recording (set-up) and decode (the real run's refills, less
    # the clock read each timed call adds).
    m["trace.record_ns"] = _ratio(total("trace.record"),
                                  total("trace.record", "records"))
    decode_busy = decode_calls = decode_records = 0
    for s in runs:
        for phase in ("warmup", "measured"):
            decode_busy += s["args"][f"decode_busy_ns.{phase}"]
            decode_calls += s["args"][f"decode_calls.{phase}"]
            decode_records += s["args"][f"decode_records.{phase}"]
    m["trace.decode_ns"] = _ratio(decode_busy - decode_calls * clock_read_ns,
                                  decode_records)

    translate_calls = total("vm.translate", "calls")
    m["vm.translate_ns"] = _ratio(total("vm.translate"), translate_calls)
    m["vm.fault_ratio"] = _ratio(total("staged", "faults"),
                                 total("staged", "translations"))
    llc_calls = total("cache.access", "calls")
    m["cache.access_ns"] = _ratio(total("cache.access"), llc_calls)
    m["cache.miss_ratio"] = _ratio(total("cache.access", "misses"), llc_calls)

    # Organizations. The functional path has no entry point of its own:
    # its time is the warmup phase of the real run minus the decode,
    # translate and L3 time of the same records (staged replay).
    functional_ns_total = 0.0
    for org in orgs:
        jobs = {j for j, label in enumerate(labels) if org_of(j) == org}
        submit = [s for s in named("orgs.submit") if s["job"] in jobs]
        m[f"orgs.submit_ns.{org}"] = _ratio(
            sum(_dur(s) for s in submit),
            sum(s["args"]["calls"] for s in submit))
        org_runs = [s for s in runs if s["job"] in jobs]
        m[f"orgs.dram_cmds_per_miss.{org}"] = _ratio(
            sum(s["args"]["dram_cmds"] for s in org_runs),
            sum(s["args"]["l3_misses"] for s in org_runs))
        warm_ns = calls = 0.0
        for w in named("run.warmup"):
            if w["job"] not in jobs:
                continue
            run = next(s for s in runs if s["id"] == w["parent"])
            staged_warm = [s for s in spans if s["job"] == w["job"]
                           and s["name"] in ("vm.translate", "cache.access")
                           and s["args"].get("phase") == 0]
            warm_ns += (_dur(w)
                        - (run["args"]["decode_busy_ns.warmup"]
                           - run["args"]["decode_calls.warmup"]
                           * clock_read_ns)
                        - sum(_dur(s) for s in staged_warm))
            calls += sum(s["args"]["misses"] + s["args"]["writebacks"]
                         for s in staged_warm if s["name"] == "cache.access")
        m[f"orgs.functional_ns.{org}"] = _ratio(warm_ns, calls)
        functional_ns_total += warm_ns

    for mode, flag in (("queued", 1), ("blocking", 0)):
        m[f"dram.request_ns.{mode}"] = _ratio(
            total("dram.request", queued=flag),
            total("dram.request", "calls", queued=flag))

    m["sim.steps_per_access"] = _ratio(
        sum(s["args"]["kernel_steps"] for s in runs), accesses)
    step_ns, event_ns = [], []
    for rep in sorted({s["args"]["rep"] for s in named("sim.kernel")}):
        plain = named("sim.kernel", rep=rep)
        steps = sum(s["args"]["steps"] for s in plain)
        step_ns.append(_ratio(sum(_dur(s) for s in plain), steps))
        with_events = named("sim.kernel_events", rep=rep)
        events = sum(s["args"]["events"] for s in with_events)
        if events:
            event_ns.append((sum(_dur(s) for s in with_events)
                             - sum(_dur(s) for s in plain)) / events)
    m["sim.step_ns"] = statistics.median(step_ns) if step_ns else 0.0
    m["sim.event_ns"] = statistics.median(event_ns) if event_ns else 0.0

    for op in ("save", "restore"):
        m[f"snapshot.{op}_mb_per_s"] = _ratio(
            total(f"snapshot.{op}", "bytes") / 1e6,
            total(f"snapshot.{op}") / 1e9)
    m["shard.frame_codec_ns"] = _ratio(total("shard.frame_codec"),
                                       total("shard.frame_codec", "calls"))

    # Host time per simulated access: the real run's System::run spans
    # less the decode timer's clock reads, or for the fleet the seconds
    # its workers spent in jobs.
    if fleet is None:
        host_ns = _ratio(sum(_dur(s) for s in runs)
                         - decode_calls * clock_read_ns, accesses)
        m["shard.overhead_s"] = 0.0
        m["shard.imbalance"] = 0.0
    else:
        host_ns = _ratio(sum(fleet["job_seconds"].values()) * 1e9,
                         fleet["accesses"])
        per_shard = {}
        for label, seconds in fleet["job_seconds"].items():
            shard = fleet["shard_of"][label]
            per_shard[shard] = per_shard.get(shard, 0.0) + seconds
        busiest = max(per_shard.values()) if per_shard else 0.0
        m["shard.overhead_s"] = fleet["wall_s"] - busiest
        m["shard.imbalance"] = _ratio(
            busiest, statistics.mean(per_shard.values())) if per_shard else 0.0

    # Per-access cost of each layer and the remainder no layer covers
    # (CpuCore and the kernel loop). Submit time includes the DRAM
    # requests it issues.
    per_access = {
        "trace.decode": m["trace.decode_ns"] * _ratio(decode_records, accesses),
        "vm.translate": _ratio(total("vm.translate"), translate_calls),
        "cache.access": _ratio(total("cache.access"), llc_calls),
        "orgs.submit": _ratio(total("orgs.submit"), translate_calls),
        "orgs.functional": _ratio(functional_ns_total, accesses),
    }
    m["system.unattributed_ns"] = host_ns - sum(per_access.values())

    # Nested costs, listed apart: DRAM requests run inside submits, and
    # the kernel loop is part of the unattributed remainder.
    dram_cmds = sum(s["args"]["dram_cmds"] for s in runs)
    per_access["dram.request (in orgs.submit)"] = (
        max(m["dram.request_ns.queued"], m["dram.request_ns.blocking"])
        * _ratio(dram_cmds, accesses))
    # Under Queued timing every demand fill (L3 miss) completes through
    # one event.
    events = (sum(s["args"]["l3_misses"] for s in runs)
              if m["sim.event_ns"] else 0)
    per_access["sim (in system.unattributed)"] = (
        m["sim.steps_per_access"] * m["sim.step_ns"]
        + m["sim.event_ns"] * _ratio(events, accesses))
    per_access["system.unattributed"] = m["system.unattributed_ns"]
    shares = {k: _ratio(v, host_ns) for k, v in per_access.items()}
    # Off-path layers: share of all host time (fleet wall, or the
    # real run) the snapshot round trips and shard overhead take.
    base_s = fleet["wall_s"] if fleet else sum(_dur(s) for s in runs) / 1e9
    shares["snapshot"] = _ratio(
        (total("snapshot.save") + total("snapshot.restore")) / 1e9, base_s)
    shares["shard"] = _ratio(max(m["shard.overhead_s"], 0.0), base_s)
    # Set-up: System construction splits into stream recording (its
    # child spans) and building the System itself (its self time).
    constructs = by_name.get("system.construct", [])
    setup_ns = sum(_dur(s) for s in constructs)
    build_ns = sum(selfs[s["id"]] for s in constructs)
    shares["setup: trace.record"] = _ratio(setup_ns - build_ns, setup_ns)
    shares["setup: system build"] = _ratio(build_ns, setup_ns)
    return m, shares, host_ns
