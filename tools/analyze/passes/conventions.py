"""Repo-convention pass: seven rules no compiler enforces, on the
shared lexer so one tool owns repo conventions.

  conventions/include-guard     CAMEO_<DIR>_<FILE>_HH guards
  conventions/file-doc          Doxygen @file comment in src headers
  conventions/nondeterminism    direct rand()/time()/clock()/
                                random_device/<chrono> wall-clock use
                                (the determinism pass adds the
                                transitive version)
  conventions/hygiene           tabs, trailing whitespace, final newline
  conventions/hot-path-container  std hash containers in src/vm,
                                src/orgs (use util/flat_map.hh)
  conventions/dram-pipeline     direct DramModule::access in pipeline
                                layers (use DramModule::request)
  conventions/generator-use     direct SyntheticGenerator outside
                                src/trace and tests (use
                                TraceArenaCache)
"""

from __future__ import annotations

import re
from pathlib import Path

from ..model import Finding, Repo, SourceFile

NAME = "conventions"
RULES = [
    "conventions/include-guard",
    "conventions/file-doc",
    "conventions/nondeterminism",
    "conventions/hygiene",
    "conventions/hot-path-container",
    "conventions/dram-pipeline",
    "conventions/generator-use",
]

# Files allowed to reach for entropy: the deterministic RNG wrappers,
# plus the sweep engine's host-side stopwatch (wall-clock telemetry for
# throughput reporting; its readings never feed simulation state).
NONDETERMINISM_EXEMPT = {
    "src/util/rng.hh",
    "src/util/rng.cc",
    "src/exp/stopwatch.hh",
    "src/exp/stopwatch.cc",
}

# (human name, regex) for banned nondeterminism sources.  Applied to
# comment- and string-stripped code, case-sensitively.
BANNED_PATTERNS = [
    ("rand()", re.compile(r"(?<![\w:])s?rand\s*\(")),
    ("time()/clock()", re.compile(r"(?<![\w:.>])(?:time|clock)\s*\(")),
    ("std::random_device", re.compile(r"std\s*::\s*random_device")),
    (
        "<chrono> wall clock",
        re.compile(
            r"std\s*::\s*chrono\s*::\s*"
            r"(?:system_clock|steady_clock|high_resolution_clock)"
        ),
    ),
]

# Directories whose per-access data structures must use util/flat_map.hh
# rather than the node-allocating std hash containers.
HOT_PATH_DIRS = ("src/vm", "src/orgs")

# Hot-path files allowed to keep std hash containers (cold-path setup
# code only).  Currently empty; add "src/vm/foo.cc" style paths here.
HASH_MAP_ALLOWLIST: set[str] = set()

HASH_MAP_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s*<(unordered_map|unordered_set)>"
)

# Layers that must reach DRAM devices through DramModule::request (the
# transaction pipeline's entry point) rather than the blocking
# DramModule::access shim.
DRAM_PIPELINE_DIRS = ("src/orgs", "src/core", "src/system")

# Pipeline-layer files allowed to call DramModule::access directly
# (none today; the blocking shim lives in src/dram and is out of
# scope).  Add "src/orgs/foo.cc" style paths here.
DRAM_ACCESS_ALLOWLIST: set[str] = set()

# DRAM modules are uniformly named stacked_/offchip_ or reached via the
# stackedModule()/offchipModule() accessors; match .access( on any of
# those spellings.
DRAM_ACCESS_RE = re.compile(
    r"(?:(?:stacked_|offchip_)\s*\.|stackedModule\(\)\s*->"
    r"|offchipModule\(\)\s*\.)\s*access\s*\("
)

# Layers that must obtain access streams from the trace-arena cache
# (record once, replay everywhere) instead of constructing generators:
# the arena is the one stream path, so a generator fallback in System
# or a tool fails the gate.
GENERATOR_BAN_DIRS = (
    "src/exp",
    "src/system",
    "src/shard",
    "bench",
    "tools",
    "examples",
)

# Files allowed to construct SyntheticGenerator directly: benches whose
# whole point is measuring the raw generator against arena replay, and
# trace_tools, which writes a generator's stream to a file.
GENERATOR_ALLOWLIST = {
    "bench/micro_components.cc",
    "bench/perf_arena.cc",
    "examples/trace_tools.cpp",
}

GENERATOR_RE = re.compile(r"\bSyntheticGenerator\b")


def expected_guard(rel: str) -> str:
    """CAMEO_<DIR>_<FILE>_HH for a path like src/dir/file.hh."""
    parts = Path(rel).parts[1:-1] + (Path(rel).stem,)
    mangled = "_".join(re.sub(r"[^A-Za-z0-9]", "_", p) for p in parts)
    return f"CAMEO_{mangled.upper()}_HH"


def _check_include_guard(sf: SourceFile, findings: list[Finding]) -> None:
    guard = expected_guard(sf.rel)
    ifndef = next(
        (d for d in sf.lexed.directives if d.name == "ifndef"), None
    )
    if ifndef is None:
        findings.append(
            Finding(
                "conventions/include-guard",
                sf.rel,
                1,
                f"missing include guard (#ifndef {guard})",
            )
        )
        return
    actual = ifndef.rest.split()[0] if ifndef.rest else ""
    if actual != guard:
        findings.append(
            Finding(
                "conventions/include-guard",
                sf.rel,
                ifndef.line,
                f"include guard '{actual}' should be '{guard}'",
            )
        )
        return
    if not any(
        d.name == "define" and d.rest.split()[0:1] == [guard]
        for d in sf.lexed.directives
    ):
        findings.append(
            Finding(
                "conventions/include-guard",
                sf.rel,
                ifndef.line,
                f"missing '#define {guard}'",
            )
        )
    if not re.search(rf"#\s*endif\s*//\s*{re.escape(guard)}\s*$", sf.text):
        findings.append(
            Finding(
                "conventions/include-guard",
                sf.rel,
                len(sf.lines),
                f"missing trailing '#endif // {guard}'",
            )
        )


def _check_file_doc(sf: SourceFile, findings: list[Finding]) -> None:
    head = "\n".join(sf.lines[:10])
    if "@file" not in head:
        findings.append(
            Finding(
                "conventions/file-doc",
                sf.rel,
                1,
                "missing Doxygen '@file' comment at top of header",
            )
        )


def _check_nondeterminism(sf: SourceFile, findings: list[Finding]) -> None:
    if sf.rel in NONDETERMINISM_EXEMPT:
        return
    for lineno, line in enumerate(sf.lexed.stripped.splitlines(), 1):
        for name, pattern in BANNED_PATTERNS:
            if pattern.search(line):
                findings.append(
                    Finding(
                        "conventions/nondeterminism",
                        sf.rel,
                        lineno,
                        f"banned nondeterminism source {name}; use "
                        f"util/rng (seeded, reproducible)",
                    )
                )


def _check_hot_path_containers(
    sf: SourceFile, findings: list[Finding]
) -> None:
    if not sf.rel.startswith(tuple(d + "/" for d in HOT_PATH_DIRS)):
        return
    if sf.rel in HASH_MAP_ALLOWLIST:
        return
    for lineno, line in enumerate(sf.lines, 1):
        m = HASH_MAP_INCLUDE_RE.match(line)
        if m:
            findings.append(
                Finding(
                    "conventions/hot-path-container",
                    sf.rel,
                    lineno,
                    f"<{m.group(1)}> in hot-path directory; use "
                    f"util/flat_map.hh (or add to HASH_MAP_ALLOWLIST "
                    f"for cold-path code)",
                )
            )


def _check_dram_pipeline(sf: SourceFile, findings: list[Finding]) -> None:
    if not sf.rel.startswith(tuple(d + "/" for d in DRAM_PIPELINE_DIRS)):
        return
    if sf.rel in DRAM_ACCESS_ALLOWLIST:
        return
    for lineno, line in enumerate(sf.lexed.stripped.splitlines(), 1):
        if DRAM_ACCESS_RE.search(line):
            findings.append(
                Finding(
                    "conventions/dram-pipeline",
                    sf.rel,
                    lineno,
                    "direct DramModule::access call in pipeline layer; "
                    "use DramModule::request (or add to "
                    "DRAM_ACCESS_ALLOWLIST)",
                )
            )


def _check_generator_use(sf: SourceFile, findings: list[Finding]) -> None:
    if not sf.rel.startswith(tuple(d + "/" for d in GENERATOR_BAN_DIRS)):
        return
    if sf.rel in GENERATOR_ALLOWLIST:
        return
    for lineno, line in enumerate(sf.lexed.stripped.splitlines(), 1):
        if GENERATOR_RE.search(line):
            findings.append(
                Finding(
                    "conventions/generator-use",
                    sf.rel,
                    lineno,
                    "direct SyntheticGenerator use in sweep/bench code; "
                    "get streams from "
                    "TraceArenaCache::instance().source() (or add to "
                    "GENERATOR_ALLOWLIST)",
                )
            )


def _check_hygiene(sf: SourceFile, findings: list[Finding]) -> None:
    for lineno, line in enumerate(sf.lines, 1):
        if "\t" in line:
            findings.append(
                Finding(
                    "conventions/hygiene",
                    sf.rel,
                    lineno,
                    "tab character (use spaces)",
                )
            )
        if line != line.rstrip():
            findings.append(
                Finding(
                    "conventions/hygiene",
                    sf.rel,
                    lineno,
                    "trailing whitespace",
                )
            )
    if sf.text and not sf.text.endswith("\n"):
        findings.append(
            Finding(
                "conventions/hygiene",
                sf.rel,
                len(sf.lines),
                "missing newline at end of file",
            )
        )
    if sf.text.endswith("\n\n"):
        findings.append(
            Finding(
                "conventions/hygiene",
                sf.rel,
                len(sf.lines),
                "multiple blank lines at end of file",
            )
        )


def run(repo: Repo) -> list[Finding]:
    findings: list[Finding] = []
    for sf in repo.files:
        if sf.rel.startswith("src/") and sf.rel.endswith(".hh"):
            _check_include_guard(sf, findings)
            _check_file_doc(sf, findings)
        _check_nondeterminism(sf, findings)
        _check_hot_path_containers(sf, findings)
        _check_dram_pipeline(sf, findings)
        _check_generator_use(sf, findings)
        _check_hygiene(sf, findings)
    return findings
