"""cameo-analyze: multi-pass whole-program static analyzer for the
CAMEO simulator.

One comment/string-aware lexer (``lexer.py``) feeds every pass; the
passes themselves live under ``passes/`` and are registered in
``passes/__init__.py``:

  layering       include-graph layering against tools/analyze/layers.json
                 (cycles, upward edges, cross-band edges, dead includes)
  stats-schema   stat names registered in code vs. golden-stats JSON
                 keys vs. names cited in the docs
  determinism    transitive include taint from entropy sources
                 (<chrono>, <random>, <ctime>) into simulation code
  audit-coverage mutation sites of audited structures (LLT, DRAM
                 queues, kernel clock) must sit near a CAMEO_AUDIT
  conventions    seven repo-convention rules (guards, @file docs,
                 direct nondeterminism, hygiene, hot-path containers,
                 DRAM pipeline entry, generator use)

Findings print as ``file:line: [rule] message`` and can be emitted as
SARIF 2.1.0 (``--sarif``).  A fingerprint-stable baseline
(``tools/analyze/baseline.json``, refreshed with ``--update-baseline``)
lets violations be adopted incrementally; the checked-in baseline is
empty and CI gates on keeping it that way.

Suppressing a finding in-file::

    // cameo-analyze: allow(<rule>): <justification>

on the offending line or the line directly above it.  ``<rule>`` may be
a pass name (``layering``) or a full rule id
(``layering/dead-include``).
"""

__version__ = "1.0.0"
