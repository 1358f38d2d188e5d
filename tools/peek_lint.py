#!/usr/bin/env python3
"""PeeK repo-specific lint. Eleven checks, all rooted in invariants generic
tools cannot know:

  metrics      every metric name the library emits (PEEK_COUNT_* /
               PEEK_GAUGE_SET / PEEK_TIMER_SCOPE hooks and direct registry
               calls) appears in the README "Observability" tables — and vice
               versa, so the documented contract never drifts from the code.
  atomics      in the hot-loop subsystems (src/sssp, src/parallel) every atomic
               access names an explicit std::memory_order; a deliberate
               sequentially-consistent access needs a `// seq_cst:` comment
               justifying why the fences are worth it.
  headers      every public header under src/ compiles standalone (catches
               missing includes that happen to work due to include order).
  asserts      no assert() in library code — PEEK_DCHECK (src/check/
               invariants.hpp) is the project macro: it reports expression,
               file:line and an optional reason, and compiles out under NDEBUG
               without odr-using its arguments.
  fault_sites  every PEEK_FAULT_{ALLOC,STALL,FIRE} probe site in src/ is
               listed in the DESIGN.md §9 site table (between the
               fault-site-table-begin/end markers) and vice versa, so the
               fault-injection surface stays documented.
  status_codes every fault::Status code in src/fault/status.hpp appears in
               the DESIGN.md status-code table (between the
               status-code-table-begin/end markers) and vice versa — the
               typed-error contract every layer reports through.
  bench_json   every BENCH_*.json at the repo root parses against the
               peek-bench-v1 schema (version, required sections, per-metric
               median_s/min_s/reps, optional paired p50_s/p99_s tail fields
               on storm rows, pr field matching the filename) and is
               listed in the README bench table (between the
               bench-table-begin/end markers) — and vice versa, so the
               committed perf trajectory the CI perf job gates on stays
               valid and documented.
  breaker_transitions
               every `shard.breaker.*` metric the library emits appears in
               the DESIGN.md §14 breaker transition table (between the
               breaker-transition-table-begin/end markers) and vice versa,
               so every circuit-breaker state machine edge stays observable
               and documented.
  staleness_contract
               every live-mutation metric and `dyn.*` fault site in src/
               appears in the DESIGN.md §15 staleness-contract table
               (between the staleness-contract-begin/end markers) and vice
               versa, so the bounded-staleness contract stays auditable.
  options      every `<Name>Options::<member>` written in README.md,
               DESIGN.md, ARCHITECTURE.md, EXPERIMENTS.md or a `//` comment
               under src/ names a member (field or nested type) declared in
               `struct <Name>Options` under src/ — a deleted or renamed knob
               must not live on in the docs.
  waivers      every analyzer waiver in src/ (`// no-cancel:`,
               `// status-ignored:`, `// ts-allow:` — the escape hatches
               tools/peek_analyze.py honors) cites a substantive,
               issue-style reason: several words of actual justification,
               not a bare marker or filler like "ok"/"todo". A waiver
               nobody can audit later is a suppressed finding, not a
               documented exception.

Exit status 0 = clean. Any finding prints `file:line: [check] message` and
exits 1. Run from anywhere; paths resolve relative to the repo root.

  tools/peek_lint.py             # all checks
  tools/peek_lint.py --skip headers   # e.g. when no compiler is available
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

findings = []


def finding(path, line_no, check, msg):
    rel = os.path.relpath(path, REPO)
    findings.append(f"{rel}:{line_no}: [{check}] {msg}")


def source_files(root, exts=(".hpp", ".cpp")):
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(exts):
                yield os.path.join(dirpath, name)


# --------------------------------------------------------------- metrics

# Hook macros and direct registry accessors, first string literal argument.
EMIT_RE = re.compile(
    r'(?:PEEK_COUNT_INC|PEEK_COUNT_ADD|PEEK_GAUGE_SET|PEEK_TIMER_SCOPE'
    r'|\bcounter|\bgauge|\btimer)\s*\(\s*"([^"]+)"'
)
# A backticked dotted name in a README table row: | `serve.cache.hits` | ...
# (metric names always contain a dot, which keeps other tables — bench
# binaries, CLI flags — out of scope).
DOC_RE = re.compile(r'^\|\s*`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`\s*\|')


def check_metrics():
    emitted = {}  # name -> (path, line_no) of first emission
    for path in source_files(SRC):
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                for m in EMIT_RE.finditer(line):
                    emitted.setdefault(m.group(1), (path, line_no))

    readme = os.path.join(REPO, "README.md")
    documented = {}
    with open(readme, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            m = DOC_RE.match(line.strip())
            if m:
                documented.setdefault(m.group(1), line_no)

    for name in sorted(set(emitted) - set(documented)):
        path, line_no = emitted[name]
        finding(path, line_no, "metrics",
                f"metric `{name}` is emitted here but missing from the "
                "README Observability tables")
    for name in sorted(set(documented) - set(emitted)):
        finding(readme, documented[name], "metrics",
                f"metric `{name}` is documented but nothing in src/ emits "
                "it — stale table row?")


# --------------------------------------------------------------- atomics

ATOMIC_SCOPE = (os.path.join(SRC, "sssp"), os.path.join(SRC, "parallel"))
ATOMIC_OP_RE = re.compile(
    r'\.\s*(store|load|exchange|fetch_add|fetch_sub|fetch_or|fetch_and'
    r'|compare_exchange_weak|compare_exchange_strong)\s*\('
)


def call_args(text, open_paren):
    """Text of the (...) argument list starting at text[open_paren]."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren:i + 1]
    return text[open_paren:]


def check_atomics():
    for root in ATOMIC_SCOPE:
        for path in source_files(root):
            with open(path, encoding="utf-8") as f:
                lines = f.readlines()
            text = "".join(lines)
            # Map character offsets to line numbers for reporting.
            offsets, pos = [], 0
            for line in lines:
                offsets.append(pos)
                pos += len(line)
            for m in ATOMIC_OP_RE.finditer(text):
                args = call_args(text, m.end() - 1)
                if "memory_order" in args:
                    continue
                line_no = next(
                    (i for i, off in enumerate(offsets) if off > m.start()),
                    len(lines)) or len(lines)
                here = lines[line_no - 1]
                prev = lines[line_no - 2] if line_no >= 2 else ""
                if "// seq_cst:" in here or "// seq_cst:" in prev:
                    continue
                finding(path, line_no, "atomics",
                        f"atomic .{m.group(1)}() defaults to seq_cst — name "
                        "a std::memory_order or justify with a "
                        "`// seq_cst: <reason>` comment")


# --------------------------------------------------------------- headers

def check_headers():
    cxx = os.environ.get("CXX", "c++")
    headers = sorted(source_files(SRC, exts=(".hpp",)))
    with tempfile.TemporaryDirectory() as tmp:
        for path in headers:
            rel = os.path.relpath(path, SRC)
            tu = os.path.join(tmp, "standalone.cpp")
            with open(tu, "w", encoding="utf-8") as f:
                f.write(f'#include "{rel}"\n')
            cmd = [cxx, "-std=c++20", "-fsyntax-only", "-I", SRC,
                   "-DPEEK_OBS_ENABLED=1", tu]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                first_error = next(
                    (ln for ln in proc.stderr.splitlines() if "error" in ln),
                    proc.stderr.strip().splitlines()[0]
                    if proc.stderr.strip() else "compiler failed")
                finding(path, 1, "headers",
                        f"does not compile standalone: {first_error}")


# --------------------------------------------------------------- asserts

ASSERT_RE = re.compile(r'(?<![_\w])assert\s*\(')


def check_asserts():
    for path in source_files(SRC):
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                code = line.split("//", 1)[0]
                if "static_assert" in code:
                    continue
                if ASSERT_RE.search(code):
                    finding(path, line_no, "asserts",
                            "assert() in library code — use PEEK_DCHECK / "
                            "PEEK_DCHECK_MSG from check/invariants.hpp")


# ----------------------------------------------------------- fault sites

# Probe macro with its mandatory string-literal site argument. The macro
# *definitions* in fault/injector.hpp pass the bare parameter `site`, so the
# literal requirement keeps them out of scope automatically.
PROBE_RE = re.compile(r'PEEK_FAULT_(?:ALLOC|STALL|FIRE)\s*\(\s*"([^"]+)"')
SITE_TABLE_BEGIN = "<!-- fault-site-table-begin -->"
SITE_TABLE_END = "<!-- fault-site-table-end -->"
SITE_ROW_RE = re.compile(r'^\|\s*`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`\s*\|')


def check_fault_sites():
    used = {}  # site -> (path, line_no) of first probe
    for path in source_files(SRC):
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                for m in PROBE_RE.finditer(line):
                    used.setdefault(m.group(1), (path, line_no))

    design = os.path.join(REPO, "DESIGN.md")
    documented = {}
    in_table = False
    with open(design, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if SITE_TABLE_BEGIN in line:
                in_table = True
                continue
            if SITE_TABLE_END in line:
                in_table = False
                continue
            if in_table:
                m = SITE_ROW_RE.match(line.strip())
                if m:
                    documented.setdefault(m.group(1), line_no)

    for name in sorted(set(used) - set(documented)):
        path, line_no = used[name]
        finding(path, line_no, "fault_sites",
                f"fault-injection site `{name}` is probed here but missing "
                "from the DESIGN.md §9 site table")
    for name in sorted(set(documented) - set(used)):
        finding(design, documented[name], "fault_sites",
                f"site `{name}` is documented but no PEEK_FAULT_* probe in "
                "src/ uses it — stale table row?")


# ----------------------------------------------------------- status codes

# Enumerators of fault::Status::Code in status.hpp: `kOk,` / `kOk = 0,` etc.
STATUS_ENUM_RE = re.compile(r'^\s*(k[A-Z]\w*)\s*(?:=\s*[^,]+)?,')
STATUS_TABLE_BEGIN = "<!-- status-code-table-begin -->"
STATUS_TABLE_END = "<!-- status-code-table-end -->"
STATUS_ROW_RE = re.compile(r'^\|\s*`(k[A-Z]\w*)`\s*\|')


def check_status_codes():
    status_hpp = os.path.join(SRC, "fault", "status.hpp")
    declared = {}  # code -> line_no
    in_enum = False
    with open(status_hpp, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if re.search(r'\benum\s+Code\b', line):
                in_enum = True
                continue
            if in_enum and "}" in line:
                in_enum = False
                continue
            if in_enum:
                m = STATUS_ENUM_RE.match(line)
                if m:
                    declared.setdefault(m.group(1), line_no)

    design = os.path.join(REPO, "DESIGN.md")
    documented = {}
    in_table = False
    with open(design, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if STATUS_TABLE_BEGIN in line:
                in_table = True
                continue
            if STATUS_TABLE_END in line:
                in_table = False
                continue
            if in_table:
                m = STATUS_ROW_RE.match(line.strip())
                if m:
                    documented.setdefault(m.group(1), line_no)

    if not declared:
        finding(status_hpp, 1, "status_codes",
                "no `enum Code` enumerators found — lint parser out of date?")
    if not documented:
        finding(design, 1, "status_codes",
                "no status-code table found between the "
                "status-code-table-begin/end markers")
    for name in sorted(set(declared) - set(documented)):
        finding(status_hpp, declared[name], "status_codes",
                f"status code `{name}` is declared here but missing from the "
                "DESIGN.md status-code table")
    for name in sorted(set(documented) - set(declared)):
        finding(design, documented[name], "status_codes",
                f"status code `{name}` is documented but not declared in "
                "fault/status.hpp — stale table row?")


# ------------------------------------------------------------- bench json

BENCH_SCHEMA = "peek-bench-v1"
BENCH_FILE_RE = re.compile(r'^BENCH_(\d+)\.json$')
BENCH_TABLE_BEGIN = "<!-- bench-table-begin -->"
BENCH_TABLE_END = "<!-- bench-table-end -->"
BENCH_ROW_RE = re.compile(r'BENCH_(\d+)\.json')
BENCH_SECTIONS = ("schema", "schema_version", "pr", "build", "machine",
                  "config", "graphs", "metrics")


def check_bench_json():
    files = {}  # pr number -> filename
    for name in sorted(os.listdir(REPO)):
        m = BENCH_FILE_RE.match(name)
        if not m:
            continue
        pr = int(m.group(1))
        path = os.path.join(REPO, name)
        files[pr] = name
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            finding(path, 1, "bench_json", f"not valid JSON: {e}")
            continue
        missing = [k for k in BENCH_SECTIONS if k not in doc]
        if missing:
            finding(path, 1, "bench_json",
                    f"missing required section(s): {', '.join(missing)}")
            continue
        if doc["schema"] != BENCH_SCHEMA:
            finding(path, 1, "bench_json",
                    f"schema is {doc['schema']!r}, expected {BENCH_SCHEMA!r}")
        if not isinstance(doc["schema_version"], int):
            finding(path, 1, "bench_json",
                    f"schema_version must be an int, got "
                    f"{type(doc['schema_version']).__name__}")
        if doc["pr"] != pr:
            finding(path, 1, "bench_json",
                    f"pr field is {doc['pr']} but the filename says {pr} — "
                    "bench run committed under the wrong name?")
        for g in doc["graphs"]:
            for key in ("name", "vertices", "edges", "fingerprint"):
                if key not in g:
                    finding(path, 1, "bench_json",
                            f"graph entry {g.get('name', '?')!r} lacks "
                            f"`{key}`")
        for metric, st in doc["metrics"].items():
            for key in ("median_s", "min_s", "reps"):
                if not isinstance(st.get(key), (int, float)):
                    finding(path, 1, "bench_json",
                            f"metric `{metric}` lacks numeric `{key}`")
            # Optional tail-latency fields (sharded-serving storm rows):
            # when present they must be numeric, and they come in a pair —
            # bench_compare.py gates p99_s, so a lone p50_s would silently
            # escape the tail gate.
            for key in ("p50_s", "p99_s"):
                if key in st and not isinstance(st[key], (int, float)):
                    finding(path, 1, "bench_json",
                            f"metric `{metric}` has non-numeric `{key}`")
            if ("p50_s" in st) != ("p99_s" in st):
                finding(path, 1, "bench_json",
                        f"metric `{metric}` has only one of p50_s/p99_s — "
                        "storm rows carry both")

    readme = os.path.join(REPO, "README.md")
    documented = {}  # pr number -> line_no
    in_table = False
    with open(readme, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if BENCH_TABLE_BEGIN in line:
                in_table = True
                continue
            if BENCH_TABLE_END in line:
                in_table = False
                continue
            if in_table:
                for m in BENCH_ROW_RE.finditer(line):
                    documented.setdefault(int(m.group(1)), line_no)

    if files and not documented:
        finding(readme, 1, "bench_json",
                "no bench table found between the bench-table-begin/end "
                "markers — add one listing every committed BENCH_*.json")
    for pr in sorted(set(files) - set(documented)):
        finding(os.path.join(REPO, files[pr]), 1, "bench_json",
                f"{files[pr]} is committed but missing from the README bench "
                "table")
    for pr in sorted(set(documented) - set(files)):
        finding(readme, documented[pr], "bench_json",
                f"README bench table lists BENCH_{pr}.json but no such file "
                "is committed — stale row?")


# ----------------------------------------------------- breaker transitions

# DESIGN.md §14 names a metric for every circuit-breaker state transition.
# Cross-check the table against the `shard.breaker.*` names actually emitted
# in src/ (reusing EMIT_RE's literal-first-argument extraction), both
# directions: a transition without a metric is unobservable, a breaker
# metric outside the table is an undocumented state machine edge.
BREAKER_TABLE_BEGIN = "<!-- breaker-transition-table-begin -->"
BREAKER_TABLE_END = "<!-- breaker-transition-table-end -->"
BREAKER_ROW_RE = re.compile(r'`(shard\.breaker\.[a-z0-9_.]+)`')
BREAKER_PREFIX = "shard.breaker."


def check_breaker_transitions():
    emitted = {}  # metric -> (path, line_no) of first emission
    for path in source_files(SRC):
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                for m in EMIT_RE.finditer(line):
                    if m.group(1).startswith(BREAKER_PREFIX):
                        emitted.setdefault(m.group(1), (path, line_no))

    design = os.path.join(REPO, "DESIGN.md")
    documented = {}
    in_table = False
    with open(design, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if BREAKER_TABLE_BEGIN in line:
                in_table = True
                continue
            if BREAKER_TABLE_END in line:
                in_table = False
                continue
            if in_table:
                for m in BREAKER_ROW_RE.finditer(line):
                    documented.setdefault(m.group(1), line_no)

    if not documented:
        finding(design, 1, "breaker_transitions",
                "no breaker transition table found between the "
                "breaker-transition-table-begin/end markers (DESIGN.md §14)")
    for name in sorted(set(emitted) - set(documented)):
        path, line_no = emitted[name]
        finding(path, line_no, "breaker_transitions",
                f"breaker metric `{name}` is emitted here but missing from "
                "the DESIGN.md §14 transition table — undocumented state "
                "machine edge")
    for name in sorted(set(documented) - set(emitted)):
        finding(design, documented[name], "breaker_transitions",
                f"transition metric `{name}` is documented but nothing in "
                "src/ emits it — the state machine edge lost its metric?")


# ------------------------------------------------- staleness contract

# The live-mutation pipeline's observable surface (DESIGN.md §15): every
# metric in these families and every `dyn.*` fault site must appear in the
# §15 staleness-contract table, and every table row must exist in code —
# the bounded-staleness serving contract is only auditable if its telemetry
# stays documented.
STALE_TABLE_BEGIN = "<!-- staleness-contract-begin -->"
STALE_TABLE_END = "<!-- staleness-contract-end -->"
STALE_ROW_RE = re.compile(r'`([a-z0-9_.]+)`')
STALE_METRIC_PREFIXES = (
    "dyn.", "serve.stale", "serve.staleness.", "serve.epoch_",
    "serve.coalesce_retries", "serve.inflight_invalidations",
    "serve.cache.region_", "serve.cache.restamps", "serve.batches",
    "shard.batches", "shard.epoch_", "shard.stale_",
)
STALE_SITE_PREFIX = "dyn."


def check_staleness_contract():
    required = {}  # name -> (path, line_no) of first emission/probe
    for path in source_files(SRC):
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                for m in EMIT_RE.finditer(line):
                    if m.group(1).startswith(STALE_METRIC_PREFIXES):
                        required.setdefault(m.group(1), (path, line_no))
                for m in PROBE_RE.finditer(line):
                    if m.group(1).startswith(STALE_SITE_PREFIX):
                        required.setdefault(m.group(1), (path, line_no))

    design = os.path.join(REPO, "DESIGN.md")
    documented = {}
    in_table = False
    with open(design, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if STALE_TABLE_BEGIN in line:
                in_table = True
                continue
            if STALE_TABLE_END in line:
                in_table = False
                continue
            if in_table and line.strip().startswith("|"):
                m = STALE_ROW_RE.search(line)
                if m and m.group(1) not in ("name",):
                    documented.setdefault(m.group(1), line_no)

    if not documented:
        finding(design, 1, "staleness_contract",
                "no staleness-contract table found between the "
                "staleness-contract-begin/end markers (DESIGN.md §15)")
    for name in sorted(set(required) - set(documented)):
        path, line_no = required[name]
        finding(path, line_no, "staleness_contract",
                f"live-mutation metric/fault-site `{name}` is used here but "
                "missing from the DESIGN.md §15 staleness-contract table")
    for name in sorted(set(documented) - set(required)):
        finding(design, documented[name], "staleness_contract",
                f"`{name}` is documented in the §15 staleness contract but "
                "nothing in src/ emits or probes it — stale table row?")


# --------------------------------------------------------------- options

OPTIONS_REF_RE = re.compile(
    r'\b([A-Z][A-Za-z0-9_]*Options)::([A-Za-z_][A-Za-z0-9_]*)')
OPTIONS_STRUCT_RE = re.compile(
    r'\bstruct\s+([A-Z][A-Za-z0-9_]*Options)\s*(?::[^{;]*)?\{')
OPTIONS_DOCS = ("README.md", "DESIGN.md", "ARCHITECTURE.md", "EXPERIMENTS.md")


def strip_comments(text):
    text = re.sub(r'/\*.*?\*/', ' ', text, flags=re.S)
    return re.sub(r'//[^\n]*', '', text)


def struct_members(code, body_start):
    """Member names declared at the top level of the struct body that opens
    just before code[body_start]: fields and nested types."""
    depth, i, flat = 1, body_start, []
    while i < len(code) and depth > 0:
        c = code[i]
        if c == '{':
            depth += 1
            if depth == 2:
                flat.append('{}')  # nested body or brace initializer
        elif c == '}':
            depth -= 1
        elif depth == 1:
            flat.append(c)
        i += 1
    names = set()
    for stmt in ''.join(flat).split(';'):
        m = re.match(r'\s*(?:enum(?:\s+class)?|struct|using)\s+([A-Za-z_]\w*)',
                     stmt)
        if m:
            names.add(m.group(1))
            continue
        while re.search(r'<[^<>]*>', stmt):
            stmt = re.sub(r'<[^<>]*>', '', stmt)  # template arguments
        head = re.split(r'[={]', stmt, maxsplit=1)[0]
        if '(' in head:
            continue  # member function or constructor
        ids = re.findall(r'[A-Za-z_]\w*', head)
        if ids:
            names.add(ids[-1])
    return names


def check_options():
    declared = {}  # struct name -> member names
    for path in source_files(SRC):
        with open(path, encoding="utf-8") as f:
            code = strip_comments(f.read())
        for m in OPTIONS_STRUCT_RE.finditer(code):
            declared.setdefault(m.group(1), set()).update(
                struct_members(code, m.end()))

    def check_line(path, line_no, text):
        for m in OPTIONS_REF_RE.finditer(text):
            name, member = m.group(1), m.group(2)
            if name not in declared:
                finding(path, line_no, "options",
                        f"`{name}::{member}` names no `struct {name}` "
                        "declared under src/")
            elif member not in declared[name]:
                finding(path, line_no, "options",
                        f"`{name}::{member}`: `struct {name}` declares no "
                        f"`{member}` — deleted or renamed option?")

    for doc in OPTIONS_DOCS:
        path = os.path.join(REPO, doc)
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                check_line(path, line_no, line)
    for path in source_files(SRC):
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                pos = line.find("//")
                if pos >= 0:
                    check_line(path, line_no, line[pos:])


# --------------------------------------------------------------- waivers

# The escape hatches tools/peek_analyze.py honors. Anything after the colon
# is the reason the waiver's author owes the next reader.
WAIVER_RE = re.compile(r'//\s*(no-cancel|status-ignored|ts-allow):(.*)$')
# Reasons that explain nothing on their own.
WAIVER_FILLER = {"ok", "okay", "fine", "yes", "todo", "fixme", "temp",
                 "temporary", "later", "reasons", "legacy", "intentional",
                 "by design", "safe", "ignore", "wip"}


def check_waivers():
    for path in source_files(SRC):
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                m = WAIVER_RE.search(line)
                if not m:
                    continue
                marker, reason = m.group(1), m.group(2).strip()
                if reason.startswith("<"):
                    continue  # grammar documentation (`<reason>` placeholder)
                if line[:m.start()].count("`") % 2 == 1:
                    continue  # marker quoted inside a doc comment
                words = re.findall(r"[A-Za-z0-9_()\[\]./*-]+", reason)
                if (len(words) < 4 or len(reason) < 20
                        or reason.rstrip(".!").lower() in WAIVER_FILLER):
                    finding(path, line_no, "waivers",
                            f"`// {marker}:` waiver needs a substantive "
                            "issue-style reason (what makes the suppression "
                            f"sound), got {reason!r}")


CHECKS = {
    "metrics": check_metrics,
    "atomics": check_atomics,
    "headers": check_headers,
    "asserts": check_asserts,
    "fault_sites": check_fault_sites,
    "status_codes": check_status_codes,
    "bench_json": check_bench_json,
    "breaker_transitions": check_breaker_transitions,
    "staleness_contract": check_staleness_contract,
    "options": check_options,
    "waivers": check_waivers,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--skip", action="append", default=[],
                    choices=sorted(CHECKS), help="skip a check (repeatable)")
    ap.add_argument("--only", action="append", default=[],
                    choices=sorted(CHECKS), help="run only these checks")
    args = ap.parse_args()

    selected = args.only or [c for c in CHECKS if c not in args.skip]
    for name in selected:
        CHECKS[name]()

    for f in findings:
        print(f)
    if findings:
        print(f"peek_lint: {len(findings)} finding(s) in checks: "
              f"{', '.join(selected)}", file=sys.stderr)
        return 1
    print(f"peek_lint: clean ({', '.join(selected)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
