#!/usr/bin/env python3
"""PeeK project-invariant analyzer (DESIGN.md §13). Three checks, each
enforcing a whole-program discipline the compiler alone cannot (or, with GCC,
does not) see:

  cancel   responsiveness: in the kernel subsystems (src/sssp, src/ksp,
           src/compact, src/core) every loop that invokes graph-sized work —
           an unbounded `for(;;)` / `while(true)`, or a body calling one of
           the HEAVY_CALLEES pipeline entry points — must stay cancellable:
           its body (or header) polls fault::CancelToken / fault::CancelPoll
           (`should_stop()`, `cancelled_fast()`, `triggered()`), forwards a
           `cancel` into the callee, or carries an explicit
           `// no-cancel: <reason>` waiver. A poll-free graph-scale loop is a
           deadline that cannot trip and a query that cannot be shed.
  status   error discipline: fault::Status is [[nodiscard]], which GCC/clang
           enforce for plain discards at compile time — but a `(void)` cast
           silences the compiler without a trace. This check flags every
           statement that drops a Status (bare call or `(void)` suppression
           of a known Status-returning function) unless the line carries a
           `// status-ignored: <reason>` waiver.
  locks    annotation coverage: every mutex member (check::Mutex, std::mutex,
           std::shared_mutex, std::recursive_mutex) of a class/struct in
           src/ must be named by at least one PEEK_GUARDED_BY /
           PEEK_PT_GUARDED_BY / PEEK_REQUIRES in the same class body, or
           carry a `// ts-allow: <reason>` waiver on its declaration or the
           comment block directly above it. An unreferenced mutex is either
           dead weight or — worse — a lock whose protected data the clang
           thread-safety analysis (src/check/thread_safety.hpp) cannot check.

Engine: uses libclang (clang.cindex) for AST-accurate scoping when the
module is importable, else a built-in tokenizer with brace-matched scope
tracking — same findings format, zero dependencies, runs anywhere CI or a
dev box has python3. `--engine` forces one.

Waiver grammar (all three checks): `<marker>: <reason>` where the reason is
non-empty and not a filler word; tools/peek_lint.py (check `waivers`)
audits every waiver in the tree for a substantive reason.

Exit status 0 = clean. Any finding prints `file:line: [check] message` and
exits 1; `--out findings.json` additionally writes machine-readable
findings (CI uploads this artifact on failure).

  tools/peek_analyze.py                 # all checks over src/
  tools/peek_analyze.py --only cancel   # one check
  tools/peek_analyze.py --out out.json  # also write JSON findings
"""

import argparse
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

# Subsystems whose loops must stay cancellable (the pipeline hot path —
# including the live-mutation repair loop, which runs graph-sized Dijkstra
# cones on the serving path).
CANCEL_DIRS = ("sssp", "ksp", "compact", "core", "dyn")

# Pipeline entry points that do graph-sized work per call. A loop whose body
# invokes one of these repeats whole-graph work and must poll. Extend this
# list when adding a new kernel entry point.
HEAVY_CALLEES = (
    "dijkstra",                # covers dijkstra / reverse_dijkstra
    "delta_stepping",          # covers reverse_delta_stepping
    "bellman_ford",
    "run",                     # the search core: DijkstraWorkspace::run
    "settle_next",             # ... and its one-vertex step
    "compute_sssp",
    "peek_ksp",
    "k_upper_bound_prune",
    "yen_ksp",
    "optyen_ksp",
    "regenerate",
    "edge_swap_compact",
)

# Evidence that a loop body can observe cancellation.
POLL_MARKERS = (
    "CancelPoll",
    "should_stop",
    "cancelled_fast",
    "triggered()",
    "cancel",  # forwarding a token (opts.cancel, po.cancel = cancel, ...)
)

MUTEX_TYPES = (
    "check::Mutex",
    "std::mutex",
    "std::shared_mutex",
    "std::recursive_mutex",
)

findings = []


def finding(path, line_no, check, msg):
    rel = os.path.relpath(path, REPO)
    findings.append({"file": rel, "line": line_no, "check": check,
                     "message": msg})


def iter_sources(dirs=None):
    roots = [os.path.join(SRC, d) for d in dirs] if dirs else [SRC]
    for root in roots:
        for dirpath, _, names in os.walk(root):
            for n in sorted(names):
                if n.endswith((".hpp", ".cpp", ".h", ".cc")):
                    yield os.path.join(dirpath, n)


# --------------------------------------------------------------- lexing

def strip_code(text):
    """Returns (code, comments): `code` is the source with comment and
    string/char contents blanked (newlines preserved, so offsets and line
    numbers survive); `comments` maps line number -> comment text on it."""
    code = []
    comments = {}
    i, n = 0, len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            code.append(c)
            line += 1
            i += 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            comments[line] = comments.get(line, "") + text[i:j]
            code.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = text[i:j + 2]
            comments[line] = comments.get(line, "") + chunk
            for ch in chunk:
                code.append("\n" if ch == "\n" else " ")
                if ch == "\n":
                    line += 1
            i = j + 2
        elif c in "\"'":
            quote = c
            code.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    code.append("  ")
                    i += 2
                else:
                    code.append("\n" if text[i] == "\n" else " ")
                    if text[i] == "\n":
                        line += 1
                    i += 1
            if i < n:
                code.append(quote)
                i += 1
        else:
            code.append(c)
            i += 1
    return "".join(code), comments


def line_of(code, offset):
    return code.count("\n", 0, offset) + 1


def match_brace(code, open_idx):
    """Index of the `}` closing the `{` at open_idx (len(code) if unclosed)."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(code)


def has_waiver(comments, line_no, marker, lookback=3):
    """True when `marker:` appears on the line or in the comment block
    directly above it (up to `lookback` lines of comments)."""
    if marker in comments.get(line_no, ""):
        return True
    for back in range(1, lookback + 1):
        prev = line_no - back
        if prev in comments and marker in comments[prev]:
            return True
        if prev not in comments:
            break
    return False


# --------------------------------------------------------------- cancel

LOOP_RE = re.compile(r"\b(for|while)\s*\(")


def loop_body_span(code, header_open):
    """(body_start, body_end) of the loop whose `(` is at header_open."""
    depth = 0
    i = header_open
    while i < len(code):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                break
        i += 1
    j = i + 1
    while j < len(code) and code[j] in " \t\n":
        j += 1
    if j < len(code) and code[j] == "{":
        return j, match_brace(code, j)
    end = code.find(";", j)
    return j, len(code) if end < 0 else end + 1


def check_cancel():
    heavy_re = re.compile(
        r"\b(" + "|".join(map(re.escape, HEAVY_CALLEES)) + r")\s*\(")
    for path in iter_sources(CANCEL_DIRS):
        text = open(path, encoding="utf-8").read()
        code, comments = strip_code(text)
        for m in LOOP_RE.finditer(code):
            header_open = code.index("(", m.end() - 1)
            body_start, body_end = loop_body_span(code, header_open)
            header = code[m.start():body_start]
            body = code[body_start:body_end]
            line_no = line_of(code, m.start())
            unbounded = re.search(r"for\s*\(\s*;\s*;\s*\)", header) or \
                re.search(r"while\s*\(\s*(true|1)\s*\)", header)
            heavy = heavy_re.search(body)
            if not unbounded and not heavy:
                continue
            region = header + body
            if any(p in region for p in POLL_MARKERS):
                continue
            if has_waiver(comments, line_no, "no-cancel"):
                continue
            what = ("unbounded loop" if unbounded
                    else f"loop invoking {heavy.group(1)}()")
            finding(path, line_no, "cancel",
                    f"{what} never polls cancellation — add a "
                    "fault::CancelPoll (or forward a CancelToken into the "
                    "callee), or waive with `// no-cancel: <reason>`")


# --------------------------------------------------------------- status

STATUS_FN_RE = re.compile(
    r"\bStatus\s+(?:[A-Za-z_]\w*::)*([a-z_]\w*)\s*\(")


def status_returning_functions():
    """Names of every function declared to return fault::Status in src/."""
    names = set()
    for path in iter_sources():
        code, _ = strip_code(open(path, encoding="utf-8").read())
        for m in STATUS_FN_RE.finditer(code):
            names.add(m.group(1))
    return names


def check_status():
    names = status_returning_functions()
    if not names:
        return
    call_re = re.compile(
        r"(?:[A-Za-z_]\w*(?:\.|->|::))*(" +
        "|".join(map(re.escape, sorted(names))) + r")\s*\(")
    for path in iter_sources():
        text = open(path, encoding="utf-8").read()
        code, comments = strip_code(text)
        # Statement-level scan: split on top-level semicolons is overkill;
        # line-anchored statements catch the discard shapes that occur in
        # practice (a dropped call is a full statement on its own line).
        # Continuation lines (the previous statement is still open) are not
        # statement starts — `const Status st =\n  write_file_atomic(...);`
        # is a consumed result, not a discard.
        prev = ""
        for line_no, line in enumerate(code.split("\n"), start=1):
            stripped = line.strip()
            continuation = prev != "" and not prev.endswith((";", "{", "}",
                                                             ":", ")"))
            if stripped:
                prev = stripped
            if continuation:
                continue
            m = call_re.match(stripped)
            bare = (m is not None and stripped.endswith(";")
                    and "=" not in stripped.split("(")[0])
            voided = re.match(r"\(void\)\s*", stripped) and \
                call_re.search(stripped)
            if not bare and not voided:
                continue
            # A declaration like `fault::Status decode_tree(...)...` or a
            # control-flow consumer is not a discard.
            if re.match(r"(fault::)?Status\b", stripped):
                continue
            if re.search(r"\b(return|if|while|for|switch|case|throw)\b",
                         stripped.split("(")[0]):
                continue
            if has_waiver(comments, line_no, "status-ignored", lookback=1):
                continue
            fn = (m or call_re.search(stripped)).group(1)
            how = "(void)-suppresses" if voided else "drops"
            finding(path, line_no, "status",
                    f"statement {how} the fault::Status returned by {fn}() "
                    "— handle it, or waive with "
                    "`// status-ignored: <reason>`")


# ---------------------------------------------------------------- locks

CLASS_RE = re.compile(r"\b(class|struct)\s+(?:PEEK_\w+(?:\([^)]*\))?\s+)*"
                      r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^;{]*)?\{")
MUTEX_DECL_RE = re.compile(
    r"\b(?:mutable\s+)?(" + "|".join(map(re.escape, MUTEX_TYPES)) +
    r")\s+([A-Za-z_]\w*)\s*(?:;|\{)")


def check_locks():
    for path in iter_sources():
        text = open(path, encoding="utf-8").read()
        code, comments = strip_code(text)
        for cm in CLASS_RE.finditer(code):
            open_idx = code.index("{", cm.end() - 1)
            close_idx = match_brace(code, open_idx)
            body = code[open_idx:close_idx]
            guards = set(re.findall(
                r"PEEK_(?:PT_)?GUARDED_BY\(\s*([A-Za-z_]\w*)", body))
            guards |= set(re.findall(
                r"PEEK_REQUIRES(?:_SHARED)?\(\s*(?:[A-Za-z_]\w*\.)*"
                r"([A-Za-z_]\w*)", body))
            for dm in MUTEX_DECL_RE.finditer(body):
                mutex_type, name = dm.group(1), dm.group(2)
                line_no = line_of(code, open_idx + dm.start())
                # std::vector<std::mutex> etc. don't match (the declared
                # type must be the mutex itself) — a per-index lock array
                # needs its own ts-allow anyway, via the raw-type scan below.
                if name in guards:
                    if mutex_type != "check::Mutex" and \
                            not has_waiver(comments, line_no, "ts-allow"):
                        finding(path, line_no, "locks",
                                f"{cm.group(2)}::{name} is PEEK_GUARDED_BY-"
                                f"paired but typed {mutex_type} — use "
                                "check::Mutex so the clang thread-safety "
                                "analysis sees its acquire/release edges, "
                                "or waive with `// ts-allow: <reason>`")
                    continue
                if has_waiver(comments, line_no, "ts-allow"):
                    continue
                finding(path, line_no, "locks",
                        f"mutex member {cm.group(2)}::{name} is never named "
                        "in a PEEK_GUARDED_BY / PEEK_PT_GUARDED_BY / "
                        "PEEK_REQUIRES in its class — annotate what it "
                        "guards, or waive with `// ts-allow: <reason>`")
            # Containers of locks (per-index disciplines) always need a
            # waiver: the relation is inexpressible to the analysis.
            for vm in re.finditer(
                    r"\b(?:std::vector|std::array)\s*<\s*(?:" +
                    "|".join(map(re.escape, MUTEX_TYPES)) +
                    r")\b[^;>]*>\s+([A-Za-z_]\w*)", body):
                line_no = line_of(code, open_idx + vm.start())
                if not has_waiver(comments, line_no, "ts-allow"):
                    finding(path, line_no, "locks",
                            f"lock container {cm.group(2)}::{vm.group(1)} "
                            "cannot be expressed to the thread-safety "
                            "analysis — document the per-index discipline "
                            "with `// ts-allow: <reason>`")


# ----------------------------------------------------------- libclang

def libclang_available():
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


def libclang_parse_gate():
    """AST front end of the libclang engine: parse every source and surface
    real syntax errors before the scope-based checks run. The checks
    themselves are shared with the builtin engine — their subjects (waiver
    comments, annotation macros on non-clang builds) are textual artifacts
    the AST erases, so a token-level scan is the canonical semantics and the
    AST pass contributes parse validation, not separate findings."""
    import clang.cindex as ci
    index = ci.Index.create()
    args = ["-std=c++20", "-I", SRC, "-x", "c++", "-fsyntax-only"]
    for path in iter_sources():
        try:
            tu = index.parse(path, args=args)
        except ci.TranslationUnitLoadError:
            finding(path, 1, "parse", "libclang failed to load this file")
            continue
        for d in tu.diagnostics:
            if d.severity >= ci.Diagnostic.Fatal and \
                    "file not found" not in d.spelling:
                finding(path, d.location.line, "parse", d.spelling)


CHECKS = {
    "cancel": check_cancel,
    "status": check_status,
    "locks": check_locks,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--skip", action="append", default=[],
                    choices=sorted(CHECKS), help="skip a check (repeatable)")
    ap.add_argument("--only", action="append", default=[],
                    choices=sorted(CHECKS), help="run only these checks")
    ap.add_argument("--engine", choices=["auto", "builtin", "libclang"],
                    default="auto",
                    help="AST backend (auto: libclang when importable)")
    ap.add_argument("--root", default=None,
                    help="analyze this tree instead of the repo's src/ "
                    "(fixture tests)")
    ap.add_argument("--out", default=None,
                    help="also write findings as JSON to this path")
    args = ap.parse_args()

    global SRC
    if args.root:
        SRC = os.path.abspath(args.root)

    engine = args.engine
    if engine == "auto":
        engine = "libclang" if libclang_available() else "builtin"
    if engine == "libclang" and not libclang_available():
        print("peek_analyze: libclang requested but clang.cindex is not "
              "importable", file=sys.stderr)
        return 2

    selected = args.only or [c for c in CHECKS if c not in args.skip]
    if engine == "libclang":
        libclang_parse_gate()
    for name in selected:
        CHECKS[name]()

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"engine": engine, "checks": selected,
                       "findings": findings}, f, indent=2)
            f.write("\n")

    for f in findings:
        print(f"{f['file']}:{f['line']}: [{f['check']}] {f['message']}")
    if findings:
        print(f"peek_analyze: {len(findings)} finding(s) in checks: "
              f"{', '.join(selected)} (engine: {engine})", file=sys.stderr)
        return 1
    print(f"peek_analyze: clean ({', '.join(selected)}; engine: {engine})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
