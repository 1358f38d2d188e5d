#!/usr/bin/env python3
"""Unit tests for tools/peek_analyze.py: the seeded violations in
tests/analyze_fixtures/ must each be caught, the compliant variants must
not, and the real src/ tree must be clean (the CI gate)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
ANALYZE = os.path.join(REPO, "tools", "peek_analyze.py")
FIXTURES = os.path.join(HERE, "analyze_fixtures")


def run_analyze(*args):
    proc = subprocess.run(
        [sys.executable, ANALYZE, "--engine", "builtin", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


class FixtureFindings(unittest.TestCase):
    """One analyzer run over the fixture tree, shared by every assertion."""

    @classmethod
    def setUpClass(cls):
        fd, cls.out_path = tempfile.mkstemp(suffix=".json")
        os.close(fd)
        cls.rc, cls.text = run_analyze("--root", FIXTURES,
                                       "--out", cls.out_path)
        with open(cls.out_path, encoding="utf-8") as f:
            cls.report = json.load(f)
        cls.findings = cls.report["findings"]

    @classmethod
    def tearDownClass(cls):
        os.unlink(cls.out_path)

    def lines(self, check, filename):
        return [f["line"] for f in self.findings
                if f["check"] == check and f["file"].endswith(filename)]

    def fixture_line(self, filename, needle):
        path = os.path.join(FIXTURES, filename)
        with open(path, encoding="utf-8") as f:
            for no, line in enumerate(f, start=1):
                if needle in line:
                    return no
        raise AssertionError(f"{needle!r} not found in {filename}")

    def test_exit_nonzero_on_findings(self):
        self.assertEqual(self.rc, 1, self.text)

    def test_out_json_shape(self):
        self.assertEqual(self.report["engine"], "builtin")
        self.assertIn("cancel", self.report["checks"])
        for f in self.findings:
            self.assertIn("file", f)
            self.assertIn("line", f)
            self.assertIn("check", f)
            self.assertIn("message", f)

    # ---- cancel ----

    def test_unbounded_poll_free_loop_caught(self):
        line = self.fixture_line("core/bad_loops.cpp", "for (;;) {")
        self.assertIn(line, self.lines("cancel", "bad_loops.cpp"))

    def test_heavy_callee_loop_caught(self):
        want = self.fixture_line(
            "core/bad_loops.cpp",
            "for (peek::vid_t v = 0; v < g.num_vertices(); ++v) {")
        self.assertIn(want, self.lines("cancel", "bad_loops.cpp"))

    def test_polled_and_waived_loops_clean(self):
        got = self.lines("cancel", "bad_loops.cpp")
        self.assertEqual(len(got), 2, f"unexpected cancel findings: {got}")

    def test_search_core_loops_caught(self):
        got = self.lines("cancel", "bad_core_loops.cpp")
        needles = (
            "for (peek::vid_t s = 0; s < view.num_vertices(); ++s) {",
            "while (ws.next_key() < budget) {")
        for needle in needles:
            line = self.fixture_line("sssp/bad_core_loops.cpp", needle)
            self.assertIn(line, got)
        self.assertEqual(len(got), 2, f"unexpected cancel findings: {got}")

    # ---- status ----

    def test_bare_discard_caught(self):
        got = self.lines("status", "bad_status.cpp")
        bare = self.fixture_line("fault/bad_status.cpp",
                                 "  flaky_write(fd);")
        self.assertIn(bare, got)

    def test_void_suppression_caught(self):
        got = self.lines("status", "bad_status.cpp")
        voided = self.fixture_line("fault/bad_status.cpp",
                                   "  (void)flaky_write(fd);")
        self.assertIn(voided, got)

    def test_consumed_and_waived_status_clean(self):
        got = self.lines("status", "bad_status.cpp")
        self.assertEqual(len(got), 2, f"unexpected status findings: {got}")

    # ---- locks ----

    def test_orphan_mutex_caught(self):
        want = self.fixture_line("serve/bad_locks.hpp", "class Orphan {")
        got = self.lines("locks", "bad_locks.hpp")
        self.assertTrue(any(l > want for l in got),
                        f"no locks finding inside Orphan: {got}")

    def test_lock_findings_exactly_the_seeded_three(self):
        got = self.lines("locks", "bad_locks.hpp")
        self.assertEqual(len(got), 3, f"lock findings: {got}")
        msgs = [f["message"] for f in self.findings
                if f["check"] == "locks"]
        self.assertTrue(any("Orphan" in m for m in msgs), msgs)
        self.assertTrue(any("RawGuarded" in m for m in msgs), msgs)
        self.assertTrue(any("Striped" in m for m in msgs), msgs)
        self.assertFalse(any("StripedWaived" in m for m in msgs), msgs)
        self.assertFalse(any("Annotated" in m for m in msgs), msgs)
        self.assertFalse(any("Waived::" in m for m in msgs), msgs)


class RealTreeClean(unittest.TestCase):
    def test_src_is_clean(self):
        rc, text = run_analyze()
        self.assertEqual(rc, 0, text)


class CheckSelection(unittest.TestCase):
    def test_only_runs_one_check(self):
        rc, text = run_analyze("--root", FIXTURES, "--only", "locks")
        self.assertEqual(rc, 1)
        self.assertIn("[locks]", text)
        self.assertNotIn("[cancel]", text)
        self.assertNotIn("[status]", text)


if __name__ == "__main__":
    unittest.main()
