#!/usr/bin/env python3
"""Tests for tools/bench_compare.py.  Run: python3 tools/bench_compare_test.py"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402

META = ('{"kind": "meta", "bench": "cluster_scale", "load_factor": 0.800, '
        '"seed": 1, "cluster_jobs": 1, "jobs": 1, "nproc": 4, '
        '"compiler": "GNU 12.2.0", "build_type": "Release", '
        '"flags": "-O3 -DNDEBUG", "commit": "abc"}')
CELLS = [
    '{"kind": "cell", "socs": 1, "policy": "moca", "sla_rate": 0.310000, '
    '"sim_steps": 1425, "ok": true, "wall_s": 0.000000}',
    '{"kind": "cell", "socs": 4, "policy": "moca", "sla_rate": 0.500000, '
    '"sim_steps": 5310, "ok": false, "wall_s": 0.000000}',
    '{"kind": "total", "wall_s": 0.000000}',
]


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.base = self.write("base.json", [META] + CELLS)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, lines):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        return path

    def run_main(self, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = bench_compare.main([str(a) for a in args])
        return code, out.getvalue()

    def compare_edit(self, old, new, *flags, line=None):
        """Compare the baseline with a copy where `old` became `new`."""
        lines = [META] + CELLS
        index = line if line is not None else next(
            i for i, l in enumerate(lines) if old in l)
        self.assertIn(old, lines[index])
        lines[index] = lines[index].replace(old, new, 1)
        return self.run_main(self.base, self.write("new.json", lines),
                             *flags)

    def test_identical_files_pass(self):
        code, out = self.run_main(self.base, self.base)
        self.assertEqual(code, 0)
        self.assertIn("3 records", out)

    def test_changed_counter_fails(self):
        code, out = self.compare_edit('"sim_steps": 5310', '"sim_steps": 5311')
        self.assertEqual(code, 1)
        self.assertIn("sim_steps: 5310 vs 5311", out)
        self.assertIn("record 2 (cell/moca)", out)

    def test_one_changed_metric_digit_fails(self):
        code, _ = self.compare_edit("0.310000", "0.310001")
        self.assertEqual(code, 1)

    def test_reformatted_number_fails(self):
        code, _ = self.compare_edit("0.500000", "0.5")
        self.assertEqual(code, 1)

    def test_changed_bool_fails(self):
        code, _ = self.compare_edit('"ok": true', '"ok": false')
        self.assertEqual(code, 1)

    def test_missing_record_fails(self):
        code, out = self.run_main(
            self.base, self.write("new.json", [META] + CELLS[:2]))
        self.assertEqual(code, 1)
        self.assertIn("record 3 (total): only in", out)

    def test_extra_record_fails(self):
        code, _ = self.run_main(
            self.base, self.write("new.json", [META] + CELLS + [CELLS[0]]))
        self.assertEqual(code, 1)

    def test_renamed_field_fails(self):
        code, out = self.compare_edit('"sla_rate"', '"sla"')
        self.assertEqual(code, 1)
        self.assertIn("fields differ", out)

    def test_reordered_fields_fail(self):
        code, _ = self.compare_edit('"socs": 1, "policy": "moca"',
                                    '"policy": "moca", "socs": 1')
        self.assertEqual(code, 1)

    def test_changed_run_parameter_in_meta_fails(self):
        code, out = self.compare_edit('"seed": 1', '"seed": 2', line=0)
        self.assertEqual(code, 1)
        self.assertIn("meta: seed: 1 vs 2", out)

    def test_only_host_meta_fields_differ_passes(self):
        host = (META.replace('"cluster_jobs": 1', '"cluster_jobs": 4')
                .replace('"jobs": 1,', '"jobs": 8,')
                .replace('"nproc": 4', '"nproc": 64')
                .replace("GNU 12.2.0", "Clang 17.0.1")
                .replace('"Release"', '"Debug"')
                .replace("-O3 -DNDEBUG", "-g -fsanitize=thread")
                .replace('"abc"', '"def"'))
        self.assertNotEqual(host, META)
        code, _ = self.run_main(self.base,
                                self.write("new.json", [host] + CELLS))
        self.assertEqual(code, 0)

    def test_walls_fail_unless_masked(self):
        lines = [META] + [c.replace('"wall_s": 0.000000', '"wall_s": 1.25')
                          for c in CELLS]
        new = self.write("new.json", lines)
        self.assertEqual(self.run_main(self.base, new)[0], 1)
        code, out = self.run_main(self.base, new, "--mask-walls")
        self.assertEqual(code, 0)
        self.assertIn("walls masked", out)

    def test_mask_walls_still_checks_everything_else(self):
        code, _ = self.compare_edit('"sim_steps": 1425', '"sim_steps": 1426',
                                    "--mask-walls")
        self.assertEqual(code, 1)

    def test_only_selects_records_and_skips_meta(self):
        lines = [META.replace('"seed": 1', '"seed": 2')] + CELLS[:1]
        new = self.write("new.json", lines)
        code, _ = self.run_main(self.base, new, "--only", "socs=1")
        self.assertEqual(code, 0)
        code, _ = self.run_main(self.base, new, "--only", "kind=cell")
        self.assertEqual(code, 1)
        code, _ = self.run_main(self.base, new, "--only", "kind=cell",
                                "--only", "ok=true")
        self.assertEqual(code, 0)

    def test_only_selecting_nothing_fails(self):
        code, out = self.run_main(self.base, self.base, "--only", "socs=99")
        self.assertEqual(code, 1)
        self.assertIn("selects no record", out)

    def test_malformed_files_exit_2(self):
        nested = self.write("nested.json",
                            [META, '{"kind": "cell", "quantum": {"steps": 1}}'])
        self.assertEqual(self.run_main(self.base, nested)[0], 2)
        no_meta = self.write("no_meta.json", CELLS)
        self.assertEqual(self.run_main(self.base, no_meta)[0], 2)
        array = self.write("array.json", ['[', '{"a": 1}', ']'])
        self.assertEqual(self.run_main(self.base, array)[0], 2)

    def test_summary(self):
        code, out = self.run_main(self.base, "--summary")
        self.assertEqual(code, 0)
        self.assertIn("cluster_scale load_factor=0.800 seed=1: "
                      "2 cell, 1 total records", out)
        self.assertIn("total: wall_s=0.000000", out)
        self.assertNotIn("nproc", out)


if __name__ == "__main__":
    unittest.main()
