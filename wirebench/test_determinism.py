#!/usr/bin/env python3
"""Determinism test of the benchmark itself.

Two traced runs of each workload with the same seed must generate
byte-identical inputs (same `count inputs_hash`) and report identical
deterministic counts: columns, chunks, frames, plan builds, engine events,
eig calls, scan complex MACs and the OSPA score. A different seed must
generate different inputs.

    python3 wirebench/test_determinism.py
"""
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SECONDS = "2"


def counts(workload, seed):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", "1"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d exited %d:\n%s"
                             % (workload, seed, proc.returncode, proc.stdout))
    return [l for l in proc.stdout.splitlines() if l.startswith("count ")]


class Determinism(unittest.TestCase):
    def check(self, workload):
        first = counts(workload, 7)
        self.assertTrue(any(l.startswith("count inputs_hash") for l in first))
        self.assertTrue(any(l.startswith("count core.scan_cmacs") for l in first))
        self.assertEqual(first, counts(workload, 7))
        other = counts(workload, 8)
        self.assertNotEqual(first[0], other[0], "seed does not reach inputs")

    def test_live_wire(self):
        self.check("live_wire")

    def test_replay_fleet(self):
        self.check("replay_fleet")

    def test_archive_batch(self):
        self.check("archive_batch")


if __name__ == "__main__":
    unittest.main()
