"""Tests of run.py's record handling: the comparability guard and medians.

    python3 perfbench/run.py selftest      (runs these and the C++ self-test)
"""

import unittest

import run


def record(nproc=4, build_type="Release", workload="fleet-scaleout", value=1.0):
    return {"workload": workload, "trace": 0,
            "stamp": {"nproc": nproc, "build_type": build_type, "workers": 4},
            "metrics": {"run_s": {"value": value, "unit": "s"}}}


class ComparableTest(unittest.TestCase):
    def test_same_host_and_build_compare(self):
        self.assertIsNone(run.comparable([record()], [record(value=2.0)]))

    def test_different_cpu_count_is_refused(self):
        reason = run.comparable([record(nproc=1)], [record(nproc=4)])
        self.assertIn("nproc=1", reason)
        self.assertIn("nproc=4", reason)

    def test_different_build_type_is_refused(self):
        self.assertIsNotNone(run.comparable([record()], [record(build_type="Debug")]))

    def test_mixed_records_within_one_side_are_refused(self):
        self.assertIsNotNone(run.comparable([record(), record(nproc=1)], [record()]))


class MediansTest(unittest.TestCase):
    def test_median_per_workload_and_metric(self):
        m = run.medians([record(value=v) for v in (3.0, 1.0, 2.0)] +
                        [record(workload="fleet-control", value=5.0)])
        self.assertEqual(m[("fleet-scaleout", 0, "run_s")], (2.0, "s"))
        self.assertEqual(m[("fleet-control", 0, "run_s")], (5.0, "s"))


if __name__ == "__main__":
    unittest.main()
