"""Tests of the benchmark runner's own arithmetic and output.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import run


class QuartileTests(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = run.quartiles(values)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(q2, statistics.median(values))

    def test_quartiles_of_known_values(self):
        self.assertEqual(run.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), (2.75, 5.5, 8.25))
        self.assertEqual(run.quartiles([7.5]), (7.5, 7.5, 7.5))


class OutputTests(unittest.TestCase):
    def test_result_line_round_trips(self):
        metrics = {"updates_per_s": (0.1 + 0.2, "1/s"), "setup_s": (1e-7, "s")}
        line = run.format_result(True, 12, 0, metrics)
        self.assertNotIn("\n", line)
        parsed = run.last_json_line("# table\n" + line + "\n\n")
        self.assertEqual(set(parsed), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual((parsed["correct"], parsed["attempted"], parsed["failed"]), (True, 12, 0))
        for name, (value, unit) in metrics.items():
            # Every digit survives: the value reads back bit-identical.
            self.assertEqual(parsed["metrics"][name], {"value": value, "unit": unit})

    def test_last_json_line_rejects_empty_output(self):
        with self.assertRaises(ValueError):
            run.last_json_line("\n \n")


class SettingTests(unittest.TestCase):
    def test_one_cpu_is_left_to_the_event_loop(self):
        self.assertEqual(run.worker_count(2), 1)
        self.assertEqual(run.worker_count(8), 7)

    def test_fewer_than_two_cpus_is_refused(self):
        self.assertIsNone(run.worker_count(1))
        self.assertIsNone(run.worker_count(0))


if __name__ == "__main__":
    unittest.main()
