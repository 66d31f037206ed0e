"""Self-tests of the speed scaling in speed.py.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc

import pytest

import speed


def test_a_machine_twice_as_slow_reads_the_same():
    fast = speed.scale_series([0.010, 0.020, 0.030], [speed.REF_S] * 3)
    slow = speed.scale_series([0.020, 0.040, 0.060], [2 * speed.REF_S] * 3)
    assert fast == pytest.approx([0.010, 0.020, 0.030])
    assert slow == pytest.approx(fast)


def test_each_sample_uses_the_probes_near_it():
    n = 4 * speed.HALF
    probes = [speed.REF_S] * (2 * speed.HALF) + [2 * speed.REF_S] * (2 * speed.HALF)
    scaled = speed.scale_series([0.010] * n, probes)
    assert scaled[0] == pytest.approx(0.010)
    assert scaled[-1] == pytest.approx(0.005)


def test_the_probe_takes_time_and_leaves_the_collector_on():
    assert speed.probe() > 0
    assert gc.isenabled()
