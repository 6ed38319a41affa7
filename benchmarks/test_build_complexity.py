"""Wall-clock complexity gate for the default-height ACE Tree build.

``create_sample_view`` and ``MaterializedSampleView.refresh`` build at the
default height, which grows with the relation, so a step that is
quadratic in the number of leaves shows up as a build whose time more than
doubles when the relation doubles.  This gate times the 1-D build at
2^15, 2^16 and 2^17 records and requires at most ``MAX_RATIO`` per
doubling.

The sizes are interleaved within each repetition, so a burst of load on
the machine hits all sizes alike, and the ratio is taken within a
repetition: the rate per doubling across the whole span,
``(t(2^17) / t(2^15)) ** 0.5``.  The gate reads the median of those
paired rates.  Times are the process's CPU time, which other processes'
load disturbs less than wall time.  Single steps are noisier: on a
2-vCPU VM the 2^16 -> 2^17 step of a linear build read 1.9-2.33x while
the span rate read 1.96-2.13x.  A linear build still grows a little
faster than 2x, because the height, and with it the leaf-locate work per
record, grows by one level per doubling.  The quadratic split lookup
this gate was written against measured 2.76-2.88x.

Run it on its own::

    PYTHONPATH=src python -m pytest benchmarks/test_build_complexity.py -q
"""

import statistics
import time

from repro.acetree import AceBuildParams, build_ace_tree
from repro.storage import CostModel, SimulatedDisk
from repro.workloads import generate_sale_1d

SIZES = (2**15, 2**16, 2**17)
REPEATS = 5
MAX_RATIO = 2.3


def _relation(num_records: int):
    disk = SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))
    return generate_sale_1d(disk, num_records, seed=1)


def test_default_height_build_scales_linearly():
    relations = {n: _relation(n) for n in SIZES}
    times = []
    for _ in range(REPEATS):
        row = []
        for n in SIZES:
            start = time.process_time()
            tree = build_ace_tree(
                relations[n], AceBuildParams(key_fields=("day",), seed=1)
            )
            row.append(time.process_time() - start)
            tree.free()
        times.append(row)
    doublings = len(SIZES) - 1
    rate = statistics.median(
        (row[-1] / row[0]) ** (1 / doublings) for row in times
    )
    print("build CPU seconds per repetition:",
          [[round(t, 3) for t in row] for row in times])
    print(f"median rate per doubling, {SIZES[0]}->{SIZES[-1]}: {rate:.2f}")
    assert rate <= MAX_RATIO, rate
