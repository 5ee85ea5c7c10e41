"""The fault-differential suite on the pickle pool.

``test_fault_differential`` proves recovery on the default transport,
shared-memory rings wherever the host has them.  The pickle pool is the
transport of hosts without ``/dev/shm`` and detects some faults
differently (a dead worker surfaces as a timeout), so every case runs
again here with the ``transport`` fixture pinned to it.
"""

import pytest

from tests.faults.test_fault_differential import (  # noqa: F401
    test_cli_fault_free_run_reports_no_faults,
    test_cli_fault_plan_differential_with_stats_json,
    test_hang_past_timeout_preserves_output,
    test_killed_worker_preserves_output,
    test_seeded_fault_plans_preserve_output,
    test_unpicklable_results_on_every_shard_preserve_output)


@pytest.fixture
def transport():
    return "pickle"
