"""The benchmark's requests (bench/workloads.py) stay well-formed.

Every argv the workloads send must be one that the flag table's fast parse
reads.  A CLI change that turns bench requests into usage errors (exit 1),
for instance by removing a flag the workloads still send, fails here, in
tier-1, rather than at the benchmark's correctness gate."""

import importlib.util
import pathlib

import pytest

from etherdrift import cli

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

_spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_bench_request_is_read_by_the_fast_parse(workload):
    # the pass index rotates cli_cold's invalid kinds; tiny keeps the passes small
    requests = [workloads.warmup_request(workload)]
    for index in range(workloads.INVALID_KINDS):
        requests += workloads.make_pass(workload, 1, index, tiny=True)
    assert [request["argv"] for request in requests
            if cli._fast_parse(request["argv"]) is None] == []
