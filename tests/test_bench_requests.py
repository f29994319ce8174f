"""The benchmark's requests (bench/workloads.py) stay well-formed.

Every argv the workloads send parses to a namespace: none ends at the
parse in a usage error (exit 1) or in help.  A CLI change that turns bench
requests into usage errors, for instance by removing a flag the workloads
still send, fails here, in tier-1, rather than at the benchmark's
correctness gate."""

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
    assert [request["argv"] for request in requests if not _parses(request["argv"])] == []


def _parses(argv) -> bool:
    try:
        cli._parse(argv)
    except cli._Exit:
        return False
    return True
