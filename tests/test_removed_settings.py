"""Pin the settings and the instrumentation keyword that were deleted.

Nothing outside the tests ever set them, so each became a module
constant (or, for ``kernel=``, is decided by ``kernel_cap`` alone).
Passing one now is a ``TypeError``, never a silently ignored option.
"""

import pytest

from repro.core.grouping import GroupStructure
from repro.core.incremental import GroupSlice, IncrementalValidator
from repro.net.client import AdmissionClient
from repro.net.server import WireServerConfig
from repro.service import ServiceConfig
from repro.validation.tree import ValidationTree
from repro.validation.tree_validator import TreeValidator
from repro.workloads.scenarios import example1

STRUCTURE = GroupStructure((frozenset({1, 2}),), 2)

REMOVED = {
    "latency_window": lambda: ServiceConfig(latency_window=65536),
    "match_cache_size": lambda: ServiceConfig(match_cache_size=4096),
    "timing_echo": lambda: WireServerConfig(timing_echo=True),
    "read_limit": lambda: WireServerConfig(read_limit=1 << 16),
    "backoff_base": lambda: AdmissionClient("127.0.0.1", 1, backoff_base=0.02),
    "GroupSlice-kernel": lambda: GroupSlice(STRUCTURE, [5, 5], 0, kernel="tree"),
    "from_pool-kernel": lambda: IncrementalValidator.from_pool(
        example1().pool, kernel="tree"
    ),
    "instrumentation": lambda: TreeValidator([5]).validate(
        ValidationTree(), instrumentation=None
    ),
}


@pytest.mark.parametrize("build", REMOVED.values(), ids=REMOVED.keys())
def test_removed_setting_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()
