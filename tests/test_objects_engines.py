"""The map, sync, preload and multicast tests of test_objects.py, run again
with each compression engine: the tests are collected here a second time, and
this module's `engine` fixture overrides the engine-less one they use there."""

import pytest

from eqsim.codec import get_engine

from test_objects import (  # noqa: F401
    pair,
    test_cache_transparency,
    test_catch_up_pushes_overtaken_by_multicast_commit,
    test_delta_chain_equals_direct_map,
    test_head_map_serves_committed_state,
    test_history_depth_limits_mappable_versions,
    test_map_before_any_commit_gets_initial_instance,
    test_map_oldest_and_explicit_version,
    test_multicast_and_unicast_results_identical,
    test_multicast_commit_single_payload,
    test_multicast_snooping_fills_cache,
    test_partial_masks_update_only_masked_fields,
    test_preload_populates_caches,
    test_randomized_replication_byte_equal,
    test_sequential_partial_commits_equal_combined,
    test_single_slave_uses_unicast_even_with_hub,
    test_slave_mapped_at_old_version_syncs_forward,
    test_static_maps_but_never_commits,
    test_sync_applies_in_order_and_rejects_regress,
    test_sync_blocks_until_commit_arrives,
    test_sync_waits_for_push_overtaken_by_later_one,
    test_unbuffered_serves_only_current_version,
    test_warm_cache_map_needs_no_instance_payload,
)


@pytest.fixture(params=["rle", "fast"])
def engine(request):
    return get_engine(request.param)
