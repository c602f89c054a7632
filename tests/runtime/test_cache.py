"""Unit: the on-disk JSON result cache."""

from repro.datalink.alternating_bit import make_alternating_bit
from repro.ioa.exploration_parallel import explore_station_states_parallel
from repro.runtime import cache as cache_module
from repro.runtime.cache import (
    CACHE_FORMAT,
    ResultCache,
    code_version,
)
from repro.runtime.task import TaskSpec


def spec(**overrides):
    base = dict(
        experiment="hoeffding",
        shard="n=50",
        params={"shard": "n=50", "n": 50},
        fast=True,
        seed=7,
        kind="shard",
    )
    base.update(overrides)
    return TaskSpec(**base)


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path))
    payload = {"rows": [1, 2, 3], "metrics": {"grid_points": 3}}
    cache.put(spec(), payload, wall_time=0.5)
    entry = cache.get(spec())
    assert entry is not None
    assert entry["payload"] == payload
    assert entry["wall_time"] == 0.5
    assert entry["format"] == CACHE_FORMAT
    assert entry["code_version"] == code_version()


def test_miss_on_empty_cache(tmp_path):
    assert ResultCache(str(tmp_path)).get(spec()) is None


def test_key_distinguishes_identity(tmp_path):
    cache = ResultCache(str(tmp_path))
    base_key = cache.key(spec())
    assert cache.key(spec(seed=8)) != base_key
    assert cache.key(spec(shard="n=200")) != base_key
    assert cache.key(spec(experiment="backlog")) != base_key
    assert cache.key(spec(fast=False)) != base_key
    assert cache.key(spec(params={"shard": "n=50", "n": 51})) != base_key
    assert cache.key(spec(kind="whole")) != base_key
    assert cache.key(spec()) == base_key


def test_corrupt_entry_degrades_to_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(spec(), {"x": 1})
    cache.path(spec()).write_text("{ not json", encoding="utf-8")
    assert cache.get(spec()) is None


def test_entry_without_payload_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.path(spec()).parent.mkdir(parents=True, exist_ok=True)
    cache.path(spec()).write_text('{"format": "x"}', encoding="utf-8")
    assert cache.get(spec()) is None


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(spec(), {"x": 1})
    cache.put(spec(shard="n=200"), {"x": 2})
    assert cache.clear() == 2
    assert cache.get(spec()) is None


def test_code_version_is_stable_hex():
    first = code_version()
    assert first == code_version()
    assert len(first) == 64
    int(first, 16)


def test_code_version_change_misses_cache_and_checkpoints(
    tmp_path, monkeypatch
):
    """The source digest is the one invalidation rule: after any
    library edit (a changed ``code_version()``) a cached result is
    unreachable and a search checkpoint cold-starts."""
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put(spec(), {"x": 1})
    assert cache.get(spec())["code_version"] == code_version()
    old_key = cache.key(spec())

    def explore(**budget):
        return explore_station_states_parallel(
            *make_alternating_bit(), ["m"], max_messages=2, workers=1,
            use_processes=False, checkpoint_every=2,
            checkpoint_dir=str(tmp_path / "ckpt"), **budget,
        )

    assert explore(max_configurations=10).truncated
    resumed = explore()
    assert resumed.perf["engine"]["resumed_from"] is not None

    monkeypatch.setattr(cache_module, "_code_version", "0" * 64)
    assert cache.key(spec()) != old_key
    assert cache.get(spec()) is None  # old entry is unreachable
    cache.put(spec(), {"x": 2})
    assert cache.get(spec())["payload"] == {"x": 2}
    cold = explore()
    assert cold.perf["engine"]["resumed_from"] is None
    assert cold.configurations == resumed.configurations
    assert cold.pair_count == resumed.pair_count


# ---------------------------------------------------------------------------
# per-component invalidation: each module that once carried a hand-bumped
# salt is covered by the source digest (see ``edit_library`` in conftest)
# ---------------------------------------------------------------------------


def assert_entry_records_edit(tmp_path, edit_library, component):
    """An entry records the digest it was written under, and an edit
    to ``component`` changes what new entries record."""
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put(spec(), {"x": 1})
    assert cache.get(spec())["code_version"] == code_version()
    edited = edit_library(component)
    cache.put(spec(), {"x": 2})
    assert cache.get(spec())["code_version"] == edited


def assert_edit_invalidates_old_entries(tmp_path, edit_library, component):
    """An entry written before an edit to ``component`` must not be
    served after it; new results are stored and served under the new
    digest."""
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put(spec(), {"x": 1})
    assert cache.get(spec()) is not None
    old_key = cache.key(spec())
    edit_library(component)
    assert cache.key(spec()) != old_key
    assert cache.get(spec()) is None  # old entry is unreachable
    cache.put(spec(), {"x": 2})
    assert cache.get(spec())["payload"] == {"x": 2}


def test_entry_records_kernel_version(tmp_path, edit_library):
    assert_entry_records_edit(tmp_path, edit_library, "kernel")


def test_kernel_version_bump_invalidates_old_entries(tmp_path, edit_library):
    assert_edit_invalidates_old_entries(tmp_path, edit_library, "kernel")


def test_entry_records_compile_version(tmp_path, edit_library):
    assert_entry_records_edit(tmp_path, edit_library, "compile")


def test_compile_version_bump_invalidates_old_entries(
    tmp_path, edit_library
):
    assert_edit_invalidates_old_entries(tmp_path, edit_library, "compile")


def test_entry_records_vector_version(tmp_path, edit_library):
    assert_entry_records_edit(tmp_path, edit_library, "vector")


def test_vector_version_bump_invalidates_old_entries(tmp_path, edit_library):
    assert_edit_invalidates_old_entries(tmp_path, edit_library, "vector")


def test_entry_records_pump_version(tmp_path, edit_library):
    assert_entry_records_edit(tmp_path, edit_library, "pump")


def test_pump_version_bump_invalidates_old_entries(tmp_path, edit_library):
    assert_edit_invalidates_old_entries(tmp_path, edit_library, "pump")


def test_entry_records_frontier_version(tmp_path, edit_library):
    assert_entry_records_edit(tmp_path, edit_library, "frontier")


def test_frontier_version_bump_invalidates_old_entries(
    tmp_path, edit_library
):
    assert_edit_invalidates_old_entries(tmp_path, edit_library, "frontier")
