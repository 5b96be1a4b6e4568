"""Tests for the default-on versioned dataset cache."""

import multiprocessing
import os
import threading
import zipfile

import numpy as np
import pytest

from repro import metrics
from repro.graph.io import load_npz
from repro.harness import cache, datasets as ds
from repro.harness.cache import (
    GENERATOR_VERSION,
    cache_dir,
    cache_enabled,
    cache_path,
    clear_cache,
    load_cached,
    warm,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)


class TestRoundTrip:
    def test_cached_equals_generated(self):
        fresh = ds.generate("ecology2", scale_div=512, seed=9)
        first = load_cached("ecology2", scale_div=512, seed=9)  # miss
        second = load_cached("ecology2", scale_div=512, seed=9)  # hit
        assert first == fresh
        assert second == fresh

    def test_rgg_round_trip(self):
        fresh = ds.generate("rgg_n_2_8_s0", seed=4)
        assert load_cached("rgg_n_2_8_s0", scale_div=1, seed=4) == fresh
        assert cache_path("rgg_n_2_8_s0", 1, 4).exists()

    def test_warm_then_hit(self):
        warm("ecology2", scale_div=512, seed=2)
        path = cache_path("ecology2", 512, 2)
        assert path.exists()
        mtime = path.stat().st_mtime_ns
        warm("ecology2", scale_div=512, seed=2)  # no rewrite
        assert path.stat().st_mtime_ns == mtime
        assert load_cached("ecology2", scale_div=512, seed=2) == ds.generate(
            "ecology2", scale_div=512, seed=2
        )


class TestKeying:
    def test_version_in_key(self):
        assert f"__g{GENERATOR_VERSION}.npz" in cache_path("a", 1, 2).name

    def test_version_change_misses(self):
        load_cached("ecology2", scale_div=512, seed=1)
        assert cache_path("ecology2", 512, 1).exists()
        assert not cache_path("ecology2", 512, 1, GENERATOR_VERSION + 1).exists()

    def test_env_dir_override(self, tmp_path, monkeypatch):
        other = tmp_path / "elsewhere"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(other))
        load_cached("ecology2", scale_div=512, seed=5)
        assert cache_dir() == other
        assert list(other.glob("*.npz"))


class TestCorruption:
    def test_corrupt_entry_regenerated(self):
        path = cache_path("ecology2", 512, 7)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00garbage\xff")
        g = load_cached("ecology2", scale_div=512, seed=7)
        assert g == ds.generate("ecology2", scale_div=512, seed=7)
        # the bad entry was replaced by a good one
        assert load_cached("ecology2", scale_div=512, seed=7) == g

    def test_truncated_entry_regenerated(self):
        load_cached("ecology2", scale_div=512, seed=8)
        path = cache_path("ecology2", 512, 8)
        path.write_bytes(path.read_bytes()[:20])
        g = load_cached("ecology2", scale_div=512, seed=8)
        assert g == ds.generate("ecology2", scale_div=512, seed=8)

    def test_zero_byte_entry_regenerated(self):
        """A writer killed before its first write leaves a 0-byte file;
        the reader must regenerate, not crash."""
        load_cached("ecology2", scale_div=512, seed=21)
        path = cache_path("ecology2", 512, 21)
        path.write_bytes(b"")
        g = load_cached("ecology2", scale_div=512, seed=21)
        assert g == ds.generate("ecology2", scale_div=512, seed=21)
        assert path.stat().st_size > 0  # replaced with a good entry

    def test_corrupt_via_fault_helper(self):
        from repro.harness.faults import corrupt_cache_entry

        load_cached("offshore", scale_div=512, seed=22)
        path = corrupt_cache_entry("offshore", scale_div=512, seed=22)
        assert path is not None and path.stat().st_size == 0
        g = load_cached("offshore", scale_div=512, seed=22)
        assert g == ds.generate("offshore", scale_div=512, seed=22)


class TestSnapshotFormat:
    """Entries are stored uncompressed; zip's per-member CRC-32 is what
    catches a damaged byte, and the earlier compressed format still
    loads."""

    def test_entries_are_stored_uncompressed(self):
        load_cached("ecology2", scale_div=512, seed=30)
        with zipfile.ZipFile(cache_path("ecology2", 512, 30)) as z:
            assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_STORED}

    def test_flipped_indices_byte_detected_and_regenerated(self):
        good = load_cached("ecology2", scale_div=512, seed=31)
        path = cache_path("ecology2", 512, 31)
        clean = path.read_bytes()
        raw = good.indices.astype("<i8").tobytes()
        at = clean.find(raw)
        assert at >= 0  # stored verbatim inside the indices member
        damaged = bytearray(clean)
        damaged[at + len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(damaged))
        with pytest.raises(zipfile.BadZipFile, match="indices"):
            load_npz(path)
        with metrics.activate() as reg:
            again = load_cached("ecology2", scale_div=512, seed=31)
        assert reg.get("repro_cache_corrupt_total", dataset="ecology2") == 1.0
        assert reg.get("repro_cache_misses_total", dataset="ecology2") == 1.0
        rewritten = load_npz(path)
        for arr in ("offsets", "indices"):
            assert getattr(again, arr).tobytes() == getattr(good, arr).tobytes()
            assert getattr(rewritten, arr).tobytes() == getattr(good, arr).tobytes()

    def test_compressed_entry_from_earlier_format_is_a_hit(self):
        fresh = ds.generate("ecology2", scale_div=512, seed=32)
        path = cache_path("ecology2", 512, 32)
        np.savez_compressed(
            path,
            version=np.int64(1),
            offsets=fresh.offsets,
            indices=fresh.indices,
            undirected=np.bool_(fresh.undirected),
            name=np.str_(fresh.name),
        )
        before = path.read_bytes()
        with metrics.activate() as reg:
            got = load_cached("ecology2", scale_div=512, seed=32)
        assert got == fresh
        assert reg.get("repro_cache_hits_total", dataset="ecology2") == 1.0
        assert reg.get("repro_cache_misses_total", dataset="ecology2") == 0.0
        assert path.read_bytes() == before  # served, not regenerated


class TestStaleTmpSweep:
    def test_old_tmp_swept_young_kept(self):
        from repro.harness.cache import sweep_stale_tmp

        root = cache_dir()
        old = root / "ecology2__div512__seed1__g1.123.tmp.npz"
        old.write_bytes(b"orphaned by a killed writer")
        young = root / "offshore__div512__seed1__g1.456.tmp.npz"
        young.write_bytes(b"live writer, mid-publish")
        past = os.stat(old).st_mtime - 7200
        os.utime(old, (past, past))
        assert sweep_stale_tmp(root=root) == 1
        assert not old.exists()
        assert young.exists()

    def test_sweep_runs_once_per_process_per_root(self):
        root = cache_dir()
        stale = root / "g__div1__seed0__g1.9.tmp.npz"
        stale.write_bytes(b"x")
        past = os.stat(stale).st_mtime - 7200
        os.utime(stale, (past, past))
        # cache_dir() already swept this root once this process; the
        # stale file survives until an explicit sweep.
        cache_dir()
        from repro.harness.cache import sweep_stale_tmp

        assert sweep_stale_tmp(root=root, max_age_s=0) >= 1
        assert not stale.exists()


class TestDisableSwitch:
    @pytest.mark.parametrize("value", ["0", "false", "no", "off", " OFF "])
    def test_disabled_values(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", value)
        assert not cache_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", ""])
    def test_enabled_values(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", value)
        assert cache_enabled()

    def test_default_on(self):
        assert cache_enabled()

    def test_disabled_writes_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        g = load_cached("ecology2", scale_div=512, seed=3)
        assert g == ds.generate("ecology2", scale_div=512, seed=3)
        assert not list(cache_dir().glob("*.npz"))
        warm("ecology2", scale_div=512, seed=3)
        assert not list(cache_dir().glob("*.npz"))


def _racer(args):
    cache_root, idx = args
    os.environ["REPRO_CACHE_DIR"] = cache_root
    from repro.harness.cache import load_cached as lc

    g = lc("ecology2", scale_div=512, seed=6)
    return (g.num_vertices, g.num_edges, int(g.indices.sum()))


class TestConcurrentWriters:
    def test_racing_processes_agree(self, tmp_path):
        """Many processes filling the same cold key all see the same
        graph, and exactly one complete entry remains."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")
        root = str(tmp_path / "cache")
        with ctx.Pool(4) as pool:
            sigs = pool.map(_racer, [(root, i) for i in range(8)])
        assert len(set(sigs)) == 1
        entries = list(cache_dir().glob("*.npz"))
        assert len(entries) == 1
        assert not list(cache_dir().glob("*.tmp.npz"))
        # and the surviving entry is readable
        g = load_cached("ecology2", scale_div=512, seed=6)
        assert (g.num_vertices, g.num_edges, int(g.indices.sum())) == sigs[0]

    def test_racing_threads_agree(self):
        """Eight threads of one process publishing the same entry at
        once (serve's cold-miss case) all succeed, and the entry loads."""
        graph = ds.generate("ecology2", scale_div=64, seed=5)
        path = cache_path("ecology2", 64, 5)
        path.parent.mkdir(parents=True, exist_ok=True)
        start = threading.Barrier(8, timeout=30)
        errors = []

        def writer():
            start.wait()
            try:
                cache._atomic_save(graph, path)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert load_npz(path) == graph
        assert not list(cache_dir().glob("*.tmp.npz"))

    def test_atomic_save_leaves_no_temp(self):
        warm("offshore", scale_div=512, seed=1)
        assert not [
            p for p in cache_dir().iterdir() if ".tmp" in p.name
        ]


class TestDatasetsIntegration:
    def test_load_goes_through_disk_cache(self):
        ds._load_cached.cache_clear()
        g = ds.load("ecology2", scale_div=512, seed=12)
        assert cache_path("ecology2", 512, 12).exists()
        ds._load_cached.cache_clear()
        assert ds.load("ecology2", scale_div=512, seed=12) == g

    def test_load_respects_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        ds._load_cached.cache_clear()
        ds.load("ecology2", scale_div=512, seed=13)
        assert not list(cache_dir().glob("*seed13*"))

    def test_clear_cache_counts(self):
        warm("ecology2", scale_div=512, seed=1)
        warm("offshore", scale_div=512, seed=1)
        assert clear_cache() == 2
        assert clear_cache() == 0
