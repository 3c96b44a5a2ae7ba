#include "hostfs/page_cache.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/rng.hh"

namespace gpufs {
namespace hostfs {

HostPageCache::HostPageCache(sim::SimContext &sim_ctx)
    : sim(sim_ctx), pinnedBytes(0), stats_("host_page_cache"),
      hitBytes(stats_.counter("hit_bytes")),
      missBytes(stats_.counter("miss_bytes")),
      evictions(stats_.counter("evictions"))
{
}

uint64_t
HostPageCache::effectiveCapacity() const
{
    std::lock_guard<std::mutex> lock(mtx);
    uint64_t cap = sim.params.hostCacheBytes;
    return cap > pinnedBytes ? cap - pinnedBytes : 0;
}

uint64_t
HostPageCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return entries.size() * sim.params.hostCacheGranule;
}

bool
HostPageCache::reservePinned(uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (pinnedBytes + bytes > sim.params.hostCacheBytes)
        return false;
    pinnedBytes += bytes;
    return true;
}

void
HostPageCache::releasePinned(uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mtx);
    gpufs_assert(bytes <= pinnedBytes, "unbalanced pinned release");
    pinnedBytes -= bytes;
}

uint64_t
HostPageCache::touchLocked(const Key &key, bool dirty, bool &was_resident)
{
    uint64_t dirty_evicted = 0;
    auto it = entries.find(key);
    if (it != entries.end()) {
        was_resident = true;
        lru.splice(lru.begin(), lru, it->second.lruPos);
        it->second.dirty = it->second.dirty || dirty;
        return 0;
    }
    was_resident = false;
    lru.push_front(key);
    entries.emplace(key, Entry{lru.begin(), dirty});

    uint64_t cap = sim.params.hostCacheBytes;
    cap = cap > pinnedBytes ? cap - pinnedBytes : 0;
    uint64_t max_entries = std::max<uint64_t>(1, cap / granuleSize());
    while (entries.size() > max_entries) {
        const Key victim = lru.back();
        auto vit = entries.find(victim);
        gpufs_assert(vit != entries.end(), "LRU/map out of sync");
        if (vit->second.dirty)
            dirty_evicted += granuleSize();
        entries.erase(vit);
        lru.pop_back();
        evictions.inc();
    }
    return dirty_evicted;
}

Time
HostPageCache::chargeWritev(uint64_t ino, const IoSpan *runs, unsigned n,
                            Time ready, sim::Resource *io_path)
{
    const auto &p = sim.params;
    uint64_t g = granuleSize();
    uint64_t total = 0;
    uint64_t writeback_bytes = 0;
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (unsigned r = 0; r < n; ++r) {
            if (runs[r].len == 0)
                continue;
            total += runs[r].len;
            uint64_t first = runs[r].offset / g;
            uint64_t last = (runs[r].offset + runs[r].len - 1) / g;
            for (uint64_t gi = first; gi <= last; ++gi) {
                bool resident;
                writeback_bytes += touchLocked({ino, gi}, true, resident);
            }
        }
    }
    if (total == 0 || !p.chargeHostIo)
        return ready;

    Time t = ready;
    if (writeback_bytes > 0) {
        t = sim.disk.reserve(
            t, transferTime(writeback_bytes, p.diskWriteMBps)).end;
    }
    // One gathered syscall for every run.
    Time copy_dur = p.preadOverhead + transferTime(total,
                                                   p.hostCacheWriteMBps);
    if (io_path)
        t = io_path->reserve(t, copy_dur).end;
    else
        t += copy_dur;
    return t;
}

Time
HostPageCache::chargeReadv(uint64_t ino, const IoSpan *spans, unsigned n,
                           Time ready, sim::Resource *io_path)
{
    const auto &p = sim.params;
    uint64_t g = granuleSize();
    uint64_t total = 0;
    uint64_t miss_bytes = 0;
    uint64_t miss_extents = 0;
    uint64_t writeback_bytes = 0;
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (unsigned r = 0; r < n; ++r) {
            if (spans[r].len == 0)
                continue;
            total += spans[r].len;
            uint64_t first = spans[r].offset / g;
            uint64_t last = (spans[r].offset + spans[r].len - 1) / g;
            // Miss runs don't fuse across spans: the spans belong to
            // different requesting blocks and need not be adjacent on
            // disk, so each span seeks on its own.
            bool in_miss_run = false;
            for (uint64_t gi = first; gi <= last; ++gi) {
                bool resident;
                writeback_bytes += touchLocked({ino, gi}, false, resident);
                if (!resident) {
                    miss_bytes += g;
                    if (!in_miss_run)
                        ++miss_extents;
                    in_miss_run = true;
                } else {
                    in_miss_run = false;
                }
            }
        }
    }
    hitBytes.inc(total > miss_bytes ? total - miss_bytes : 0);
    missBytes.inc(std::min(miss_bytes, total));

    if (total == 0 || !p.chargeHostIo)
        return ready;

    Time t = ready;
    if (miss_bytes > 0 || writeback_bytes > 0) {
        Time disk_dur = miss_extents * p.diskAccessLat
            + transferTime(miss_bytes, p.diskReadMBps)
            + transferTime(writeback_bytes, p.diskWriteMBps);
        // Pinned memory squeezes the page cache into direct reclaim
        // (§5.1.4): scale disk time by the pressure factor.
        double pinned_frac;
        {
            std::lock_guard<std::mutex> lock(mtx);
            pinned_frac = p.hostCacheBytes
                ? double(pinnedBytes) / double(p.hostCacheBytes) : 0.0;
        }
        disk_dur = Time(double(disk_dur) *
                        (1.0 + p.pinnedReclaimPenalty * pinned_frac));
        t = sim.disk.reserve(t, disk_dur).end;
    }
    // One gathered syscall for every span.
    Time copy_dur = p.preadOverhead + transferTime(total,
                                                   p.hostCacheReadMBps);
    if (io_path)
        t = io_path->reserve(t, copy_dur).end;
    else
        t += copy_dur;
    return t;
}

Time
HostPageCache::chargeSync(uint64_t ino, Time ready)
{
    uint64_t dirty_bytes = 0;
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (auto &kv : entries) {
            if (kv.first.ino == ino && kv.second.dirty) {
                kv.second.dirty = false;
                dirty_bytes += granuleSize();
            }
        }
    }
    if (dirty_bytes == 0 || !sim.params.chargeHostIo)
        return ready;
    return sim.disk.reserve(
        ready, sim.params.diskAccessLat
            + transferTime(dirty_bytes, sim.params.diskWriteMBps)).end;
}

void
HostPageCache::dropFile(uint64_t ino)
{
    std::lock_guard<std::mutex> lock(mtx);
    for (auto it = entries.begin(); it != entries.end();) {
        if (it->first.ino == ino) {
            lru.erase(it->second.lruPos);
            it = entries.erase(it);
        } else {
            ++it;
        }
    }
}

void
HostPageCache::dropAll()
{
    std::lock_guard<std::mutex> lock(mtx);
    entries.clear();
    lru.clear();
}

void
HostPageCache::prefault(uint64_t ino, uint64_t offset, uint64_t len)
{
    if (len == 0)
        return;
    uint64_t g = granuleSize();
    uint64_t first = offset / g;
    uint64_t last = (offset + len - 1) / g;
    std::lock_guard<std::mutex> lock(mtx);
    for (uint64_t gi = first; gi <= last; ++gi) {
        bool resident;
        touchLocked({ino, gi}, false, resident);
    }
}

} // namespace hostfs
} // namespace gpufs
