/**
 * @file
 * Host-RAM victim cache: the second tier the frame arena demotes into.
 *
 * "GPUs as Storage System Accelerators" stages GPU working sets in
 * pinned host memory; GPUfs's arena eviction today just drops clean
 * pages, so the next miss pays a full storage round-trip. This tier
 * turns eviction into demotion: BufferCache copies an evicted frame's
 * bytes here (one D2H charge on the per-GPU host-staging timeline,
 * SimContext::hostStage), and the daemon probes the tier before the
 * storage backend on every miss read, so a re-miss costs one H2D DMA.
 *
 * One instance per machine (owned by GpufsSystem, shared by all GPUs
 * and the daemon; a single mutex serializes insert/probe — both are
 * memcpy-bounded and off the lock-free GPU data plane). Entries are
 * keyed (ino, pageIdx) and tagged with the demoting GPU's file
 * version; a probe compares the tag against the host's CURRENT
 * version (from fstat), so any host mutation — write-through mirrors,
 * journal replay, truncate — invalidates stale bytes implicitly: the
 * host bumps the version on every mutation, and a mismatched entry is
 * dropped, never served. Capacity eviction is plain LRU.
 */

#ifndef GPUFS_GPUFS_VICTIM_HH
#define GPUFS_GPUFS_VICTIM_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/stats.hh"
#include "base/units.hh"
#include "gpufs/params.hh"

namespace gpufs {
namespace core {

class VictimCache
{
  public:
    /** Counters register into @p stats (the daemon's StatSet, so one
     *  `vc_` block covers all GPUs' demotions and the daemon's probes). */
    VictimCache(uint64_t capacity_pages, uint64_t page_size,
                StatSet &stats);

    VictimCache(const VictimCache &) = delete;
    VictimCache &operator=(const VictimCache &) = delete;

    uint64_t pageSize() const { return pageSize_; }
    uint64_t capacityPages() const { return capacity_; }

    /**
     * Demote one page's bytes into the tier (BufferCache eviction
     * path, called under the fpage lock so @p data is stable).
     * @p version  the demoting GPU's view of the file version — the
     *             probe-time gate against the host's current version.
     * @p ready    virtual time the staging D2H completes; probes serve
     *             no earlier (the page is not in host RAM before it).
     * @p tenant   the tenant stamped on the demoted frame; victim
     *             occupancy bills it, and at its quota the insert
     *             recycles that tenant's own LRU entry rather than the
     *             global tail (no cross-tenant displacement).
     * Re-demotion of a resident key overwrites in place.
     */
    void insert(uint64_t ino, uint64_t page_idx, uint64_t version,
                const uint8_t *data, uint32_t valid, Time ready,
                uint8_t tenant = 0);

    /** Cap @p tenant's victim occupancy at @p quota_pages (0 =
     *  unlimited). Configuration-time only (GpufsSystem wiring). */
    void setTenantQuota(TenantId tenant, uint64_t quota_pages);

    /** Pages currently held for @p tenant (serving-tier reports). */
    uint64_t tenantPages(TenantId tenant) const;

    /**
     * Probe for a page on the miss path. Hits (version tag ==
     * @p cur_version and at least @p expect valid bytes) copy
     * @p expect bytes into @p dst, refresh LRU, and raise *ready_out
     * to the entry's staging-completion time. A version mismatch drops
     * the entry (vc_version_stale); absent or short entries count
     * vc_misses.
     */
    bool probe(uint64_t ino, uint64_t page_idx, uint64_t cur_version,
               uint8_t *dst, uint64_t expect, Time *ready_out);

    /** Drop entries overlapping [off, off+len) of @p ino (write-path
     *  hygiene; the version gate is the correctness backstop). */
    void invalidateRange(uint64_t ino, uint64_t off, uint64_t len);

    /** Drop every entry of @p ino (unlink). */
    void dropFile(uint64_t ino);

    uint64_t residentPages() const;

  private:
    struct Entry {
        uint64_t version;
        uint32_t slot;
        uint32_t valid;
        Time ready;
        uint8_t tenant;
        std::list<uint64_t>::iterator lruPos;
    };

    /** (ino, pageIdx) packed to one key: inos are small sequential
     *  host-FS ids and a radix tree caps page indices well below 2^32,
     *  so the halves cannot collide. */
    static uint64_t
    keyOf(uint64_t ino, uint64_t page_idx)
    {
        return (ino << 32) | (page_idx & 0xFFFFFFFFull);
    }

    /** Drop one entry and recycle its slot (mtx_ held). */
    void eraseLocked(std::unordered_map<uint64_t, Entry>::iterator it);

    const uint64_t pageSize_;
    const uint64_t capacity_;

    mutable std::mutex mtx_;
    std::unordered_map<uint64_t, Entry> map_;
    /** LRU order, front = most recent; values are map keys. */
    std::list<uint64_t> lru_;
    std::vector<uint32_t> freeSlots_;
    /** The pinned host staging pool itself. */
    std::vector<uint8_t> pool_;
    /** Serving tier: per-tenant occupancy and caps (mtx_ held). */
    uint64_t tenantUsed_[kMaxTenants] = {};
    uint64_t tenantQuota_[kMaxTenants] = {};

    Counter &cntInserts_;
    Counter &cntHits_;
    Counter &cntMisses_;
    Counter &cntStale_;
    Counter &cntEvictions_;
};

} // namespace core
} // namespace gpufs

#endif // GPUFS_GPUFS_VICTIM_HH
