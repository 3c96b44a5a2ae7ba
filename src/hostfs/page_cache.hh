/**
 * @file
 * Simulated CPU (host OS) page cache.
 *
 * Content always comes from the ContentProvider (the provider *is* the
 * disk image), so the cache tracks only *residency* and *dirtiness* of
 * fixed-size granules plus an LRU order, and charges virtual time:
 * resident granules are read at host-cache bandwidth, missing granules
 * first pay a disk reservation. This reproduces the effects the paper's
 * evaluation depends on — warm-vs-cold runs, `hdparm` cached vs disk
 * rates, pinned CUDA buffers squeezing cache capacity (Figure 8), and
 * explicit cache flushes before cold experiments (§5.2.1).
 */

#ifndef GPUFS_HOSTFS_PAGE_CACHE_HH
#define GPUFS_HOSTFS_PAGE_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "base/rng.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "sim/context.hh"

namespace gpufs {
namespace hostfs {

/** One extent of a vectored I/O charge (offset/len only; the data
 *  movement itself is functional and untimed). */
struct IoSpan {
    uint64_t offset;
    uint64_t len;
};

/**
 * LRU residency map over (inode, granule) pairs with a byte capacity.
 * Thread safe.
 */
class HostPageCache
{
  public:
    explicit HostPageCache(sim::SimContext &sim_ctx);

    /**
     * Charge one gathered write (pwritev) of @p n runs of inode @p ino,
     * ready at virtual time @p ready: every run's granules become
     * resident + dirty (evicting dirty LRU victims costs a disk
     * write), then ONE syscall overhead plus the runs' total bytes at
     * cache-write bandwidth on @p io_path if non-null (the serialized
     * daemon path) or inline otherwise. @return completion time.
     */
    Time chargeWritev(uint64_t ino, const IoSpan *runs, unsigned n,
                      Time ready, sim::Resource *io_path);

    /**
     * Charge one gathered read (preadv) of @p n spans: per span,
     * missing granules reserve the disk (each contiguous miss run one
     * seek; spans never fuse, since they may belong to different
     * requesters), then the copy out of the cache pays ONE syscall
     * overhead plus the spans' total bytes at host-cache read
     * bandwidth. A single contiguous read is the one-span case.
     */
    Time chargeReadv(uint64_t ino, const IoSpan *spans, unsigned n,
                     Time ready, sim::Resource *io_path);

    /** Write back dirty granules of @p ino to disk. ~fsync. */
    Time chargeSync(uint64_t ino, Time ready);

    /** Drop every granule of @p ino (unlink / invalidate). */
    void dropFile(uint64_t ino);

    /** Drop everything (the pre-benchmark `echo 3 > drop_caches`). */
    void dropAll();

    /** Mark [offset, offset+len) resident without timing (warmup). */
    void prefault(uint64_t ino, uint64_t offset, uint64_t len);

    /**
     * Reserve @p bytes as pinned (cudaHostAlloc-style). Pinned memory
     * competes with the page cache (§5.1.4), shrinking its effective
     * capacity. @return false if more than the total would be pinned.
     */
    bool reservePinned(uint64_t bytes);
    void releasePinned(uint64_t bytes);

    /** Bytes of cache capacity currently usable. */
    uint64_t effectiveCapacity() const;

    /** Resident bytes right now. */
    uint64_t residentBytes() const;

    StatSet &stats() { return stats_; }

  private:
    struct Key {
        uint64_t ino;
        uint64_t granule;
        bool operator==(const Key &o) const
        {
            return ino == o.ino && granule == o.granule;
        }
    };
    struct KeyHash {
        size_t operator()(const Key &k) const
        {
            return static_cast<size_t>(hashCombine(k.ino, k.granule));
        }
    };
    struct Entry {
        std::list<Key>::iterator lruPos;
        bool dirty;
    };

    sim::SimContext &sim;
    mutable std::mutex mtx;
    std::unordered_map<Key, Entry, KeyHash> entries;
    std::list<Key> lru;              // front = most recent
    uint64_t pinnedBytes;
    StatSet stats_;
    Counter &hitBytes;
    Counter &missBytes;
    Counter &evictions;

    uint64_t granuleSize() const { return sim.params.hostCacheGranule; }

    /** Insert/refresh a granule; evict LRU victims past capacity.
     *  @return disk-writeback bytes evicted dirty (charged by caller). */
    uint64_t touchLocked(const Key &key, bool dirty, bool &was_resident);
};

} // namespace hostfs
} // namespace gpufs

#endif // GPUFS_HOSTFS_PAGE_CACHE_HH
