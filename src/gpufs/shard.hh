/**
 * @file
 * ShardMap: the machine-wide page-range -> owner-GPU map behind the
 * sharded multi-GPU buffer cache.
 *
 * One instance per GpufsSystem, shared read-only by every GpuFs /
 * BufferCache after construction. The map is pure arithmetic (no
 * state, no locks): ownership of a page is a hash of (inode, page
 * group), so every GPU computes the same owner without communication —
 * the property that lets a non-owner miss turn directly into a
 * PeerReadPages RPC naming the owner.
 *
 * Ownership is constant within a shard group (HashPageGroup) or a
 * whole file (FileAffinity), so batched fetches clipped at group
 * boundaries always have a single owner.
 *
 * Serving tier: the map additionally accumulates per-(tenant, group)
 * read heat (recordHeat, called on the fetch paths) and can migrate a
 * hot group toward its heaviest reader (rebalance). Overrides are
 * stored in a small map consulted before the hash; ownerOf stays
 * lock-free until the first migration exists (hasOverrides_ gate), so
 * the pure-arithmetic fast path is preserved for the default
 * configuration.
 */

#ifndef GPUFS_GPUFS_SHARD_HH
#define GPUFS_GPUFS_SHARD_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "base/logging.hh"
#include "gpufs/params.hh"

namespace gpufs {
namespace core {

class ShardMap
{
  public:
    /**
     * @param policy    partitioning policy (Private disables sharding)
     * @param num_gpus  GPUs in the system; 1 forces Private behavior
     * @param pages_per_group HashPageGroup ownership granularity
     */
    ShardMap(ShardPolicy policy, unsigned num_gpus,
             unsigned pages_per_group)
        : policy_(policy), numGpus_(num_gpus),
          pagesPerGroup_(pages_per_group ? pages_per_group : 1)
    {
    }

    ShardPolicy policy() const { return policy_; }
    unsigned numGpus() const { return numGpus_; }
    unsigned pagesPerGroup() const { return pagesPerGroup_; }

    /** True when lookups can name a non-self owner: sharding is
     *  meaningless for one GPU, and Private is the ablation baseline. */
    bool
    active() const
    {
        return policy_ != ShardPolicy::Private && numGpus_ > 1;
    }

    /** Owner GPU of (file @p ino, page @p page_idx). Valid only while
     *  active(); callers treat an inactive map as owner == self. The
     *  hash answer can be superseded by a rebalance override; the
     *  atomic gate keeps the no-override case lock-free. */
    unsigned
    ownerOf(uint64_t ino, uint64_t page_idx) const
    {
        gpufs_assert(numGpus_ > 0, "shard map with no GPUs");
        const uint64_t key = groupKey(ino, page_idx);
        if (hasOverrides_.load(std::memory_order_acquire)) {
            std::lock_guard<std::mutex> lock(heatMtx_);
            auto it = overrides_.find(key);
            if (it != overrides_.end())
                return it->second;
        }
        return static_cast<unsigned>(mix(key) % numGpus_);
    }

    /**
     * Record @p pages of read heat on (tenant, group of @p page_idx)
     * from @p reader_gpu. Called on the miss-fetch paths (demand and
     * batch), so heat measures real traffic, not cache hits. Const
     * with mutable state: BufferCache holds the map const, but heat is
     * bookkeeping, not ownership semantics.
     */
    void
    recordHeat(uint8_t tenant, uint64_t ino, uint64_t page_idx,
               unsigned reader_gpu, unsigned pages) const
    {
        if (!active())
            return;
        const uint64_t key = groupKey(ino, page_idx);
        std::lock_guard<std::mutex> lock(heatMtx_);
        HeatEntry &h = heat_[key];
        if (reader_gpu < kMaxHeatGpus)
            h.byGpu[reader_gpu] += pages;
        h.byTenant[tenant % kMaxTenants] += pages;
        h.total += pages;
    }

    /**
     * Migrate every group whose accumulated heat reaches @p min_heat
     * toward its heaviest reader (no-op for already-local groups).
     * Heat is cleared afterwards so each window votes fresh. Callers
     * (GpufsSystem::rebalanceShards) run this from quiesced control
     * code — concurrent faults simply see the old or new owner, either
     * of which serves correctly (non-owners fall back to the host
     * path, owners adopt on demand).
     * @return groups whose ownership changed.
     */
    unsigned
    rebalance(uint32_t min_heat)
    {
        std::lock_guard<std::mutex> lock(heatMtx_);
        unsigned migrated = 0;
        for (const auto &kv : heat_) {
            const HeatEntry &h = kv.second;
            if (h.total < min_heat)
                continue;
            unsigned best = 0;
            for (unsigned g = 1; g < kMaxHeatGpus && g < numGpus_; ++g) {
                if (h.byGpu[g] > h.byGpu[best])
                    best = g;
            }
            auto ov = overrides_.find(kv.first);
            unsigned cur = ov != overrides_.end()
                ? ov->second
                : static_cast<unsigned>(mix(kv.first) % numGpus_);
            if (best == cur)
                continue;
            overrides_[kv.first] = best;
            ++migrated;
        }
        heat_.clear();
        if (!overrides_.empty())
            hasOverrides_.store(true, std::memory_order_release);
        return migrated;
    }

    /** Groups currently owned away from their hash home. */
    size_t
    overrideCount() const
    {
        std::lock_guard<std::mutex> lock(heatMtx_);
        return overrides_.size();
    }

    /** Total read heat accumulated by @p tenant since the last
     *  rebalance window (serving-tier reports and tests). */
    uint64_t
    tenantHeat(uint8_t tenant) const
    {
        std::lock_guard<std::mutex> lock(heatMtx_);
        uint64_t sum = 0;
        for (const auto &kv : heat_)
            sum += kv.second.byTenant[tenant % kMaxTenants];
        return sum;
    }

    /**
     * First page index past the ownership group containing
     * @p page_idx: batched fetches clip their runs here so one batch
     * never spans two owners. FileAffinity (and Private) groups are
     * unbounded.
     */
    uint64_t
    groupEnd(uint64_t page_idx) const
    {
        if (policy_ != ShardPolicy::HashPageGroup)
            return UINT64_MAX;
        return (page_idx / pagesPerGroup_ + 1) * pagesPerGroup_;
    }

  private:
    /** GPUs the heat histogram distinguishes (the simulated systems
     *  top out well below this). */
    static constexpr unsigned kMaxHeatGpus = 8;

    struct HeatEntry {
        uint64_t byGpu[kMaxHeatGpus] = {};
        uint64_t byTenant[kMaxTenants] = {};
        uint64_t total = 0;
    };

    /** Pre-mix group identity: the unit both ownership and heat key
     *  on (a whole file under FileAffinity, a page group under
     *  HashPageGroup). */
    uint64_t
    groupKey(uint64_t ino, uint64_t page_idx) const
    {
        return policy_ == ShardPolicy::FileAffinity
            ? ino
            : ino * 0x9E3779B97F4A7C15ull + page_idx / pagesPerGroup_;
    }

    /** SplitMix64 finalizer: full-avalanche mix so consecutive groups
     *  land on de-correlated owners. */
    static uint64_t
    mix(uint64_t x)
    {
        x ^= x >> 30;
        x *= 0xBF58476D1CE4E5B9ull;
        x ^= x >> 27;
        x *= 0x94D049BB133111EBull;
        x ^= x >> 31;
        return x;
    }

    ShardPolicy policy_;
    unsigned numGpus_;
    unsigned pagesPerGroup_;

    /** Rebalance state: heat histograms and ownership overrides, both
     *  behind one mutex; the atomic flag spares ownerOf the lock while
     *  no override exists (the default). A leaf lock: reclaim calls
     *  ownerOf under BufferCache's paging lock. */
    mutable std::mutex heatMtx_;
    mutable std::unordered_map<uint64_t, HeatEntry> heat_;
    std::unordered_map<uint64_t, unsigned> overrides_;
    std::atomic<bool> hasOverrides_{false};
};

} // namespace core
} // namespace gpufs

#endif // GPUFS_GPUFS_SHARD_HH
