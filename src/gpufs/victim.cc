#include "gpufs/victim.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"

namespace gpufs {
namespace core {

VictimCache::VictimCache(uint64_t capacity_pages, uint64_t page_size,
                         StatSet &stats)
    : pageSize_(page_size), capacity_(capacity_pages),
      cntInserts_(stats.counter("vc_inserts")),
      cntHits_(stats.counter("vc_hits")),
      cntMisses_(stats.counter("vc_misses")),
      cntStale_(stats.counter("vc_version_stale")),
      cntEvictions_(stats.counter("vc_evictions"))
{
    gpufs_assert(capacity_pages > 0, "victim cache sized at zero pages");
    pool_.resize(capacity_pages * page_size);
    freeSlots_.reserve(capacity_pages);
    for (uint64_t i = capacity_pages; i-- > 0;)
        freeSlots_.push_back(static_cast<uint32_t>(i));
}

void
VictimCache::eraseLocked(std::unordered_map<uint64_t, Entry>::iterator it)
{
    tenantUsed_[it->second.tenant % kMaxTenants] -= 1;
    freeSlots_.push_back(it->second.slot);
    lru_.erase(it->second.lruPos);
    map_.erase(it);
}

void
VictimCache::setTenantQuota(TenantId tenant, uint64_t quota_pages)
{
    std::lock_guard<std::mutex> lock(mtx_);
    tenantQuota_[tenant % kMaxTenants] = quota_pages;
}

uint64_t
VictimCache::tenantPages(TenantId tenant) const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return tenantUsed_[tenant % kMaxTenants];
}

void
VictimCache::insert(uint64_t ino, uint64_t page_idx, uint64_t version,
                    const uint8_t *data, uint32_t valid, Time ready,
                    uint8_t tenant)
{
    if (valid == 0 || valid > pageSize_)
        return;
    const uint8_t t = tenant % kMaxTenants;
    const uint64_t key = keyOf(ino, page_idx);
    std::lock_guard<std::mutex> lock(mtx_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        const uint64_t quota = tenantQuota_[t];
        if (quota != 0 && tenantUsed_[t] >= quota) {
            // The demoting tenant is at its victim quota: recycle its
            // OWN least-recent entry — displacing another tenant's
            // pages would let a scan tenant flush the whole tier.
            for (auto lit = lru_.rbegin(); lit != lru_.rend(); ++lit) {
                auto own = map_.find(*lit);
                gpufs_assert(own != map_.end(), "LRU key without entry");
                if (own->second.tenant == t) {
                    eraseLocked(own);
                    cntEvictions_.inc();
                    break;
                }
            }
        }
        if (freeSlots_.empty()) {
            // Capacity: demote the tier's own LRU tail to nothing.
            auto victim = map_.find(lru_.back());
            gpufs_assert(victim != map_.end(), "LRU key without entry");
            eraseLocked(victim);
            cntEvictions_.inc();
        }
        uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        lru_.push_front(key);
        it = map_.emplace(key, Entry{version, slot, valid, ready, t,
                                     lru_.begin()}).first;
        tenantUsed_[t] += 1;
    } else {
        // Re-demotion: newer bytes replace the resident copy (and the
        // occupancy charge moves to the demoting frame's tenant).
        tenantUsed_[it->second.tenant % kMaxTenants] -= 1;
        tenantUsed_[t] += 1;
        it->second.tenant = t;
        it->second.version = version;
        it->second.valid = valid;
        it->second.ready = ready;
        lru_.splice(lru_.begin(), lru_, it->second.lruPos);
    }
    std::memcpy(pool_.data() + uint64_t(it->second.slot) * pageSize_,
                data, valid);
    cntInserts_.inc();
}

bool
VictimCache::probe(uint64_t ino, uint64_t page_idx, uint64_t cur_version,
                   uint8_t *dst, uint64_t expect, Time *ready_out)
{
    if (expect == 0 || expect > pageSize_)
        return false;
    const uint64_t key = keyOf(ino, page_idx);
    std::lock_guard<std::mutex> lock(mtx_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        cntMisses_.inc();
        return false;
    }
    if (it->second.version != cur_version) {
        // The host mutated the file since demotion (write-through
        // mirror, journal replay, truncate — every mutation bumps the
        // version): the bytes are unservable at any future version,
        // so reclaim the slot now.
        eraseLocked(it);
        cntStale_.inc();
        return false;
    }
    if (it->second.valid < expect) {
        // Same version but fewer bytes than the current size implies
        // (EOF-tail demotion of a file grown without this page being
        // touched cannot happen — growth bumps the version — so this
        // is a conservative guard, not a hot path).
        cntMisses_.inc();
        return false;
    }
    std::memcpy(dst,
                pool_.data() + uint64_t(it->second.slot) * pageSize_,
                expect);
    if (ready_out)
        *ready_out = std::max(*ready_out, it->second.ready);
    lru_.splice(lru_.begin(), lru_, it->second.lruPos);
    cntHits_.inc();
    return true;
}

void
VictimCache::invalidateRange(uint64_t ino, uint64_t off, uint64_t len)
{
    if (len == 0)
        return;
    const uint64_t first = off / pageSize_;
    const uint64_t last = (off + len - 1) / pageSize_;
    std::lock_guard<std::mutex> lock(mtx_);
    for (uint64_t idx = first; idx <= last; ++idx) {
        auto it = map_.find(keyOf(ino, idx));
        if (it != map_.end())
            eraseLocked(it);
    }
}

void
VictimCache::dropFile(uint64_t ino)
{
    std::lock_guard<std::mutex> lock(mtx_);
    for (auto it = map_.begin(); it != map_.end();) {
        auto cur = it++;
        if ((cur->first >> 32) == ino)
            eraseLocked(cur);
    }
}

uint64_t
VictimCache::residentPages() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return map_.size();
}

} // namespace core
} // namespace gpufs
