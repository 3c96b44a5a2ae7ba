#include "gpufs/buffer_cache.hh"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "base/logging.hh"
#include "gpufs/victim.hh"
#include "sim/context.hh"

namespace gpufs {
namespace core {

// ---------------------------------------------------------------------
// Eviction policies
// ---------------------------------------------------------------------

namespace {

/**
 * The paper's policy (§4.2): three constant-work passes over the file
 * table's live caches — closed clean files (evictable with no GPU-CPU
 * communication), then open read-only files, then writable files as a
 * last resort. Within a file, frames go in the FIFO order of their
 * leaf nodes.
 */
class PaperTieredPolicy : public EvictionPolicy
{
  public:
    const char *name() const override { return "paper_tiered"; }

    unsigned
    reclaim(const std::vector<CacheFile *> &files, FrameArena &,
            unsigned want, const EvictFn &evict) override
    {
        unsigned freed = 0;
        for (int pass = 0; pass < 3 && freed < want; ++pass) {
            for (CacheFile *f : files) {
                if (freed >= want)
                    break;
                if (!f->cache)
                    continue;
                bool open_ro = !f->closed && !f->write;
                bool clean = f->cache->dirtyCount() == 0;
                bool eligible = false;
                bool allow_dirty = false;
                switch (pass) {
                  case 0:
                    eligible = f->closed && clean;
                    break;
                  case 1:
                    eligible = open_ro;
                    break;
                  case 2:
                    eligible = true;    // last resort: writable files
                    allow_dirty = true;
                    break;
                }
                if (!eligible)
                    continue;
                freed += evict(*f, allow_dirty, want - freed, kNoFrame);
            }
        }
        return freed;
    }
};

/**
 * Ablations that snapshot the whole arena and evict in sort-key order —
 * exactly the variable-work shape §4.2 rejects, since the scan runs on
 * the faulting application block's thread.
 *
 * Global LRU keys on the access stamp alone. 2Q-style scan resistance
 * (@p two_q) evicts frames pinned at most once since they were claimed
 * (probationary — a scan touches each page exactly once) before frames
 * pinned again (protected — proven reuse), each set in access-stamp
 * order. Under a victim tier 2Q is the interesting contender: it
 * demotes scan pollution first, keeping the reused set in GPU memory.
 */
class ArenaScanPolicy : public EvictionPolicy
{
  public:
    explicit ArenaScanPolicy(bool two_q) : twoQ_(two_q) {}

    const char *name() const override
    {
        return twoQ_ ? "two_q" : "global_lru";
    }

    unsigned
    reclaim(const std::vector<CacheFile *> &files, FrameArena &arena,
            unsigned want, const EvictFn &evict) override
    {
        std::unordered_map<uint64_t, CacheFile *> by_uid;
        for (CacheFile *f : files) {
            if (f->cache)
                by_uid.emplace(f->cache->uid(), f);
        }
        // Snapshot every evictable frame ordered by the sort key, then
        // walk the order evicting those exact frames, skipping victims
        // that race away (pinned between the scan and the eviction
        // attempt) instead of aborting the pass — giving up while
        // evictable frames remain would surface as spurious NoSpace
        // failures in the caller.
        struct Candidate {
            uint64_t stamp;
            uint32_t pins;
            uint32_t frame;
            CacheFile *file;
        };
        std::vector<Candidate> order;
        for (uint32_t fr = 0; fr < arena.numFrames(); ++fr) {
            PFrame &pf = arena.frame(fr);
            uint64_t uid = pf.fileUid.load(std::memory_order_acquire);
            if (uid == 0)
                continue;
            auto *p = static_cast<FPage *>(
                pf.owner.load(std::memory_order_acquire));
            if (!p || p->refs.load(std::memory_order_relaxed) != 0)
                continue;
            auto it = by_uid.find(uid);
            if (it == by_uid.end())
                continue;
            order.push_back(
                {pf.lastAccess.load(std::memory_order_relaxed),
                 pf.pinCount.load(std::memory_order_relaxed), fr,
                 it->second});
        }
        std::sort(order.begin(), order.end(),
                  [this](const Candidate &a, const Candidate &b) {
                      bool ap = a.pins <= 1, bp = b.pins <= 1;
                      if (twoQ_ && ap != bp)
                          return ap;     // 2Q: probationary first
                      return a.stamp < b.stamp;
                  });
        unsigned freed = 0;
        for (const Candidate &c : order) {
            if (freed >= want)
                break;
            freed += evict(*c.file, true, 1, c.frame);
        }
        return freed;
    }

  private:
    const bool twoQ_;
};

} // namespace

std::unique_ptr<EvictionPolicy>
makeEvictionPolicy(EvictionPolicyKind kind)
{
    switch (kind) {
      case EvictionPolicyKind::PaperTiered:
        return std::make_unique<PaperTieredPolicy>();
      case EvictionPolicyKind::GlobalLru:
        return std::make_unique<ArenaScanPolicy>(false);
      case EvictionPolicyKind::TwoQ:
        return std::make_unique<ArenaScanPolicy>(true);
    }
    gpufs_fatal("unknown eviction policy kind");
    return nullptr;
}

// ---------------------------------------------------------------------
// BufferCache
// ---------------------------------------------------------------------

BufferCache::BufferCache(gpu::GpuDevice &device, rpc::RpcQueue &rpc_queue,
                         const GpuFsParams &fs_params, StatSet &stat_set)
    : dev(device), queue(rpc_queue), params_(fs_params),
      arena_(fs_params.cacheBytes, fs_params.pageSize),
      policy_(makeEvictionPolicy(fs_params.evictPolicy)),
      cntCacheHits(stat_set.counter("cache_hits")),
      cntCacheMisses(stat_set.counter("cache_misses")),
      // Table 2 semantics: a "lock-free access" is a page access whose
      // fast-path pin succeeds; a "locked access" is one that had to
      // take the fpage lock (initialization, eviction collisions).
      cntLockfree(stat_set.counter("lockfree_accesses")),
      cntLocked(stat_set.counter("locked_accesses")),
      cntReadRpcs(stat_set.counter("read_rpcs")),
      cntBatchReadRpcs(stat_set.counter("batch_read_rpcs")),
      cntBatchPages(stat_set.counter("batch_read_pages")),
      cntWriteRpcs(stat_set.counter("writeback_rpcs")),
      cntBatchWriteRpcs(stat_set.counter("batch_write_rpcs")),
      cntBatchWritePages(stat_set.counter("batch_write_pages")),
      // Sharded multi-GPU: non-owner misses that went to a peer, split
      // into pages the owner served (P2P forward) vs host fallback —
      // together these count every non-owner miss.
      cntPeerReadRpcs(stat_set.counter("peer_read_rpcs")),
      cntPeerPagesForwarded(stat_set.counter("peer_pages_forwarded")),
      cntPeerPagesFallback(stat_set.counter("peer_pages_fallback")),
      cntPeerWriteRpcs(stat_set.counter("peer_write_rpcs")),
      cntPeerExtentsMirrored(stat_set.counter("peer_extents_mirrored")),
      // Adaptive read-ahead feedback: every ra_issued page is counted
      // exactly once more as ra_hit (first pin promoted it) or
      // ra_wasted (evicted/dropped never pinned).
      cntRaIssued(stat_set.counter("ra_issued")),
      cntRaGhostHits(stat_set.counter("ra_ghost_hits")),
      // Per-stream read-ahead: stream-table occupancy high-water and
      // live-slot recycles (cross-block scan health signals).
      cntRaStreamsActive(stat_set.counter("ra_streams_active")),
      cntRaStreamRecycles(stat_set.counter("ra_stream_recycles")),
      cacheCounters_(cacheCounters(stat_set))
{
    dev.allocDeviceMem(params_.cacheBytes);
    // Serving tier: arm the per-tenant frame quotas before any fault
    // can allocate (configuration-time write, see setTenantQuota).
    for (unsigned t = 0; t < kMaxTenants; ++t)
        arena_.setTenantQuota(static_cast<TenantId>(t),
                              params_.tenantFrameQuota[t]);
    // GPUDirect registration constraint: storage DMAs land in BAR
    // windows mapped at gdsAlignBytes granularity, so a frame whose
    // byte offset in the raw data array misses that boundary cannot be
    // a direct-DMA target. Counted once at construction — the arena
    // geometry is fixed — and asserted zero for the default shapes
    // (pageSize is a multiple of the alignment).
    const uint64_t align = dev.simContext().params.gdsAlignBytes;
    uint64_t unaligned = 0;
    if (align > 0) {
        for (uint32_t i = 0; i < arena_.numFrames(); ++i) {
            if ((uint64_t(i) * params_.pageSize) % align != 0)
                ++unaligned;
        }
    }
    stat_set.counter("gds_unaligned_frames").set(unaligned);
}

BufferCache::~BufferCache()
{
    dev.freeDeviceMem(params_.cacheBytes);
}

CacheCounters
BufferCache::cacheCounters(StatSet &stat_set)   // static
{
    // Radix-tree *walk* counters are tracked separately from the
    // page-access counters above (walks hardly ever lock because
    // nodes are never deleted; page pins do lock under paging).
    return CacheCounters{stat_set.counter("radix_lockfree_walks"),
                         stat_set.counter("radix_locked_walks"),
                         stat_set.counter("pages_reclaimed"),
                         stat_set.counter("ra_hit"),
                         stat_set.counter("ra_wasted")};
}

namespace {

/** Attach-order position of @p f in @p list (a paging list). */
std::vector<CacheFile *>::iterator
listPos(std::vector<CacheFile *> &list, const CacheFile *f)
{
    return std::lower_bound(list.begin(), list.end(), f,
                            [](const CacheFile *a, const CacheFile *b) {
                                return a->attachIdx < b->attachIdx;
                            });
}

/** Add an attached file to @p list unless it is already there. */
void
listAdd(std::vector<CacheFile *> &list, CacheFile *f)
{
    if (f->attachIdx == CacheFile::kNotAttached)
        return;
    auto pos = listPos(list, f);
    if (pos == list.end() || *pos != f)
        list.insert(pos, f);
}

void
listDrop(std::vector<CacheFile *> &list, CacheFile *f)
{
    auto pos = listPos(list, f);
    if (pos != list.end() && *pos == f)
        list.erase(pos);
}

} // namespace

void
BufferCache::attach(CacheFile &f)
{
    PagingGuard lock(*this);
    f.attachIdx = nextAttachIdx_++;
}

void
BufferCache::setupFile(CacheFile &f)
{
    PagingGuard lock(*this);
    listAdd(live_, &f);
    f.cache = std::make_unique<FileCache>(arena_, cacheCounters_,
                                          params_.forceLockedTraversal);
    // Eviction-side prefetch feedback (noteWasted) reaches the file's
    // tracker through the cache; wired before any page can publish.
    f.cache->setTracker(&f.ra);
    // Serving tier: frame claims made through this cache bill the
    // opener's tenant (quota checked in FrameArena::allocFor).
    f.cache->setTenantTag(&f.tenant);
}

int
BufferCache::parkFile(CacheFile &f, uint64_t close_seq)
{
    PagingGuard lock(*this);
    f.closeSeq = close_seq;
    f.closed = true;
    if (f.cache && (f.cache->dirtyCount() != 0 ||
                    f.wbInFlight.load() != 0 ||
                    f.fetchInFlight.load() != 0 ||
                    f.opInFlight.load() != 0)) {
        // Keep the fd: eviction may still write back, an in-flight
        // drain (async flusher) still needs it — its take made the
        // count 0 before its RPC landed — a split-phase fetch
        // (wait-after-close) reads through it until collected, and an
        // unretired async op may need it to refetch evicted pages at
        // resolution. maybeReleaseClosedFd picks the fd up once they
        // complete.
        if (f.hostFd >= 0)
            listAdd(keptFd_, &f);
        return -1;
    }
    int old_fd = f.hostFd;
    f.hostFd = -1;
    return old_fd;
}

int
BufferCache::reopenFile(CacheFile &f, int new_host_fd)
{
    PagingGuard lock(*this);
    int old_fd = f.hostFd;
    f.hostFd = new_host_fd;
    f.closed = false;
    listDrop(keptFd_, &f);
    return old_fd;
}

bool
BufferCache::dropPages(CacheFile &f)
{
    PagingGuard lock(*this);
    if (f.fetchInFlight.load(std::memory_order_acquire) != 0)
        return false;   // split-phase fetch targets these frames
    bool dropped = f.cache ? f.cache->dropAll() : true;
    noteEvictedParked(f);
    return dropped;
}

void
BufferCache::noteEvictedParked(CacheFile &f)
{
    if (!f.closed)
        return;
    std::lock_guard<std::mutex> lock(evictedMtx_);
    if (f.evictNoted)
        return;
    f.evictNoted = true;
    evictedParked_.push_back(&f);
}

std::vector<CacheFile *>
BufferCache::takeEvictedParked()
{
    std::vector<CacheFile *> out;
    std::lock_guard<std::mutex> lock(evictedMtx_);
    out.swap(evictedParked_);
    for (CacheFile *f : out)
        f->evictNoted = false;
    return out;
}

void
BufferCache::destroyFile(CacheFile &f)
{
    PagingGuard lock(*this);
    if (!f.cache)
        return;
    bool clean = f.cache->dropAll();
    gpufs_assert(clean, "destroying file cache with pinned pages");
    f.cache.reset();
    listDrop(live_, &f);
    listDrop(keptFd_, &f);
}

Status
BufferCache::fetchPage(gpu::BlockCtx &ctx, CacheFile &f, uint64_t page_idx,
                       uint8_t *data, uint32_t *valid, Time *done)
{
    const uint64_t page_size = params_.pageSize;
    if (f.wronce) {
        // The pristine copy is implicitly all zeros (§3.1): no fetch,
        // no DMA — the page is "ready" from the beginning of time for
        // any block's virtual clock (see pinPage's skip_fetch note).
        std::memset(data, 0, page_size);
        *valid = 0;
        *done = 0;
        return Status::Ok;
    }
    bool peer = false;
    rpc::RpcResponse resp = queue.call(
        readRequest(ctx, f, page_idx, &data, 1, /*single=*/true, &peer));
    (peer ? cntPeerReadRpcs : cntReadRpcs).inc();
    if (!ok(resp.status))
        return resp.status;
    if (peer) {
        cntPeerPagesForwarded.inc(resp.peerPages);
        cntPeerPagesFallback.inc(resp.peerPages ? 0 : 1);
    }
    if (resp.bytes < page_size)
        std::memset(data + resp.bytes, 0, page_size - resp.bytes);
    *valid = static_cast<uint32_t>(resp.bytes);
    *done = resp.done;
    return Status::Ok;
}

Time
BufferCache::writebackExtent(CacheFile &f, uint64_t page_idx,
                             const uint8_t *data, uint32_t lo, uint32_t hi,
                             Time issue, Status *st)
{
    gpufs_assert(f.hostFd >= 0, "write-back without host fd");

    // Diff-and-merge (extension, §3.1): the GPU "diffs the working and
    // the pristine copies at the next synchronization point". Each
    // byte is read from the working copy exactly once, folded into the
    // pristine, and exactly that value is propagated — so a concurrent
    // writer racing this scan either lands before the single read
    // (propagated now) or after it (differs from the refreshed
    // pristine, propagated by the next sync). Only changed runs are
    // written, preserving other processors' updates to falsely shared
    // pages.
    uint32_t working = arena_.frameOf(data);
    uint8_t *pristine_base = nullptr;
    if (params_.enableDiffMerge && !f.wronce && working != kNoFrame) {
        uint32_t pr = arena_.frame(working).pristineFrame.load(
            std::memory_order_acquire);
        if (pr != kNoFrame)
            pristine_base = arena_.data(pr);
    }
    if (pristine_base) {
        // Charge the GPU-side diff scan (read both copies).
        Time t = issue + transferTime(2 * (hi - lo),
                                      dev.simContext().params.gpuMemBwMBps);
        Time max_done = t;
        Status agg = Status::Ok;
        // Changed runs batch into WritePages requests (up to
        // kMaxBatchPages runs each) instead of one WriteBack RPC per
        // run: a heavily fragmented page pays one request charge per
        // batch, not per run.
        WriteExtent runs[rpc::kMaxBatchPages];
        unsigned nruns = 0;
        auto flush_runs = [&]() {
            if (nruns == 0)
                return;
            Time done = t;
            Status run_st = writeExtentsRpc(f, runs, nruns,
                                            /*zero_diff=*/false, t, &done);
            if (!ok(run_st))
                agg = run_st;
            max_done = std::max(max_done, done);
            nruns = 0;
        };
        uint32_t i = lo;
        while (i < hi) {
            while (i < hi && data[i] == pristine_base[i])
                ++i;
            uint32_t run = i;
            while (run < hi) {
                uint8_t v = data[run];      // single racy read, folded
                if (v == pristine_base[run])
                    break;
                pristine_base[run] = v;
                ++run;
            }
            if (run > i) {
                if (params_.batchWriteback) {
                    if (nruns == rpc::kMaxBatchPages)
                        flush_runs();
                    runs[nruns++] = {page_idx * params_.pageSize + i,
                                     run - i,
                                     pristine_base + i};  // stable snapshot
                } else {
                    rpc::RpcRequest req;
                    req.op = rpc::RpcOp::WriteBack;
                    req.hostFd = f.hostFd;
                    req.offset = page_idx * params_.pageSize + i;
                    req.len = run - i;
                    req.data = pristine_base + i;   // stable snapshot
                    req.gpuId = dev.id();
                    req.issueTime = t;
                    req.tenant = f.tenant.load(std::memory_order_relaxed);
                    rpc::RpcResponse r = queue.call(req);
                    cntWriteRpcs.inc();
                    if (!ok(r.status)) {
                        agg = r.status;
                    } else {
                        if (r.version != 0)
                            f.version.store(r.version,
                                            std::memory_order_relaxed);
                        f.needsFsync.store(true,
                                           std::memory_order_release);
                    }
                    max_done = std::max(max_done, r.done);
                }
            }
            i = run;
        }
        flush_runs();
        if (st)
            *st = agg;
        return max_done;
    }

    rpc::RpcRequest req;
    req.op = rpc::RpcOp::WriteBack;
    req.hostFd = f.hostFd;
    req.offset = page_idx * params_.pageSize + lo;
    req.len = hi - lo;
    req.data = const_cast<uint8_t *>(data) + lo;
    req.diffAgainstZeros = f.wronce;
    req.gpuId = dev.id();
    req.issueTime = issue;
    req.tenant = f.tenant.load(std::memory_order_relaxed);
    rpc::RpcResponse resp = queue.call(req);
    cntWriteRpcs.inc();
    if (st)
        *st = resp.status;
    if (ok(resp.status)) {
        if (resp.version != 0) {
            // Track the version our own write produced so reopen does
            // not mistake it for a remote modification.
            f.version.store(resp.version, std::memory_order_relaxed);
        }
        f.needsFsync.store(true, std::memory_order_release);
    }
    return resp.done;
}

Status
BufferCache::writeExtentsRpc(CacheFile &f, const WriteExtent *ext,
                             unsigned n, bool zero_diff, Time issue,
                             Time *done_out)
{
    gpufs_assert(f.hostFd >= 0, "write-back without host fd");
    gpufs_assert(n >= 1 && n <= rpc::kMaxBatchPages,
                 "write batch size out of range");
    rpc::RpcRequest req;
    req.op = rpc::RpcOp::WritePages;
    req.hostFd = f.hostFd;
    req.diffAgainstZeros = zero_diff;
    req.gpuId = dev.id();
    req.issueTime = issue;
    req.tenant = f.tenant.load(std::memory_order_relaxed);
    req.pageCount = n;
    uint64_t total = 0;
    for (unsigned i = 0; i < n; ++i) {
        req.batch[i] = const_cast<uint8_t *>(ext[i].data);
        req.batchOff[i] = ext[i].off;
        req.batchLen[i] = ext[i].len;
        total += ext[i].len;
    }
    req.len = total;
    rpc::RpcResponse resp = queue.call(req);
    cntBatchWriteRpcs.inc();
    cntBatchWritePages.inc(n);
    if (done_out)
        *done_out = resp.done;
    if (!ok(resp.status))
        return resp.status;
    if (resp.version != 0) {
        // Track the version our own write produced so reopen does not
        // mistake it for a remote modification.
        f.version.store(resp.version, std::memory_order_relaxed);
    }
    f.needsFsync.store(true, std::memory_order_release);
    return Status::Ok;
}

Status
BufferCache::peerWriteExtentsRpc(CacheFile &f, unsigned owner_gpu,
                                 const WriteExtent *ext, unsigned n,
                                 uint64_t base_version, bool publish,
                                 Time issue, Time *done_out)
{
    gpufs_assert(f.hostFd >= 0, "write-back without host fd");
    gpufs_assert(n >= 1 && n <= rpc::kMaxBatchPages,
                 "peer write batch size out of range");
    rpc::RpcRequest req;
    req.op = rpc::RpcOp::PeerWritePages;
    req.hostFd = f.hostFd;
    req.peerGpu = owner_gpu;
    req.ino = f.ino;
    // The version the OWNER is expected to sit at: the one from
    // before this flush's first partition — a sibling partition's
    // host write must not fail every later partition's mirror gate.
    req.version = base_version;
    req.peerPublish = publish;
    req.pageLen = params_.pageSize;
    req.gpuId = dev.id();
    req.issueTime = issue;
    req.tenant = f.tenant.load(std::memory_order_relaxed);
    req.pageCount = n;
    uint64_t total = 0;
    for (unsigned i = 0; i < n; ++i) {
        req.batch[i] = const_cast<uint8_t *>(ext[i].data);
        req.batchOff[i] = ext[i].off;
        req.batchLen[i] = ext[i].len;
        total += ext[i].len;
    }
    req.len = total;
    rpc::RpcResponse resp = queue.call(req);
    cntPeerWriteRpcs.inc();
    if (done_out)
        *done_out = std::max(*done_out, resp.done);
    if (!ok(resp.status))
        return resp.status;
    cntPeerExtentsMirrored.inc(resp.peerPages);
    if (resp.version != 0) {
        // The host write-through bumped the version; track it so
        // reopen does not mistake our own write for a remote one.
        f.version.store(resp.version, std::memory_order_relaxed);
    }
    f.needsFsync.store(true, std::memory_order_release);
    return Status::Ok;
}

Status
BufferCache::writeBatchSharded(CacheFile &f, const DirtyExtent *ext,
                               unsigned n, Time issue, Time *done_out,
                               bool *ext_failed)
{
    if (ext_failed)
        std::fill(ext_failed, ext_failed + n, false);
    WriteExtent w[rpc::kMaxBatchPages];
    for (unsigned i = 0; i < n; ++i) {
        w[i] = {ext[i].pageIdx * params_.pageSize + ext[i].lo,
                ext[i].hi - ext[i].lo,
                arena_.data(ext[i].frame) + ext[i].lo};
    }
    if (!shardedFile(f)) {
        Time done = issue;
        Status st = writeExtentsRpc(f, w, n, f.wronce, issue, &done);
        if (done_out)
            *done_out = std::max(*done_out, done);
        if (!ok(st) && ext_failed)
            std::fill(ext_failed, ext_failed + n, true);
        return st;
    }

    // Partition the taken batch by page owner: self-owned extents ride
    // one plain WritePages; each peer owner's extents ride one
    // PeerWritePages. Write-back thus stays owner-local without the
    // PR-2 take/finish machinery above this call changing at all.
    unsigned owner_of[rpc::kMaxBatchPages];
    unsigned partitions = 0;
    for (unsigned i = 0; i < n; ++i) {
        owner_of[i] = pageOwner(f, ext[i].pageIdx);
        bool seen = false;
        for (unsigned j = 0; j < i; ++j)
            seen = seen || owner_of[j] == owner_of[i];
        partitions += seen ? 0 : 1;
    }
    // Version the whole flush gates on (see peerWriteExtentsRpc); the
    // owner may have its post-write version published only when this
    // flush has a single partition — with siblings, other pages of the
    // file change in the same flush and a publish would validate the
    // owner's possibly-stale copies of them.
    const uint64_t base_version =
        f.version.load(std::memory_order_relaxed);
    const bool publish = partitions == 1;

    Status agg = Status::Ok;
    bool used[rpc::kMaxBatchPages] = {};
    for (unsigned i = 0; i < n; ++i) {
        if (used[i])
            continue;
        unsigned owner = owner_of[i];
        WriteExtent grp[rpc::kMaxBatchPages];
        unsigned members[rpc::kMaxBatchPages];
        unsigned g = 0;
        for (unsigned j = i; j < n; ++j) {
            if (!used[j] && owner_of[j] == owner) {
                members[g] = j;
                grp[g++] = w[j];
                used[j] = true;
            }
        }
        Time done = issue;
        Status one = owner == dev.id()
            ? writeExtentsRpc(f, grp, g, /*zero_diff=*/false, issue,
                              &done)
            : peerWriteExtentsRpc(f, owner, grp, g, base_version,
                                  publish, issue, &done);
        if (done_out)
            *done_out = std::max(*done_out, done);
        if (!ok(one)) {
            if (ext_failed) {
                for (unsigned k = 0; k < g; ++k)
                    ext_failed[members[k]] = true;
            }
            if (ok(agg))
                agg = one;
        }
    }
    return agg;
}

Status
BufferCache::flushDirty(gpu::BlockCtx &ctx, CacheFile &f,
                        uint64_t first_page, uint64_t last_page,
                        unsigned *pages_out, uint64_t max_pages)
{
    if (pages_out)
        *pages_out = 0;
    if (!f.cache)
        return Status::Ok;
    // Mark the drain in flight for its whole duration: once a take
    // drops dirtyCount() to 0, this is the only signal telling fd
    // release (parkFile, the closed-fd sweep) that the host fd is
    // still needed by our not-yet-landed RPCs.
    struct WbGuard {
        CacheFile &cf;
        explicit WbGuard(CacheFile &file) : cf(file)
        {
            cf.wbInFlight.fetch_add(1);
        }
        ~WbGuard() { cf.wbInFlight.fetch_sub(1); }
    } wb_guard(f);
    // Callers draining for durability (gfsync, truncate, recycle — no
    // page bound) must also wait out extents a CONCURRENT collector
    // (e.g. the async flusher) took and still has in flight; bounded
    // callers (eviction, the flusher itself) don't make that promise.
    const bool durability = max_pages == UINT64_MAX;

    // Diff-and-merge pages must diff against their GPU-side pristine
    // copies, so they go through writebackExtent per page (each page's
    // changed runs still batch into WritePages there).
    if (!params_.batchWriteback || diffMergeActive(f)) {
        Status st = flushDirtyPerPage(ctx, f, first_page, last_page,
                                      pages_out, max_pages);
        if (ok(st) && durability)
            f.cache->awaitWritebacks(first_page, last_page);
        return st;
    }

    Time max_done = ctx.now();
    Status agg = Status::Ok;
    // Bound the drain to the pages dirty at entry (gfsync's contract:
    // pages dirtied after the sync started belong to a later sync), so
    // a concurrent writer cannot keep this loop alive forever; callers
    // may bound it further via max_pages.
    uint64_t budget = std::min(f.cache->dirtyCount(), max_pages);
    while (budget > 0) {
        DirtyExtent ext[rpc::kMaxBatchPages];
        unsigned n = f.cache->takeDirtyBatch(
            first_page, last_page, ext,
            static_cast<unsigned>(
                std::min<uint64_t>(budget, rpc::kMaxBatchPages)));
        if (n == 0)
            break;
        budget -= std::min<uint64_t>(budget, n);
        if (f.hostFd < 0) {
            if (f.noSync) {
                // NOSYNC temp whose fd is gone: never written back
                // anyway; discard.
                f.cache->finishDirtyBatch(ext, n, /*restore=*/false);
                continue;
            }
            // A host-synced file without an fd must not silently eat
            // dirty data — restore and report (should be unreachable:
            // fd release defers while pages are dirty or in flight).
            f.cache->finishDirtyBatch(ext, n, /*restore=*/true);
            gpufs_warn("dirty pages on fd-less host-synced file");
            agg = Status::BadFd;
            break;
        }
        // All write-backs are issued at the current clock so their DMA
        // and host I/O pipeline on the resource timelines. Sharded
        // files partition the batch by page owner (peer extents ride
        // PeerWritePages, mirroring the owner's resident copy on the
        // way to the host); private files take one WritePages.
        Time done = ctx.now();
        bool failed[rpc::kMaxBatchPages] = {};
        Status one = writeBatchSharded(f, ext, n, ctx.now(), &done,
                                       failed);
        if (!ok(one)) {
            // Restore ONLY the failed partitions' extents so a later
            // sync retries exactly them (a sharded batch may have
            // landed sibling partitions on the host already); stop
            // rather than re-take the same failing pages.
            DirtyExtent good[rpc::kMaxBatchPages];
            DirtyExtent bad[rpc::kMaxBatchPages];
            unsigned ng = 0, nb = 0;
            for (unsigned i = 0; i < n; ++i)
                (failed[i] ? bad[nb++] : good[ng++]) = ext[i];
            if (ng > 0) {
                f.cache->finishDirtyBatch(good, ng, /*restore=*/false);
                if (pages_out)
                    *pages_out += ng;
            }
            f.cache->finishDirtyBatch(bad, nb, /*restore=*/true);
            agg = one;
            break;
        }
        f.cache->finishDirtyBatch(ext, n, /*restore=*/false);
        if (pages_out)
            *pages_out += n;
        max_done = std::max(max_done, done);
    }
    if (ok(agg) && durability)
        f.cache->awaitWritebacks(first_page, last_page);
    ctx.waitUntil(max_done);
    return agg;
}

Status
BufferCache::flushDirtyPerPage(gpu::BlockCtx &ctx, CacheFile &f,
                               uint64_t first_page, uint64_t last_page,
                               unsigned *pages_out, uint64_t max_pages)
{
    Time max_done = ctx.now();
    Status agg = Status::Ok;
    uint64_t left = max_pages;
    unsigned flushed = f.cache->forEachDirty(
        [&](uint64_t idx, uint8_t *data, uint32_t lo,
            uint32_t hi) -> bool {
            if (left == 0)
                return false;    // page cap hit: keep the rest dirty
            if (idx < first_page || idx >= last_page)
                return false;    // outside the range: keep it dirty
            Status one;
            // All write-backs are issued at the current clock so their
            // DMA and host I/O pipeline on the resource timelines.
            Time done = writebackExtent(f, idx, data, lo, hi, ctx.now(),
                                        &one);
            max_done = std::max(max_done, done);
            if (!ok(one)) {
                agg = one;
                return false;   // restore the extent: a later sync retries
            }
            --left;
            return true;
        });
    if (pages_out)
        *pages_out = flushed;
    ctx.waitUntil(max_done);
    return agg;
}

unsigned
BufferCache::submitFlush(gpu::BlockCtx &ctx, CacheFile &f,
                         uint64_t first_page, uint64_t last_page,
                         PendingFlush *out, unsigned max_batches)
{
    if (!f.cache || f.noSync || f.hostFd < 0 || !params_.batchWriteback)
        return 0;
    // Diff-and-merge extents must diff against GPU-side pristine
    // copies page by page — they stay on the synchronous path.
    if (diffMergeActive(f))
        return 0;
    const uint64_t page_size = params_.pageSize;
    const bool sharded = shardedFile(f);
    unsigned nb = 0;
    uint64_t budget = f.cache->dirtyCount();
    bool stop = false;
    while (!stop && nb < max_batches && budget > 0) {
        DirtyExtent take[rpc::kMaxBatchPages];
        unsigned n = f.cache->takeDirtyBatch(
            first_page, last_page, take,
            static_cast<unsigned>(
                std::min<uint64_t>(budget, rpc::kMaxBatchPages)));
        if (n == 0)
            break;
        budget -= std::min<uint64_t>(budget, n);

        // Partition the take by page owner, exactly like the wait-time
        // writeBatchSharded: self-owned extents ride one WritePages,
        // each peer owner's one PeerWritePages (private files are one
        // self partition). One output slot per partition.
        unsigned owner_of[rpc::kMaxBatchPages];
        unsigned partitions = 0;
        for (unsigned i = 0; i < n; ++i) {
            owner_of[i] = sharded ? pageOwner(f, take[i].pageIdx)
                                  : dev.id();
            bool seen = false;
            for (unsigned j = 0; j < i; ++j)
                seen = seen || owner_of[j] == owner_of[i];
            partitions += seen ? 0 : 1;
        }
        if (nb + partitions > max_batches) {
            // Not enough output slots for every partition of this
            // take: restore it whole — a partial submit would need
            // wait-time code to know which partitions went out.
            f.cache->finishDirtyBatch(take, n, /*restore=*/true);
            break;
        }
        // Peer mirrors gate on the pre-flush version; publish of the
        // post-write version is safe only when the whole take is one
        // partition (see writeBatchSharded).
        const uint64_t base_version =
            f.version.load(std::memory_order_relaxed);
        const bool publish = partitions == 1;

        bool used[rpc::kMaxBatchPages] = {};
        for (unsigned i = 0; i < n; ++i) {
            if (used[i])
                continue;
            const unsigned owner = owner_of[i];
            PendingFlush &pf = out[nb];
            pf.n = 0;
            for (unsigned j = i; j < n; ++j) {
                if (!used[j] && owner_of[j] == owner) {
                    pf.ext[pf.n++] = take[j];
                    used[j] = true;
                }
            }
            pf.zeroDiff = f.wronce;
            pf.peer = owner != dev.id();
            pf.peerGpu = owner;
            rpc::RpcRequest req;
            req.hostFd = f.hostFd;
            req.diffAgainstZeros = pf.zeroDiff;
            req.gpuId = dev.id();
            req.issueTime = ctx.now();
            req.tenant = f.tenant.load(std::memory_order_relaxed);
            req.pageCount = pf.n;
            if (pf.peer) {
                req.op = rpc::RpcOp::PeerWritePages;
                req.peerGpu = owner;
                req.ino = f.ino;
                req.version = base_version;
                req.peerPublish = publish;
                req.pageLen = page_size;
            } else {
                req.op = rpc::RpcOp::WritePages;
            }
            uint64_t total = 0;
            for (unsigned k = 0; k < pf.n; ++k) {
                req.batch[k] =
                    arena_.data(pf.ext[k].frame) + pf.ext[k].lo;
                req.batchOff[k] =
                    pf.ext[k].pageIdx * page_size + pf.ext[k].lo;
                req.batchLen[k] = pf.ext[k].hi - pf.ext[k].lo;
                total += req.batchLen[k];
            }
            req.len = total;
            // The in-flight mark spans submission→wait: the take above
            // made these pages read clean, and fd release must not
            // slip in before the RPC lands. Submission must not block
            // on a full queue (the submitter may hold uncollected
            // slots) — restore the extents and leave them to the
            // wait-time drain.
            f.wbInFlight.fetch_add(1);
            pf.rpcSlot = queue.trySubmit(req);
            if (!pf.rpcSlot) {
                f.cache->finishDirtyBatch(pf.ext, pf.n,
                                          /*restore=*/true);
                f.wbInFlight.fetch_sub(1);
                // Restore the take's remaining partitions too — they
                // were taken but will never be submitted.
                DirtyExtent rest[rpc::kMaxBatchPages];
                unsigned nr = 0;
                for (unsigned j = 0; j < n; ++j) {
                    if (!used[j])
                        rest[nr++] = take[j];
                }
                if (nr > 0)
                    f.cache->finishDirtyBatch(rest, nr,
                                              /*restore=*/true);
                stop = true;
                break;
            }
            ++nb;
        }
    }
    return nb;
}

Status
BufferCache::completeFlush(CacheFile &f, PendingFlush &pf,
                           Time *done_out)
{
    if (!pf.rpcSlot)
        return Status::Ok;
    rpc::RpcResponse resp = queue.collect(*pf.rpcSlot);
    pf.rpcSlot = nullptr;
    if (pf.peer) {
        cntPeerWriteRpcs.inc();
        if (ok(resp.status))
            cntPeerExtentsMirrored.inc(resp.peerPages);
    } else {
        cntBatchWriteRpcs.inc();
        cntBatchWritePages.inc(pf.n);
    }
    if (done_out)
        *done_out = std::max(*done_out, resp.done);
    // Restore failed extents BEFORE dropping the in-flight mark so the
    // file never reads clean while its dirty data is in limbo.
    f.cache->finishDirtyBatch(pf.ext, pf.n, /*restore=*/!ok(resp.status));
    if (ok(resp.status)) {
        if (resp.version != 0)
            f.version.store(resp.version, std::memory_order_relaxed);
        f.needsFsync.store(true, std::memory_order_release);
    }
    f.wbInFlight.fetch_sub(1);
    return resp.status;
}

Status
BufferCache::syncFrame(gpu::BlockCtx &ctx, CacheFile &f, uint32_t frame)
{
    // Same in-flight marking as flushDirty: the take below makes the
    // page read clean before the RPC lands, and fd release must not
    // slip into that window.
    f.wbInFlight.fetch_add(1);
    struct WbGuard {
        CacheFile &cf;
        ~WbGuard() { cf.wbInFlight.fetch_sub(1); }
    } wb_guard{f};
    PFrame &pf = arena_.frame(frame);
    uint64_t extent = f.cache->takeDirtyCounted(pf);
    uint32_t lo = PFrame::extentLo(extent);
    uint32_t hi = PFrame::extentHi(extent);
    if (lo >= hi)
        return Status::Ok;
    Status st;
    Time done = writebackExtent(
        f, pf.pageIdx.load(std::memory_order_relaxed), arena_.data(frame),
        lo, hi, ctx.now(), &st);
    ctx.waitUntil(done);
    if (!ok(st)) {
        // Restore so a later sync can retry.
        f.cache->noteDirty(pf, lo, hi);
    }
    return st;
}

unsigned
BufferCache::reclaimFrames(gpu::BlockCtx &ctx, unsigned want, uint8_t tenant)
{
    // Paging runs on the calling block's thread — "pay-as-you-go"
    // (§3.4): no daemon threadblock exists to do it asynchronously.
    PagingGuard lock(*this);

    auto evict = [&](CacheFile &f, bool allow_dirty, unsigned n,
                     uint32_t frame_hint) -> unsigned {
        // The demote hook below must not stage bytes the host never
        // got: tryEvictPage runs the write-back (if any) first, and
        // this flag carries its outcome across the two callbacks.
        bool last_wb_failed = false;
        auto wb = [&](uint64_t idx, uint8_t *data, uint32_t lo,
                      uint32_t hi) {
            if (f.hostFd < 0) {
                last_wb_failed = true;
                return;     // NOSYNC temp whose fd is gone: discard
            }
            Status st;
            Time done = writebackExtent(f, idx, data, lo, hi, ctx.now(),
                                        &st);
            ctx.waitUntil(done);
            if (!ok(st)) {
                last_wb_failed = true;
                gpufs_warn("eviction write-back failed: %s",
                           statusName(st));
            }
        };
        // Demotion: instead of dropping an evicted frame's bytes,
        // stage them in the host-RAM victim tier so a re-miss costs
        // one H2D DMA instead of a storage round-trip. Runs under the
        // fpage lock (bytes stable), after any dirty write-back — a
        // dirty page demotes its POST-write content tagged with the
        // post-write version writebackExtent stored. Files whose GPU
        // copy legitimately diverges from the host (NOSYNC temps,
        // zero-pristine wronce, diff-merge) never demote: the daemon
        // would serve their bytes as host content. The D2H rides the
        // dedicated host-staging timeline fire-and-forget; the
        // evicting block's clock does not advance (pay-as-you-go only
        // for work the block needs).
        auto demote = [&](uint64_t idx, const uint8_t *data,
                          uint32_t valid) {
            bool failed = last_wb_failed;
            last_wb_failed = false;
            if (!victim_ || failed || valid == 0)
                return;
            if (f.noSync || f.wronce || diffMergeActive(f) || f.ino == 0)
                return;
            auto &sim = dev.simContext();
            const auto &hp = sim.params;
            Time ready = ctx.now();
            if (hp.chargeDma) {
                ready = sim.hostStage(dev.id())
                            .reserve(ctx.now(),
                                     hp.dmaSetup +
                                         transferTime(valid,
                                                      hp.pcieBwD2HMBps))
                            .end;
            }
            // Victim occupancy is charged to the tenant stamped on the
            // FRAME (the one whose fault claimed it), not the evictor:
            // eviction must not let tenant A launder its footprint into
            // tenant B's victim quota.
            uint32_t fr = arena_.frameOf(data);
            uint8_t owner_tenant = fr != kNoFrame
                ? arena_.frame(fr).tenant.load(std::memory_order_relaxed)
                : 0;
            victim_->insert(f.ino, idx,
                            f.version.load(std::memory_order_relaxed),
                            data, valid, ready, owner_tenant);
        };
        if (frame_hint != kNoFrame) {
            unsigned freed = f.cache->evictFrame(frame_hint, allow_dirty,
                                                 wb, demote);
            if (freed != 0)
                noteEvictedParked(f);
            return freed;
        }
        if (allow_dirty && params_.batchWriteback && f.hostFd >= 0 &&
            !f.noSync && f.cache->dirtyCount() != 0) {
            // Dirty eviction routes through the batched path: push
            // about as many of the file's oldest dirty extents home as
            // frames are wanted (takeDirtyBatch walks the same FIFO
            // order reclaim evicts in), as WritePages batches, so the
            // reclaim below finds clean pages. Bounded: draining the
            // whole file under the paging lock would stall every other
            // block needing a frame. The per-page wb above stays as
            // the backstop for dirty pages the bound left behind.
            Status st = flushDirty(ctx, f, 0, UINT64_MAX, nullptr,
                                   std::max<uint64_t>(
                                       n, rpc::kMaxBatchPages));
            if (!ok(st))
                gpufs_warn("eviction batch write-back failed: %s",
                           statusName(st));
        }
        unsigned freed = f.cache->reclaim(n, allow_dirty, wb, demote);
        if (freed != 0)
            noteEvictedParked(f);
        return freed;
    };

    unsigned freed;
    if (tenant != kAnyTenant && arena_.tenantAtQuota(tenant)) {
        // The faulting tenant is at its frame quota: the arena may
        // still hold free frames (other tenants' headroom), so a
        // whole-cache reclaim would evict someone else's working set
        // to make room this tenant is not entitled to. Run the policy
        // over only this tenant's files — eviction within quota.
        std::vector<CacheFile *> own;
        own.reserve(live_.size());
        for (CacheFile *f : live_) {
            if (f->tenant.load(std::memory_order_relaxed) == tenant)
                own.push_back(f);
        }
        freed = policy_->reclaim(own, arena_, want, evict);
    } else {
        freed = policy_->reclaim(live_, arena_, want, evict);
    }

    // Closed files whose last dirty page just went home can release
    // their host fd (and with it the host-side write claim). A release
    // drops the file from keptFd_, moving the next one into slot i.
    for (size_t i = 0; i < keptFd_.size();) {
        if (!maybeReleaseClosedFdLocked(ctx, *keptFd_[i]))
            ++i;
    }
    return freed;
}

void
BufferCache::maybeReleaseClosedFd(gpu::BlockCtx &ctx, CacheFile &f)
{
    PagingGuard lock(*this);
    maybeReleaseClosedFdLocked(ctx, f);
}

bool
BufferCache::maybeReleaseClosedFdLocked(gpu::BlockCtx &ctx, CacheFile &f)
{
    if (f.closed && f.hostFd >= 0 && f.cache &&
        f.cache->dirtyCount() == 0 && f.wbInFlight.load() == 0 &&
        f.fetchInFlight.load() == 0 && f.opInFlight.load() == 0) {
        rpc::RpcRequest req;
        req.op = rpc::RpcOp::Close;
        req.hostFd = f.hostFd;
        req.gpuId = dev.id();
        req.issueTime = ctx.now();
        req.tenant = f.tenant.load(std::memory_order_relaxed);
        rpc::RpcResponse resp = queue.call(req);
        ctx.waitUntil(resp.done);
        f.hostFd = -1;
        listDrop(keptFd_, &f);
        return true;
    }
    return false;
}

namespace {

/**
 * Prefetch-feedback promotion: the first APPLICATION pin of a
 * speculatively-fetched page proves the prefetch right. Runs on every
 * successful pinPage (the one place all application access paths —
 * sync gread resolution, async resolution, gmmap, RMW writes —
 * converge); daemon-side peer probes and read-ahead's own step-over
 * pins deliberately do not promote.
 */
void
promoteIfSpeculative(FrameArena &arena, CacheCounters &counters,
                     CacheFile &f, uint32_t frame)
{
    PFrame &pf = arena.frame(frame);
    if (pf.speculative.load(std::memory_order_relaxed) &&
        pf.speculative.exchange(false, std::memory_order_acq_rel)) {
        counters.raHits.inc();
        // The stream tag is stable once the exchange is won (stored
        // with the tag under the publish-time fpage lock): the hit
        // credits the stream whose window fetched the page.
        f.ra.noteHit(pf.raStream.load(std::memory_order_relaxed));
    }
}

/**
 * The prefetch stepping rule, shared by every read-ahead loop (sync
 * and split-phase, contiguous and strided): a page that is resident
 * or in flight (another block's fetch holds its lock) is hopped over
 * — under concurrent sequential readers most windows start on a
 * neighbour's in-flight page. @return false for anything else
 * (contended Empty page, arena exhausted), which ends the window —
 * prefetch must never page out on its own behalf.
 */
bool
prefetchStepOver(FileCache &c, uint64_t idx)
{
    FPage *p = c.getPage(idx);
    uint32_t fr;
    if (c.tryPinReady(*p, idx, &fr)) {
        c.unpin(*p);
        return true;
    }
    uint32_t s = p->state.load(std::memory_order_acquire);
    return s == kPageInit || s == kPageReady;
}

} // namespace

Status
BufferCache::pinPage(gpu::BlockCtx &ctx, CacheFile &f, uint64_t page_idx,
                     uint32_t *frame_out, FPage **fpage_out,
                     bool skip_fetch)
{
    if (page_idx > FileCache::maxPageIndex())
        return Status::Inval;
    // Diff-and-merge pages must snapshot the true host content as
    // their pristine copy, so the whole-page-overwrite fetch skip does
    // not apply to them.
    const bool diff_merge = diffMergeActive(f);
    if (diff_merge)
        skip_fetch = false;
    FileCache &c = *f.cache;
    FPage *p = c.getPage(page_idx);

    uint32_t frame;
    if (c.tryPinReady(*p, page_idx, &frame)) {
        cntCacheHits.inc();
        cntLockfree.inc();
        arena_.frame(frame).pinCount.fetch_add(
            1, std::memory_order_relaxed);
        promoteIfSpeculative(arena_, cacheCounters_, f, frame);
        ctx.charge(dev.simContext().params.cacheHitOverhead);
        ctx.waitUntil(arena_.frame(frame).readyTime.load(
            std::memory_order_acquire));
        *frame_out = frame;
        *fpage_out = p;
        return Status::Ok;
    }

    for (;;) {
        bool did_init = false;
        Status st = c.initAndPin(
            *p, page_idx, &frame, &did_init,
            [&](uint8_t *data, uint32_t *valid) -> Status {
                if (skip_fetch) {
                    // Whole-page overwrite: no reason to fetch content
                    // that is about to be clobbered. Zero-init needs
                    // no DMA, so readyTime stays 0: another block
                    // whose virtual clock is earlier than ours must
                    // not be stalled by OUR clock (it could equally
                    // have done the memset itself).
                    std::memset(data, 0, params_.pageSize);
                    *valid = 0;
                    return Status::Ok;
                }
                Time done = 0;
                Status fst = fetchPage(ctx, f, page_idx, data, valid,
                                       &done);
                if (!ok(fst))
                    return fst;
                PFrame &pf = arena_.frame(arena_.frameOf(data));
                pf.readyTime.store(done, std::memory_order_release);
                if (diff_merge) {
                    // §3.1: "a working copy to which local writes are
                    // performed, and a pristine copy preserved when
                    // the page is first read". One alloc attempt only:
                    // reclaim must not run while the fpage lock is
                    // held, so exhaustion rolls back to the NoSpace
                    // retry path below.
                    uint32_t pr = arena_.allocFor(
                        f.tenant.load(std::memory_order_relaxed));
                    if (pr == kNoFrame)
                        return Status::NoSpace;
                    std::memcpy(arena_.data(pr), data, params_.pageSize);
                    ctx.chargeGpuMem(params_.pageSize);
                    pf.pristineFrame.store(pr, std::memory_order_release);
                }
                return fst;
            });
        if (st == Status::NoSpace) {
            unsigned freed = reclaimFrames(
                ctx, kReclaimBatch,
                f.tenant.load(std::memory_order_relaxed));
            if (freed == 0)
                return Status::NoSpace;
            continue;
        }
        if (!ok(st))
            return st;
        cntLocked.inc();    // slow path held the fpage lock
        PFrame &pf = arena_.frame(frame);
        pf.pinCount.fetch_add(1, std::memory_order_relaxed);
        if (did_init) {
            cntCacheMisses.inc();
            ctx.charge(dev.simContext().params.pageMapOverhead);
        } else {
            cntCacheHits.inc();
            ctx.charge(dev.simContext().params.cacheHitOverhead);
            promoteIfSpeculative(arena_, cacheCounters_, f, frame);
        }
        ctx.waitUntil(pf.readyTime.load(std::memory_order_acquire));
        *frame_out = frame;
        *fpage_out = p;
        if (did_init && readAheadEnabled() && !skip_fetch && !f.wronce) {
            readAheadFrom(ctx, f, page_idx);
        }
        return Status::Ok;
    }
}

rpc::RpcRequest
BufferCache::readRequest(gpu::BlockCtx &ctx, CacheFile &f, uint64_t start_idx,
                         uint8_t *const *dsts, unsigned n, bool single,
                         bool *peer)
{
    const uint64_t page_size = params_.pageSize;
    rpc::RpcRequest req;
    req.hostFd = f.hostFd;
    req.offset = start_idx * page_size;
    req.len = uint64_t(n) * page_size;
    req.gpuId = dev.id();
    req.issueTime = ctx.now();
    req.tenant = f.tenant.load(std::memory_order_relaxed);
    if (shardedFile(f))
        shards_->recordHeat(req.tenant, f.ino, start_idx, dev.id(), n);
    // Shard-group clipping upstream guarantees one owner per batch, so
    // the whole run routes to that owner (or to the host when self):
    // the daemon serves what the owner holds peer-to-peer and falls
    // back to the host for the rest.
    unsigned owner = pageOwner(f, start_idx);
    *peer = owner != dev.id();
    if (*peer) {
        req.op = rpc::RpcOp::PeerReadPages;
        req.peerGpu = owner;
        req.ino = f.ino;
        req.version = f.version.load(std::memory_order_relaxed);
    } else if (single) {
        req.op = rpc::RpcOp::ReadPage;
        req.data = dsts[0];
        return req;
    } else {
        req.op = rpc::RpcOp::ReadPages;
    }
    req.pageLen = page_size;
    req.pageCount = n;
    std::copy(dsts, dsts + n, req.batch);
    return req;
}

bool
BufferCache::submitClaimedFetch(gpu::BlockCtx &ctx, CacheFile &f,
                                PendingFetch &pf, bool blocking)
{
    gpufs_assert(pf.n >= 1 && pf.n <= rpc::kMaxBatchPages,
                 "fetch batch size out of range");
    uint8_t *dsts[rpc::kMaxBatchPages];
    for (unsigned i = 0; i < pf.n; ++i)
        dsts[i] = arena_.data(pf.slots[i].frame);
    rpc::RpcRequest req =
        readRequest(ctx, f, pf.startIdx, dsts, pf.n, pf.single, &pf.peer);
    req.speculative = pf.spec;
    // Elevated BEFORE the request is visible to the daemon: a racing
    // fd release must never observe the RPC without the mark.
    f.fetchInFlight.fetch_add(1);
    pf.rpcSlot = blocking ? queue.submit(req) : queue.trySubmit(req);
    if (!pf.rpcSlot) {
        // Queue full: roll the claim back — the pages resolve through
        // the synchronous pin path at wait time instead.
        f.fetchInFlight.fetch_sub(1);
        f.cache->abortInitBatch(pf.slots, pf.n);
        return false;
    }
    return true;
}

Status
BufferCache::completeFetch(CacheFile &f, PendingFetch &pf)
{
    if (!pf.rpcSlot)
        return Status::Ok;
    rpc::RpcResponse resp = queue.collect(*pf.rpcSlot);
    pf.rpcSlot = nullptr;
    if (pf.peer)
        cntPeerReadRpcs.inc();
    else if (pf.single)
        cntReadRpcs.inc();
    else
        cntBatchReadRpcs.inc();
    if (ok(resp.status) && pf.peer) {
        cntPeerPagesForwarded.inc(resp.peerPages);
        cntPeerPagesFallback.inc(pf.n - std::min<uint32_t>(pf.n,
                                                           resp.peerPages));
    }
    if (!ok(resp.status)) {
        f.cache->abortInitBatch(pf.slots, pf.n);
        f.fetchInFlight.fetch_sub(1);
        return resp.status;
    }
    const uint64_t page_size = params_.pageSize;
    uint32_t valid[rpc::kMaxBatchPages];
    for (unsigned i = 0; i < pf.n; ++i) {
        uint64_t base = uint64_t(i) * page_size;
        uint64_t got = resp.bytes > base
            ? std::min<uint64_t>(page_size, resp.bytes - base) : 0;
        valid[i] = static_cast<uint32_t>(got);
        if (got < page_size) {
            std::memset(arena_.data(pf.slots[i].frame) + got, 0,
                        page_size - got);
        }
    }
    f.cache->finishInitBatch(pf.slots, pf.n, valid, resp.done, pf.spec,
                             pf.specStream);
    cntCacheMisses.inc(pf.n);
    if (pf.spec) {
        // Prefetch feedback: the pages are published and tagged — each
        // will retire as exactly one ra_hit or ra_wasted, credited to
        // the stream that planned the batch.
        cntRaIssued.inc(pf.n);
        f.ra.notePublished(pf.specStream, pf.n);
    }
    if (pf.single) {
        // Demand fetch: a page access that held the fpage lock, like
        // the slow path it replaces (Table 2 accounting parity).
        cntLocked.inc();
    } else if (!pf.peer) {
        cntBatchPages.inc(pf.n);
    }
    f.fetchInFlight.fetch_sub(1);
    return Status::Ok;
}

bool
BufferCache::fetchBatch(gpu::BlockCtx &ctx, CacheFile &f,
                        uint64_t start_idx, const BatchSlot *slots,
                        unsigned n, bool spec, uint8_t stream)
{
    PendingFetch pf;
    pf.startIdx = start_idx;
    pf.n = n;
    pf.single = false;
    pf.spec = spec;
    pf.specStream = stream;
    std::copy(slots, slots + n, pf.slots);
    // The synchronous path holds no uncollected slots, so blocking for
    // a queue slot is safe here (and is the pre-async behavior).
    submitClaimedFetch(ctx, f, pf, /*blocking=*/true);
    return ok(completeFetch(f, pf));
}

bool
BufferCache::submitPageFetch(gpu::BlockCtx &ctx, CacheFile &f,
                             uint64_t page_idx, PendingFetch *out)
{
    if (!f.cache || f.wronce || f.hostFd < 0 ||
        page_idx > FileCache::maxPageIndex()) {
        return false;   // no host-fetch path: resolve pins handle it
    }
    // Diff-and-merge pages must snapshot a pristine copy under the
    // fetching pin (pinPage's slow path does that); a split-phase
    // publish without one would turn merges into clobbering writes.
    if (diffMergeActive(f))
        return false;
    // Claim reserve: split-phase claims are unreclaimable until their
    // collector runs, so a wave of submitters must not eat the arena's
    // last frames — synchronous pins (and other blocks' resolutions)
    // need reclaimable headroom. Under pressure the page simply
    // resolves synchronously at wait.
    if (arena_.freeCount() <= claimReserve())
        return false;
    // No reclaim attempt here (the sync miss path's retry loop): a
    // reclaim can write back dirty pages through a BLOCKING RPC, and
    // a split-phase submitter may already hold uncollected queue
    // slots — the deadlock cycle trySubmit exists to prevent. An
    // unclaimable page simply resolves synchronously at wait, where
    // the block holds nothing.
    if (f.cache->beginInitBatch(page_idx, 1, out->slots) == 1) {
        out->startIdx = page_idx;
        out->n = 1;
        out->single = true;
        out->spec = false;
        return submitClaimedFetch(ctx, f, *out, /*blocking=*/false);
    }
    return false;
}

unsigned
BufferCache::submitBatchFetch(gpu::BlockCtx &ctx, CacheFile &f,
                              uint64_t start_idx, unsigned max_n,
                              PendingFetch *out)
{
    if (!f.cache || f.wronce || f.hostFd < 0 ||
        start_idx > FileCache::maxPageIndex()) {
        return 0;
    }
    if (diffMergeActive(f))
        return 0;   // pristine snapshot needed: stay on the sync path
    max_n = std::min(max_n, rpc::kMaxBatchPages);
    // One owner per batch: clip the run at its shard-group boundary.
    max_n = shardRunCap(f, start_idx, max_n);
    // Claim reserve (see submitPageFetch): shrink the run to what the
    // arena can give without starving synchronous pins. As there, no
    // reclaim attempt — submission must never block on an RPC.
    uint32_t free_frames = arena_.freeCount();
    uint32_t reserve = claimReserve();
    if (free_frames <= reserve)
        return 0;
    max_n = std::min(max_n, free_frames - reserve);
    unsigned n = f.cache->beginInitBatch(start_idx, max_n, out->slots);
    if (n == 0)
        return 0;
    out->startIdx = start_idx;
    out->n = n;
    out->single = false;
    out->spec = false;
    return submitClaimedFetch(ctx, f, *out, /*blocking=*/false) ? n : 0;
}

ReadAheadStreams::Decision
BufferCache::planReadAhead(CacheFile &f, uint64_t stream_key,
                           uint64_t run_first, uint64_t run_last)
{
    // Ceiling of the adaptive ramp, pages (2 ReadPages batches).
    constexpr unsigned kMaxReadAheadPages = 32;
    ReadAheadStreams::Decision d;
    if (!adaptiveReadAhead()) {
        // Static window (0 = read-ahead off) on every miss, no tracker
        // involvement. The batch publishes with kNoStream — feedback
        // then updates the file's aggregates only, so conservation
        // holds for the static policy too.
        d.window = *params_.readAheadPages;
        return d;
    }
    d = f.ra.onMiss(stream_key, run_first, run_last, kMaxReadAheadPages);
    if (d.ghost)
        cntRaGhostHits.inc();
    if (d.recycled)
        cntRaStreamRecycles.inc();
    cntRaStreamsActive.maxWith(f.ra.streamsActive());
    return d;
}

unsigned
BufferCache::submitReadAhead(gpu::BlockCtx &ctx, CacheFile &f,
                             uint64_t run_first, uint64_t run_last,
                             PendingFetch *out, unsigned max_fetches)
{
    FileCache &c = *f.cache;
    const uint64_t page_size = params_.pageSize;
    const uint64_t fsize = f.size.load(std::memory_order_relaxed);
    if (fsize == 0 || f.hostFd < 0 || f.wronce || max_fetches == 0)
        return 0;
    // Diff-and-merge pages must snapshot their pristine copy under the
    // fetching pin (pinPage's slow path does that); a batch-published
    // page has none, and its write-back would clobber other writers'
    // merges — same exclusion as the split-phase demand paths.
    if (diffMergeActive(f))
        return 0;
    // One policy decision per demand miss — the requesting block's
    // stream records the miss even when the granted window is 0 (that
    // is how it detects the run that re-opens the window).
    ReadAheadStreams::Decision plan = planReadAhead(
        f, ctx.blockId(), run_first, run_last);
    if (plan.window == 0)
        return 0;
    const uint64_t eof_page = (fsize + page_size - 1) / page_size;
    unsigned fetches = 0;

    if (plan.stride != 1) {
        // Strided pattern: prefetch the pages the stride predicts, one
        // page per RPC — fetching the gaps is exactly the waste
        // adaptive read-ahead exists to avoid.
        uint64_t covered = run_last;
        for (unsigned k = 1;
             k <= plan.window && fetches < max_fetches; ++k) {
            int64_t sidx = static_cast<int64_t>(run_last) +
                static_cast<int64_t>(k) * plan.stride;
            if (sidx < 0)
                break;      // backward scan reached the file head
            uint64_t idx = static_cast<uint64_t>(sidx);
            if (idx >= eof_page || idx > FileCache::maxPageIndex())
                break;
            if (arena_.freeCount() <= claimReserve())
                break;
            PendingFetch &pf = out[fetches];
            if (c.beginInitBatch(idx, 1, pf.slots) == 0) {
                if (prefetchStepOver(c, idx)) {
                    covered = idx;
                    continue;
                }
                break;
            }
            pf.startIdx = idx;
            pf.n = 1;
            pf.single = false;
            pf.spec = true;
            pf.specStream = plan.stream;
            if (!submitClaimedFetch(ctx, f, pf, /*blocking=*/false))
                break;
            ++fetches;
            covered = idx;
        }
        if (adaptiveReadAhead() && covered != run_last)
            f.ra.advance(plan.stream, covered);
        return fetches;
    }

    // Clamp at radix capacity as well as EOF: getPage asserts on
    // indices past maxPageIndex, and a huge file's tail window could
    // otherwise step beyond it.
    const uint64_t end = std::min<uint64_t>(
        std::min<uint64_t>(run_last + 1 + plan.window, eof_page),
        FileCache::maxPageIndex() + 1);
    uint64_t idx = run_last + 1;
    while (idx < end && fetches < max_fetches) {
        unsigned max_n = static_cast<unsigned>(
            std::min<uint64_t>(end - idx, rpc::kMaxBatchPages));
        // One owner per batch: clip the run at its shard-group
        // boundary (the next iteration re-evaluates the next group).
        max_n = shardRunCap(f, idx, max_n);
        // Claim reserve (see submitPageFetch): prefetch never takes
        // the frames synchronous pins would need to reclaim.
        uint32_t free_frames = arena_.freeCount();
        uint32_t reserve = claimReserve();
        if (free_frames <= reserve)
            break;
        max_n = std::min(max_n, free_frames - reserve);
        PendingFetch &pf = out[fetches];
        unsigned n = c.beginInitBatch(idx, max_n, pf.slots);
        if (n == 0) {
            if (prefetchStepOver(c, idx)) {
                ++idx;
                continue;
            }
            break;
        }
        pf.startIdx = idx;
        pf.n = n;
        pf.single = false;
        pf.spec = true;
        pf.specStream = plan.stream;
        if (!submitClaimedFetch(ctx, f, pf, /*blocking=*/false))
            break;      // queue full: claim rolled back, stop prefetch
        ++fetches;
        idx += n;
    }
    // Advance the stream past the covered span (prefetched or already
    // resident): the next sequential miss lands one past the window
    // and must read as a continuation, not a jump.
    if (adaptiveReadAhead() && idx > run_last + 1)
        f.ra.advance(plan.stream, idx - 1);
    return fetches;
}

bool
BufferCache::peerCopyResident(CacheFile &f, uint64_t page_idx,
                              uint8_t *dst, uint32_t *valid_out,
                              Time *ready_out)
{
    if (!f.cache)
        return false;
    FileCache &c = *f.cache;
    FPage *p = c.findPage(page_idx);
    if (!p)
        return false;
    uint32_t frame;
    if (!c.tryPinReady(*p, page_idx, &frame))
        return false;
    PFrame &pf = arena_.frame(frame);
    // Serve only pages whose bytes provably match the host copy:
    // clean, and holding exactly the valid count the file size
    // implies. Locally-written pages track their content through the
    // dirty extent, not validBytes — for those the host copy is the
    // authoritative one and the requester falls back to it.
    const uint64_t page_size = params_.pageSize;
    const uint64_t fsize = f.size.load(std::memory_order_relaxed);
    const uint64_t off = page_idx * page_size;
    const uint32_t expect = off >= fsize
        ? 0
        : static_cast<uint32_t>(
              std::min<uint64_t>(page_size, fsize - off));
    const uint32_t valid = pf.validBytes.load(std::memory_order_acquire);
    if (expect == 0 || valid != expect || pf.isDirty()) {
        c.unpin(*p);
        return false;
    }
    // The pin (refs > 0) keeps owner-side eviction off the frame for
    // the duration of the copy — the owner-side analogue of the
    // requester's fetchInFlight claim on the destination frames.
    std::memcpy(dst, arena_.data(frame), page_size);
    *valid_out = valid;
    if (ready_out) {
        *ready_out = std::max<Time>(
            *ready_out, pf.readyTime.load(std::memory_order_acquire));
    }
    c.unpin(*p);
    return true;
}

bool
BufferCache::peerMirrorResident(CacheFile &f, uint64_t page_idx,
                                uint32_t in_page, const uint8_t *src,
                                uint32_t len)
{
    if (!f.cache || uint64_t(in_page) + len > params_.pageSize)
        return false;
    FileCache &c = *f.cache;
    FPage *p = c.findPage(page_idx);
    if (!p)
        return false;
    uint32_t frame;
    if (!c.tryPinReady(*p, page_idx, &frame))
        return false;
    PFrame &pf = arena_.frame(frame);
    if (pf.isDirty()) {
        // The owner holds its own uncommitted bytes for this page:
        // never clobber them — the requester's extent still reaches
        // the host, and the version gate keeps stale serves out.
        // (This check cannot race a concurrent owner WRITER into a
        // lost update: a mirror implies a remote plain writer, and the
        // consistency layer admits only ONE plain writer per file
        // across GPUs — mergeable multi-writer files, GWRONCE and
        // diff-merge, are excluded from sharding altogether.)
        c.unpin(*p);
        return false;
    }
    if (uint64_t(in_page) + len > pf.validBytes.load(
            std::memory_order_acquire)) {
        // File-extending write: mirroring the bytes would not extend
        // validBytes (or the owner's notion of the file size), so a
        // later peer read would serve a TRUNCATED page as
        // authoritative. Decline — the batch then isn't fully
        // mirrored, no version is published, and the gate routes
        // readers of the grown file to the host.
        c.unpin(*p);
        return false;
    }
    std::memcpy(arena_.data(frame) + in_page, src, len);
    c.unpin(*p);
    return true;
}

bool
BufferCache::peerAdoptResident(CacheFile &f, uint64_t page_idx,
                               const uint8_t *src, uint32_t valid,
                               Time ready, uint8_t tenant)
{
    if (!f.cache || valid == 0 || valid > params_.pageSize)
        return false;
    // Adoption must never eat the frames synchronous pins (and
    // split-phase claims) depend on: free headroom only, same reserve
    // rule as the prefetch paths. The quota gate for @p tenant lives
    // in FrameArena::allocFor, reached through tryAdoptPage.
    if (arena_.freeCount() <= claimReserve())
        return false;
    return f.cache->tryAdoptPage(page_idx, src, valid, ready, tenant);
}

void
BufferCache::readAheadFrom(gpu::BlockCtx &ctx, CacheFile &f,
                           uint64_t page_idx)
{
    FileCache &c = *f.cache;
    const uint64_t page_size = params_.pageSize;
    const uint64_t fsize = f.size.load(std::memory_order_relaxed);
    if (fsize == 0 || f.hostFd < 0)
        return;
    // Diff-and-merge exclusion (see submitReadAhead): batch-published
    // pages carry no pristine snapshot, which merges depend on.
    if (diffMergeActive(f))
        return;
    // One policy decision per miss (stream-fed even at window 0).
    ReadAheadStreams::Decision plan = planReadAhead(
        f, ctx.blockId(), page_idx, page_idx);
    if (plan.window == 0)
        return;
    const uint64_t eof_page = (fsize + page_size - 1) / page_size;

    if (plan.stride != 1) {
        // Strided pattern (adaptive only): one page per RPC along the
        // stride — never the gaps (see submitReadAhead).
        uint64_t covered = page_idx;
        for (unsigned k = 1; k <= plan.window; ++k) {
            int64_t sidx = static_cast<int64_t>(page_idx) +
                static_cast<int64_t>(k) * plan.stride;
            if (sidx < 0)
                break;
            uint64_t idx = static_cast<uint64_t>(sidx);
            if (idx >= eof_page || idx > FileCache::maxPageIndex())
                break;
            if (arena_.freeCount() <= claimReserve())
                break;
            BatchSlot slot;
            if (c.beginInitBatch(idx, 1, &slot) == 0) {
                if (prefetchStepOver(c, idx)) {
                    covered = idx;
                    continue;
                }
                break;
            }
            if (!fetchBatch(ctx, f, idx, &slot, 1, /*spec=*/true,
                            plan.stream))
                break;
            covered = idx;
        }
        if (adaptiveReadAhead() && covered != page_idx)
            f.ra.advance(plan.stream, covered);
        return;
    }

    // Clamp at radix capacity as well as EOF (see submitReadAhead).
    const uint64_t end = std::min<uint64_t>(
        std::min<uint64_t>(page_idx + 1 + plan.window, eof_page),
        FileCache::maxPageIndex() + 1);
    uint64_t idx = page_idx + 1;
    while (idx < end) {
        unsigned max_n = static_cast<unsigned>(
            std::min<uint64_t>(end - idx, rpc::kMaxBatchPages));
        // One owner per batch (shard-group clipping, no-op private).
        max_n = shardRunCap(f, idx, max_n);
        // Claim reserve: prefetch never takes the frames synchronous
        // pins would need to reclaim (it must never page out on its
        // own behalf, and it must not starve demand pins either).
        uint32_t free_frames = arena_.freeCount();
        uint32_t reserve = claimReserve();
        if (free_frames <= reserve)
            break;
        max_n = std::min(max_n, free_frames - reserve);
        BatchSlot slots[rpc::kMaxBatchPages];
        unsigned n = c.beginInitBatch(idx, max_n, slots);
        if (n == 0) {
            if (prefetchStepOver(c, idx)) {
                ++idx;
                continue;
            }
            break;
        }
        if (!fetchBatch(ctx, f, idx, slots, n, /*spec=*/true,
                        plan.stream))
            break;
        idx += n;
    }
    // Next sequential miss lands one past the covered span; advance so
    // the stream reads it as a continuation.
    if (adaptiveReadAhead() && idx > page_idx + 1)
        f.ra.advance(plan.stream, idx - 1);
}

} // namespace core
} // namespace gpufs
