#include "gpufs/gpufs.hh"

#include <algorithm>
#include <cstring>
#include <thread>

#include "base/logging.hh"
#include "hostfs/hostfs.hh"

namespace gpufs {
namespace core {

namespace {

/** Split-phase fetches one async op may hold in flight: its demand
 *  fetches and the read-ahead batches riding them. */
constexpr unsigned kMaxFetchesPerOp = 16;

/**
 * Pin with a bounded retry on transient arena exhaustion. Split-phase
 * claims are unreclaimable until their owning block collects them, so
 * under heavy multi-block pressure a reclaim pass can momentarily find
 * nothing evictable even though frames are seconds (of real time) from
 * coming back — every in-flight claim has a collector that needs no
 * frames to run. Persistent exhaustion (frames leaked under pins)
 * still surfaces as NoSpace. @p counted as in BufferCache::pinPage.
 */
Status
pinPageRetry(BufferCache &bc, gpu::BlockCtx &ctx, CacheFile &cf,
             uint64_t page_idx, uint32_t *frame_out, FPage **fpage_out,
             bool skip_fetch, bool counted = false)
{
    constexpr int kNoSpaceRetries = 4096;
    Status st;
    for (int tries = 0;; ++tries) {
        st = bc.pinPage(ctx, cf, page_idx, frame_out, fpage_out,
                        skip_fetch, counted);
        if (st != Status::NoSpace || tries >= kNoSpaceRetries)
            return st;
        std::this_thread::yield();
    }
}

/** True iff @p page_idx is the op's next own demand-fetched page
 *  (AsyncIoOp::fetchedPages, walked by the cursor @p next), which the
 *  cursor then passes. Resolution meets those pages in claim order. */
bool
takeFetched(const AsyncIoOp &op, size_t *next, uint64_t page_idx)
{
    if (*next < op.fetchedPages.size() &&
        op.fetchedPages[*next] == page_idx) {
        ++*next;
        return true;
    }
    return false;
}

/** Map GPUfs open flags to the host-visible flag set. */
uint32_t
hostOpenFlags(uint32_t gflags)
{
    uint32_t access = gflags & G_ACCMODE;
    if (gflags & G_GWRONCE)
        access = G_WRONLY;      // O_GWRONCE creates a write-only file
    uint32_t host = access;     // access-mode values match hostfs's
    if (gflags & (G_CREAT | G_GWRONCE | G_NOSYNC))
        host |= hostfs::O_CREAT_F;
    if (gflags & G_TRUNC)
        host |= hostfs::O_TRUNC_F;
    if (gflags & G_GDURABLE)
        host |= hostfs::O_GDURABLE_F;
    return host;
}

} // namespace

GpuFs::GpuFs(gpu::GpuDevice &device, rpc::RpcQueue &rpc_queue,
             const GpuFsParams &fs_params)
    : dev(device), queue(rpc_queue), params_(fs_params),
      stats_("gpufs.gpu" + std::to_string(device.id())),
      bc_(device, rpc_queue, fs_params, stats_),
      table_(fs_params.maxOpenFiles),
      cntOpens(stats_.counter("opens")),
      cntOpenRpcs(stats_.counter("open_rpcs")),
      cntCloses(stats_.counter("closes")),
      cntInvalidations(stats_.counter("cache_invalidations")),
      cntBytesRead(stats_.counter("bytes_read")),
      cntBytesWritten(stats_.counter("bytes_written")),
      cntAsyncReads(stats_.counter("async_reads")),
      cntAsyncWrites(stats_.counter("async_writes")),
      cntAsyncSyncs(stats_.counter("async_syncs")),
      cntAsyncPeak(stats_.counter("async_peak_inflight")),
      cntFsyncsDeduped(stats_.counter("fsyncs_deduped"))
{
    for (auto &e : table_.entries())
        bc_.attach(e->cf);
}

void
GpuFs::quiesce()
{
    // Collect never-waited async submissions: their RPCs may still be
    // in the queue, and the daemon's DMA targets frames cache teardown
    // is about to free. With sharding those RPCs may also target a
    // PEER's cache, which is why GpufsSystem quiesces every instance
    // before destroying any.
    for (auto &op : asyncOps_) {
        if (op && op->active)
            completePending(*op);
    }
}

GpuFs::~GpuFs()
{
    quiesce();
    // Tear down caches; entries with host fds cannot RPC here (the
    // daemon may already be gone), so host fds are abandoned — tests
    // that care close everything first. A gmmap mapping never
    // unmapped still pins its page; it cannot outlive the system.
    for (auto &e : table_.entries()) {
        if (e->cf.cache)
            e->cf.cache->releasePins();
        e->cf.cache.reset();
    }
}

rpc::RpcResponse
GpuFs::rpcCall(gpu::BlockCtx &ctx, rpc::RpcRequest &req)
{
    req.gpuId = dev.id();
    req.issueTime = ctx.now();
    rpc::RpcResponse resp = queue.call(req);
    ctx.waitUntil(resp.done);
    return resp;
}

void
GpuFs::closeHostFds(gpu::BlockCtx &ctx, std::vector<int> &host_fds)
{
    for (int host_fd : host_fds)
        closeHostFd(ctx, host_fd);
    host_fds.clear();
}

void
GpuFs::destroyEntryLocked(int idx, std::vector<int> &closes)
{
    OpenFile &entry = table_.at(idx);
    bc_.destroyFile(entry.cf);
    // Off the paging lists now, so no fd sweep reaches these any more.
    closes.insert(closes.end(), entry.cf.retiredFds.begin(),
                  entry.cf.retiredFds.end());
    entry.cf.retiredFds.clear();
    if (entry.cf.hostFd >= 0) {
        closes.push_back(entry.cf.hostFd);
        entry.cf.hostFd = -1;
    }
    table_.markFree(idx);
}

int
GpuFs::nextDrainedLocked()
{
    // Entries are attached in slot order, so a file's attach position
    // is its slot.
    for (CacheFile *f : bc_.takeEvictedParked())
        table_.noteEvicted(static_cast<int>(f->attachIdx));
    return table_.findDrainedClosed();
}

int
GpuFs::allocEntryLocked(gpu::BlockCtx &ctx, std::vector<int> &closes)
{
    int idx = table_.findFree();
    if (idx >= 0)
        return idx;
    // Recycle the oldest closed entry, preferring clean ones (their
    // caches are droppable without write-back).
    idx = table_.pickRecyclable();
    if (idx < 0)
        return -1;
    OpenFile &victim = table_.at(idx);
    if (victim.cf.cache && victim.cf.cache->dirtyCount() > 0 &&
        !victim.nosync()) {
        // Push dirty data home before discarding the cache. This is
        // the one RPC gopen still issues under the table lock: the
        // entry must not be reopened or recycled by another block
        // while its pages go home.
        Status wb_st = bc_.flushDirty(ctx, victim.cf);
        if (!ok(wb_st))
            gpufs_warn("write-back failed recycling entry: %s",
                       statusName(wb_st));
    }
    destroyEntryLocked(idx, closes);
    return idx;
}

int
GpuFs::joinOpenLocked(int idx, uint32_t flags)
{
    OpenFile &e = table_.at(idx);
    bool want_write = (flags & G_ACCMODE) != G_RDONLY
        || (flags & G_GWRONCE);
    if (want_write && !e.wantsWrite()) {
        // Mode upgrade of a shared descriptor is outside the
        // prototype's supported set.
        return -static_cast<int>(Status::NotSupported);
    }
    e.refs.fetch_add(1, std::memory_order_relaxed);
    return idx;
}

int
GpuFs::gopen(gpu::BlockCtx &ctx, const std::string &path, uint32_t flags)
{
    // Structural calls collect the block's pending async claims first
    // (see harvestBlock): the destroy/recycle paths below take fpage
    // locks a pending claim of OURS may hold.
    harvestBlock(ctx.blockId());
    cntOpens.inc();
    ctx.charge(1 * kMicrosecond);   // table search cost
    if (path.size() >= rpc::kMaxPath)
        return -static_cast<int>(Status::Inval);

    // The table lock is never held across the Open RPC or a Close RPC:
    // other blocks' opens and closes, and the daemon's peer probes,
    // would wait on the daemon. Host fds freed under the lock are
    // closed after it, in the order the entries gave them up.
    std::vector<int> closes;
    {
        auto lock = lockTable();
        // Fast path: the file is already open — bump the reference
        // count without CPU communication (§4.1).
        int idx = table_.findOpenByPath(path);
        if (idx >= 0)
            return joinOpenLocked(idx, flags);

        // Slow path. First collect closed entries eviction has fully
        // drained — their empty radix trees hold memory for nothing.
        for (int di; (di = nextDrainedLocked()) >= 0;)
            destroyEntryLocked(di, closes);
    }
    closeHostFds(ctx, closes);

    // Open on the host.
    rpc::RpcRequest req;
    req.op = rpc::RpcOp::Open;
    std::strncpy(req.path, path.c_str(), rpc::kMaxPath - 1);
    req.flags = hostOpenFlags(flags);
    req.wantsWrite = (flags & G_ACCMODE) != G_RDONLY || (flags & G_GWRONCE);
    // Mergeable writers may coexist: O_GWRONCE merges by
    // diff-against-zeros; diff-and-merge (extension) by diffing
    // against the pristine copy.
    req.mergeableWriter = (flags & G_GWRONCE) ||
        (params_.enableDiffMerge && req.wantsWrite);
    req.nosync = flags & G_NOSYNC;
    // Serving tier: the tenant rides the RPC (per-tenant accounting)
    // and, via syncCacheFlags below, every later I/O of this entry.
    req.tenant = g_tenant_of(flags);
    rpc::RpcResponse resp = rpcCall(ctx, req);
    if (!ok(resp.status))
        return -static_cast<int>(resp.status);
    cntOpenRpcs.inc();

    int fd = -1;
    {
        auto lock = lockTable();
        fd = installOpenLocked(ctx, path, flags, resp, closes);
    }
    closeHostFds(ctx, closes);
    return fd;
}

int
GpuFs::installOpenLocked(gpu::BlockCtx &ctx, const std::string &path,
                         uint32_t flags, const rpc::RpcResponse &resp,
                         std::vector<int> &closes)
{
    // Another block opened the path while our Open RPC was out: join
    // its entry exactly as the fast path would have, and give the
    // host fd we no longer need back.
    int idx = table_.findOpenByPath(path);
    if (idx >= 0) {
        closes.push_back(resp.hostFd);
        return joinOpenLocked(idx, flags);
    }

    // Closed-table check: reuse the retained page cache if the host's
    // version proves it is still current (lazy invalidation, §4.4).
    // The lookup prefers the current entry over a stale one left
    // parked in a lower slot because it was still in use.
    int cidx = table_.findClosedByIno(resp.ino, resp.version);
    if (cidx >= 0) {
        OpenFile &e = table_.at(cidx);
        if (e.cf.version.load(std::memory_order_relaxed) == resp.version &&
            e.cf.cache) {
            int old_fd = bc_.reopenFile(e.cf, resp.hostFd);
            table_.markOpen(cidx, path, resp.ino, flags);
            e.cf.size.store(resp.size, std::memory_order_relaxed);
            if (old_fd >= 0) {
                // The entry had kept its fd for dirty pages; the new
                // claim is established, release the old one (unless a
                // request may still carry it: reopenFile then keeps it
                // retired and returns -1).
                closes.push_back(old_fd);
            }
            return cidx;
        }
        // Stale cache: drop it; the now-Free slot is reused below. If
        // the cache is still in use (unretired async tokens resolve
        // through it, or a mapping that outlived gclose pins a page),
        // leave the entry parked instead — the drained-collection
        // sweeps destroy it once it is released and drained.
        cntInvalidations.inc();
        if (!e.cf.inUse())
            destroyEntryLocked(cidx, closes);
        else
            cidx = -1;
    }

    int nidx = cidx >= 0 ? cidx : allocEntryLocked(ctx, closes);
    if (nidx < 0) {
        closes.push_back(resp.hostFd);
        return -static_cast<int>(Status::TooManyFiles);
    }
    OpenFile &e = table_.at(nidx);
    e.cf.hostFd = resp.hostFd;
    e.cf.version.store(resp.version, std::memory_order_relaxed);
    e.cf.size.store(resp.size, std::memory_order_relaxed);
    e.cf.closed = false;
    bc_.setupFile(e.cf);
    table_.markOpen(nidx, path, resp.ino, flags);
    return nidx;
}

Status
GpuFs::gclose(gpu::BlockCtx &ctx, int fd)
{
    harvestBlock(ctx.blockId());
    int release_fd = -1;
    {
        auto lock = lockTable();
        Status st;
        OpenFile *e = entryOf(fd, &st);
        if (!e)
            return st;
        cntCloses.inc();
        ctx.charge(1 * kMicrosecond);
        // This block is done with the file: hand its read-ahead stream
        // slot back (see ReadAheadStreams::release) so blocks launching
        // behind it claim a free slot instead of LRU-evicting a live
        // stream mid-scan. Every closer releases its own stream — the
        // entry itself parks only on the last reference.
        e->cf.ra.release(ctx.blockId());
        if (e->refs.fetch_sub(1, std::memory_order_relaxed) > 1)
            return Status::Ok;

        // Last close: park the entry (cache retained for reuse). Dirty
        // data is NOT written back — close and sync are decoupled
        // (§3.2); a clean cache releases the host fd (and consistency
        // claim), after the lock, and a dirty one keeps it for future
        // eviction write-back.
        release_fd = bc_.parkFile(e->cf, ++closeCounter);
        table_.markClosed(fd);
    }
    if (release_fd >= 0)
        closeHostFd(ctx, release_fd);
    return Status::Ok;
}

int64_t
GpuFs::gread(gpu::BlockCtx &ctx, int fd, uint64_t offset, uint64_t len,
             void *dst)
{
    // Thin submit+wait wrapper over the async core. coalesce=false
    // keeps the paper's demand-paging RPC pattern (per-page ReadPage
    // plus read-ahead ReadPages batches) byte-for-byte.
    GIoVec iov{offset, len, dst};
    return gwait(ctx, submitRead(ctx, fd, &iov, 1, /*coalesce=*/false));
}

int64_t
GpuFs::gwrite(gpu::BlockCtx &ctx, int fd, uint64_t offset, uint64_t len,
              const void *src)
{
    GIoVec iov{offset, len, const_cast<void *>(src)};
    return gwait(ctx, submitWrite(ctx, fd, &iov, 1));
}

int64_t
GpuFs::greadv(gpu::BlockCtx &ctx, int fd, const GIoVec *iov,
              unsigned iovcnt)
{
    return gwait(ctx, submitRead(ctx, fd, iov, iovcnt, /*coalesce=*/true));
}

int64_t
GpuFs::gwritev(gpu::BlockCtx &ctx, int fd, const GIoVec *iov,
               unsigned iovcnt)
{
    return gwait(ctx, submitWrite(ctx, fd, iov, iovcnt));
}

IoToken
GpuFs::gread_async(gpu::BlockCtx &ctx, int fd, uint64_t offset,
                   uint64_t len, void *dst)
{
    GIoVec iov{offset, len, dst};
    return submitRead(ctx, fd, &iov, 1, /*coalesce=*/true);
}

IoToken
GpuFs::gwrite_async(gpu::BlockCtx &ctx, int fd, uint64_t offset,
                    uint64_t len, const void *src)
{
    GIoVec iov{offset, len, const_cast<void *>(src)};
    return submitWrite(ctx, fd, &iov, 1);
}

IoToken
GpuFs::greadv_async(gpu::BlockCtx &ctx, int fd, const GIoVec *iov,
                    unsigned iovcnt)
{
    return submitRead(ctx, fd, iov, iovcnt, /*coalesce=*/true);
}

IoToken
GpuFs::gwritev_async(gpu::BlockCtx &ctx, int fd, const GIoVec *iov,
                     unsigned iovcnt)
{
    return submitWrite(ctx, fd, iov, iovcnt);
}

IoToken
GpuFs::gfsync_async(gpu::BlockCtx &ctx, int fd)
{
    return submitFsync(ctx, fd, 0, UINT64_MAX);
}

IoToken
GpuFs::gmsync_async(gpu::BlockCtx &ctx, int fd)
{
    // The durability barrier shares the fsync machinery: flush the
    // whole dirty range, then persist. What makes it a BARRIER is the
    // resolve path — for G_GDURABLE files the final Fsync RPC is never
    // deduped and completes only once the journal commit record (or,
    // without a journal, a real host fsync) is durable.
    return submitFsync(ctx, fd, 0, UINT64_MAX);
}

Status
GpuFs::gfsyncRange(gpu::BlockCtx &ctx, int fd, uint64_t offset,
                   uint64_t len)
{
    const uint64_t page_size = params_.pageSize;
    const uint64_t first_page = offset / page_size;
    const uint64_t last_page = len >= UINT64_MAX - offset
        ? UINT64_MAX : (offset + len + page_size - 1) / page_size;
    return gstatus_of(
        gwait(ctx, submitFsync(ctx, fd, first_page, last_page)));
}

// ---------------------------------------------------------------------
// Non-blocking I/O core: the in-flight request table
// ---------------------------------------------------------------------

uint64_t
GpuFs::buildSegs(AsyncIoOp &op, const GIoVec *iov, unsigned iovcnt,
                 uint64_t page_size, bool clamp_to, uint64_t fsize)
{
    uint64_t total = 0;
    uint64_t end_max = 0;
    for (unsigned v = 0; v < iovcnt; ++v) {
        uint64_t off = iov[v].offset;
        uint64_t len = iov[v].len;
        if (clamp_to) {
            // Reads never cross the (first-gopen + local writes) size.
            if (off >= fsize)
                continue;
            len = std::min(len, fsize - off);
        }
        end_max = std::max(end_max, off + len);
        auto *buf = static_cast<uint8_t *>(iov[v].buf);
        uint64_t pos = off;
        const uint64_t end = off + len;
        while (pos < end) {
            uint64_t page_idx = pos / page_size;
            uint32_t in_page = static_cast<uint32_t>(pos % page_size);
            uint32_t n = static_cast<uint32_t>(
                std::min<uint64_t>(page_size - in_page, end - pos));
            op.segs.push_back({page_idx, in_page, n, buf});
            buf += n;
            pos += n;
        }
        total += len;
    }
    // Writes grow the local size to the furthest extent end, exactly
    // as the pre-async gwrite did (even for zero-length writes).
    if (!clamp_to && iovcnt > 0)
        op.endOff = end_max;
    return total;
}

IoToken
GpuFs::allocOp(gpu::BlockCtx &ctx, AsyncIoOp **out)
{
    std::lock_guard<std::mutex> lock(asyncMtx);
    unsigned mine = 0;
    int free_i = -1;
    for (size_t i = 0; i < asyncOps_.size(); ++i) {
        AsyncIoOp *op = asyncOps_[i].get();
        if (op && op->active) {
            if (op->blockId == ctx.blockId())
                ++mine;
        } else if (free_i < 0) {
            free_i = static_cast<int>(i);
        }
    }
    if (free_i < 0) {
        free_i = static_cast<int>(asyncOps_.size());
        asyncOps_.push_back(nullptr);
    }
    auto &slot = asyncOps_[free_i];
    if (!slot)
        slot = std::make_unique<AsyncIoOp>();
    AsyncIoOp &op = *slot;
    op.active = true;
    op.blockId = ctx.blockId();
    op.kind = AsyncIoOp::Kind::None;
    op.fd = -1;
    op.entry = nullptr;
    // The cap fails the OPERATION, never the table: the token stays
    // valid and redeemable so the error surfaces through gwait.
    op.immediate =
        mine >= params_.maxInflightIo ? Status::Busy : Status::Ok;
    op.result = 0;
    op.endOff = 0;
    op.demandPages = 0;
    op.flushStatus = Status::Ok;
    op.flushDone = 0;
    unsigned active = asyncActive_.fetch_add(1,
                                             std::memory_order_relaxed) + 1;
    cntAsyncPeak.maxWith(active);
    *out = &op;
    return IoToken{static_cast<uint32_t>(free_i), op.gen};
}

AsyncIoOp *
GpuFs::claimOp(gpu::BlockCtx &ctx, IoToken token)
{
    std::lock_guard<std::mutex> lock(asyncMtx);
    if (token.id >= asyncOps_.size())
        return nullptr;
    AsyncIoOp *op = asyncOps_[token.id].get();
    if (!op || !op->active || op->gen != token.gen ||
        op->blockId != ctx.blockId()) {
        return nullptr;     // stale, reused, or foreign token
    }
    return op;
}

void
GpuFs::releaseOp(AsyncIoOp &op)
{
    std::lock_guard<std::mutex> lock(asyncMtx);
    op.active = false;
    ++op.gen;       // invalidates the redeemed token (reuse errors)
    op.segs.clear();
    op.fetches.clear();
    op.fetchedPages.clear();
    op.flushes.clear();
    if (op.entry)
        op.entry->cf.opInFlight.fetch_sub(1);
    op.entry = nullptr;
    asyncActive_.fetch_sub(1, std::memory_order_relaxed);
}

void
GpuFs::completePending(AsyncIoOp &op)
{
    if (!op.entry)
        return;
    CacheFile &cf = op.entry->cf;
    for (auto &pf : op.fetches) {
        // A failed fetch rolls its claim back to Empty; resolution
        // refetches synchronously and reports errors through the
        // normal pin path.
        if (ok(bc_.completeFetch(cf, pf)) && !pf.spec) {
            for (unsigned i = 0; i < pf.n; ++i)
                op.fetchedPages.push_back(pf.startIdx + i);
        }
    }
    op.fetches.clear();
    for (auto &fl : op.flushes) {
        Status st = bc_.completeFlush(cf, fl, &op.flushDone);
        if (!ok(st) && ok(op.flushStatus))
            op.flushStatus = st;
    }
    op.flushes.clear();
}

void
GpuFs::harvestBlock(unsigned block_id)
{
    if (asyncActive_.load(std::memory_order_acquire) == 0)
        return;
    // Ops are owned by their submitting block's thread between submit
    // and wait, so collecting this block's set needs the mutex only
    // for the scan. The set must be COMPLETE — a missed op would leave
    // its claims' fpage locks held under the resolution that follows.
    std::vector<AsyncIoOp *> mine;
    {
        std::lock_guard<std::mutex> lock(asyncMtx);
        for (auto &slot : asyncOps_) {
            AsyncIoOp *op = slot.get();
            if (op && op->active && op->blockId == block_id &&
                (!op->fetches.empty() || !op->flushes.empty())) {
                mine.push_back(op);
            }
        }
    }
    for (AsyncIoOp *op : mine)
        completePending(*op);
}

IoToken
GpuFs::submitRead(gpu::BlockCtx &ctx, int fd, const GIoVec *iov,
                  unsigned iovcnt, bool coalesce)
{
    AsyncIoOp *op = nullptr;
    IoToken tok = allocOp(ctx, &op);
    op->kind = AsyncIoOp::Kind::Read;
    op->fd = fd;
    cntAsyncReads.inc();
    if (!ok(op->immediate))
        return tok;
    Status st;
    OpenFile *e = entryOf(fd, &st);
    if (!e) {
        op->immediate = st;
        return tok;
    }
    if ((e->flags & G_ACCMODE) == G_WRONLY || e->gwronce()) {
        op->immediate = Status::Inval;
        return tok;
    }
    op->entry = e;
    e->cf.opInFlight.fetch_add(1);
    ctx.charge(500);    // submit bookkeeping (0.5 us)
    const uint64_t fsize = e->cf.size.load(std::memory_order_relaxed);
    op->result = static_cast<int64_t>(
        buildSegs(*op, iov, iovcnt, params_.pageSize,
                  /*clamp_to=*/true, fsize));
    CacheFile &cf = e->cf;
    if (op->segs.empty() || !cf.cache)
        return tok;

    // Demand fetches go to the daemon split-phase; everything not
    // claimable here (resident pages, contended pages, wronce and
    // diff-merge files) resolves through the normal pin path at wait.
    if (!coalesce) {
        // Sync-wrapper pattern: the pre-async RPC shape, just
        // submitted without waiting.
        submitDemandPages(ctx, *op, cf, /*skip_whole_pages=*/false);
    } else {
        // Vectored/async pattern: runs of missing pages coalesce into
        // ReadPages batches per extent.
        const uint64_t page_size = params_.pageSize;
        uint64_t first_demand = UINT64_MAX;
        uint64_t last_demand = 0;
        auto room = [&]() { return op->fetches.size() < kMaxFetchesPerOp; };
        for (unsigned v = 0; v < iovcnt && room(); ++v) {
            if (iov[v].len == 0 || iov[v].offset >= fsize)
                continue;
            uint64_t idx = iov[v].offset / page_size;
            uint64_t end_off =
                std::min(iov[v].offset + iov[v].len, fsize);
            const uint64_t last = (end_off + page_size - 1) / page_size;
            while (idx < last && room()) {
                unsigned want = static_cast<unsigned>(
                    std::min<uint64_t>(last - idx, rpc::kMaxBatchPages));
                PendingFetch pf;
                unsigned n = bc_.submitBatchFetch(ctx, cf, idx, want, &pf);
                if (n == 0) {
                    ++idx;      // resident/in-flight head: step over
                    continue;
                }
                op->fetches.push_back(pf);
                op->demandPages += n;
                first_demand = std::min(first_demand, pf.startIdx);
                last_demand = std::max(last_demand,
                                       pf.startIdx + n - 1);
                idx += n;
            }
        }
        if (op->demandPages > 0) {
            // The whole demand run feeds the tracker as one miss (its
            // head judges sequential continuation, prefetch extends
            // from its tail).
            submitOpReadAhead(ctx, *op, cf, first_demand, last_demand);
        }
    }
    return tok;
}

void
GpuFs::submitOpReadAhead(gpu::BlockCtx &ctx, AsyncIoOp &op, CacheFile &cf,
                         uint64_t run_first, uint64_t run_last)
{
    const unsigned budget =
        kMaxFetchesPerOp - static_cast<unsigned>(op.fetches.size());
    if (!bc_.readAheadEnabled() || budget == 0)
        return;
    PendingFetch ra[kMaxFetchesPerOp];
    unsigned m = bc_.submitReadAhead(ctx, cf, run_first, run_last, ra,
                                     budget);
    op.fetches.insert(op.fetches.end(), ra, ra + m);
}

void
GpuFs::submitDemandPages(gpu::BlockCtx &ctx, AsyncIoOp &op, CacheFile &cf,
                         bool skip_whole_pages)
{
    // One ReadPage per missing page, with the read-ahead window riding
    // each miss, exactly as the sync paths' pins do.
    const uint64_t page_size = params_.pageSize;
    uint64_t last_tried = UINT64_MAX;
    for (const auto &seg : op.segs) {
        if (op.fetches.size() >= kMaxFetchesPerOp)
            break;
        if (skip_whole_pages && seg.inPage == 0 && seg.n == page_size)
            continue;       // whole-page overwrite: no fetch
        if (seg.pageIdx == last_tried)
            continue;
        last_tried = seg.pageIdx;
        PendingFetch pf;
        if (bc_.submitBatchFetch(ctx, cf, seg.pageIdx, 1, &pf,
                                 /*single=*/true)) {
            op.fetches.push_back(pf);
            ++op.demandPages;
            submitOpReadAhead(ctx, op, cf, seg.pageIdx, seg.pageIdx);
        }
    }
}

IoToken
GpuFs::submitWrite(gpu::BlockCtx &ctx, int fd, const GIoVec *iov,
                   unsigned iovcnt)
{
    AsyncIoOp *op = nullptr;
    IoToken tok = allocOp(ctx, &op);
    op->kind = AsyncIoOp::Kind::Write;
    op->fd = fd;
    cntAsyncWrites.inc();
    if (!ok(op->immediate))
        return tok;
    Status st;
    OpenFile *e = entryOf(fd, &st);
    if (!e) {
        op->immediate = st;
        return tok;
    }
    if (!e->wantsWrite()) {
        op->immediate = Status::ReadOnlyFile;
        return tok;
    }
    op->entry = e;
    e->cf.opInFlight.fetch_add(1);
    ctx.charge(500);
    op->result = static_cast<int64_t>(
        buildSegs(*op, iov, iovcnt, params_.pageSize,
                  /*clamp_to=*/false, 0));
    CacheFile &cf = e->cf;
    if (!cf.cache)
        return tok;

    // Only partially-overwritten pages need a read-modify-write fetch
    // (whole pages are zero-initialized without I/O at wait time), so
    // only those start split-phase.
    submitDemandPages(ctx, *op, cf, /*skip_whole_pages=*/true);
    return tok;
}

IoToken
GpuFs::submitFsync(gpu::BlockCtx &ctx, int fd, uint64_t first_page,
                   uint64_t last_page)
{
    AsyncIoOp *op = nullptr;
    IoToken tok = allocOp(ctx, &op);
    op->kind = AsyncIoOp::Kind::Fsync;
    op->fd = fd;
    op->syncFirstPage = first_page;
    op->syncLastPage = last_page;
    cntAsyncSyncs.inc();
    if (!ok(op->immediate))
        return tok;
    Status st;
    OpenFile *e = entryOf(fd, &st);
    if (!e) {
        op->immediate = st;
        return tok;
    }
    op->entry = e;
    e->cf.opInFlight.fetch_add(1);
    if (e->nosync())
        return tok;     // never synchronized to the host (§3.2)
    ctx.charge(500);
    // First rounds of WritePages batches go split-phase; the residual
    // drain (and the durability barrier) runs at wait time.
    PendingFlush pending[4];
    unsigned n = bc_.submitFlush(ctx, e->cf, first_page, last_page,
                                 pending, 4);
    for (unsigned i = 0; i < n; ++i)
        op->flushes.push_back(pending[i]);
    return tok;
}

int64_t
GpuFs::resolveRead(gpu::BlockCtx &ctx, AsyncIoOp &op)
{
    CacheFile &cf = op.entry->cf;
    // Demand-fetched pages pay the per-page map cost here — the sync
    // path charged it inside pinPage's miss branch; the split-phase
    // path pins them as hits, so the charge moves to collection.
    if (op.demandPages > 0) {
        ctx.charge(op.demandPages *
                   dev.simContext().params.pageMapOverhead);
    }
    size_t fetched = 0;
    for (const auto &seg : op.segs) {
        uint32_t frame;
        FPage *fp;
        Status st = pinPageRetry(bc_, ctx, cf, seg.pageIdx, &frame, &fp,
                                 false,
                                 takeFetched(op, &fetched, seg.pageIdx));
        if (!ok(st))
            return -static_cast<int64_t>(st);
        std::memcpy(seg.buf, bc_.arena().data(frame) + seg.inPage, seg.n);
        ctx.chargeGpuMem(seg.n);
        cf.cache->unpin(*fp);
    }
    cntBytesRead.inc(static_cast<uint64_t>(op.result));
    return op.result;
}

int64_t
GpuFs::resolveWrite(gpu::BlockCtx &ctx, AsyncIoOp &op)
{
    CacheFile &cf = op.entry->cf;
    const uint64_t page_size = params_.pageSize;
    if (op.demandPages > 0) {
        ctx.charge(op.demandPages *
                   dev.simContext().params.pageMapOverhead);
    }
    size_t fetched = 0;
    for (const auto &seg : op.segs) {
        bool whole_page = seg.inPage == 0 && seg.n == page_size;
        uint32_t frame;
        FPage *fp;
        Status st = pinPageRetry(bc_, ctx, cf, seg.pageIdx, &frame, &fp,
                                 whole_page,
                                 takeFetched(op, &fetched, seg.pageIdx));
        if (!ok(st))
            return -static_cast<int64_t>(st);
        std::memcpy(bc_.arena().data(frame) + seg.inPage, seg.buf, seg.n);
        ctx.chargeGpuMem(seg.n);
        cf.cache->noteDirty(bc_.arena().frame(frame), seg.inPage,
                            seg.inPage + seg.n);
        cf.cache->unpin(*fp);
    }
    // Local size grows with writes (visible to this GPU's greads).
    uint64_t cur = cf.size.load(std::memory_order_relaxed);
    while (op.endOff > cur &&
           !cf.size.compare_exchange_weak(cur, op.endOff,
                                          std::memory_order_relaxed)) {
    }
    // "When gwrite completes, each thread issues a memory fence" (§4.1)
    // so a later page-out DMA observes the data.
    ctx.threadFence();
    cntBytesWritten.inc(static_cast<uint64_t>(op.result));
    return op.result;
}

int64_t
GpuFs::resolveFsync(gpu::BlockCtx &ctx, AsyncIoOp &op)
{
    OpenFile *e = op.entry;
    if (e->nosync())
        return 0;       // never synchronized to the host (§3.2)
    CacheFile &cf = e->cf;
    ctx.waitUntil(op.flushDone);
    if (!ok(op.flushStatus))
        return -static_cast<int64_t>(op.flushStatus);
    // Residual drain + durability barrier (waits out extents that
    // concurrent collectors, e.g. another block's dirty eviction, have
    // in flight).
    Status wb_st = bc_.flushDirty(ctx, cf, op.syncFirstPage,
                                  op.syncLastPage);
    if (!ok(wb_st))
        return -static_cast<int64_t>(wb_st);
    // Persist: flush the host page cache's dirty granules — but only
    // when one of our write-backs dirtied them since the last host
    // fsync. Skipping otherwise is what coalesces per-block gfsync
    // bursts on a shared file into one Fsync RPC instead of one per
    // block.
    //
    // G_GDURABLE files never dedup: their durability point is the
    // journal commit record (or a real host fsync when journaling is
    // off), and needsFsync only says the HOST PAGE CACHE is clean — a
    // crash between write-back and host fsync would still lose the
    // data, so a skipped barrier here would acknowledge bytes that do
    // not survive. With the journal on, the barrier RPC is answered
    // from the last commit record's completion time (no extra disk
    // work), so the non-dedup is cheap exactly when it fires most.
    const bool durable = cf.durable.load(std::memory_order_relaxed);
    if (cf.hostFd >= 0 &&
        (durable ||
         cf.needsFsync.exchange(false, std::memory_order_acq_rel))) {
        rpc::RpcRequest req;
        req.op = rpc::RpcOp::Fsync;
        req.hostFd = cf.hostFd;
        req.durableBarrier = durable;
        rpc::RpcResponse resp = rpcCall(ctx, req);
        if (!ok(resp.status)) {
            if (!durable)
                cf.needsFsync.store(true, std::memory_order_release);
            return -static_cast<int64_t>(resp.status);
        }
    } else {
        cntFsyncsDeduped.inc();
    }
    return 0;
}

int64_t
GpuFs::resolveOp(gpu::BlockCtx &ctx, AsyncIoOp &op)
{
    if (!ok(op.immediate))
        return -static_cast<int64_t>(op.immediate);
    switch (op.kind) {
      case AsyncIoOp::Kind::Read:
        return resolveRead(ctx, op);
      case AsyncIoOp::Kind::Write:
        return resolveWrite(ctx, op);
      case AsyncIoOp::Kind::Fsync:
        return resolveFsync(ctx, op);
      case AsyncIoOp::Kind::None:
        break;
    }
    return -static_cast<int64_t>(Status::Inval);
}

int64_t
GpuFs::gwait(gpu::BlockCtx &ctx, IoToken token)
{
    AsyncIoOp *op = claimOp(ctx, token);
    if (!op)
        return -static_cast<int64_t>(Status::Inval);
    // Collect the block's ENTIRE in-flight set before resolving:
    // resolution takes fpage locks, and any of the block's own pending
    // claims — this op's or a sibling token's — would self-deadlock.
    harvestBlock(op->blockId);
    int64_t r = resolveOp(ctx, *op);
    ctx.charge(200);    // token retire bookkeeping
    releaseOp(*op);
    return r;
}

Status
GpuFs::gwait_all(gpu::BlockCtx &ctx, int fd)
{
    std::vector<IoToken> toks;
    {
        std::lock_guard<std::mutex> lock(asyncMtx);
        for (size_t i = 0; i < asyncOps_.size(); ++i) {
            AsyncIoOp *op = asyncOps_[i].get();
            if (op && op->active && op->blockId == ctx.blockId() &&
                (fd < 0 || op->fd == fd)) {
                toks.push_back(
                    IoToken{static_cast<uint32_t>(i), op->gen});
            }
        }
    }
    Status agg = Status::Ok;
    for (IoToken t : toks) {
        int64_t r = gwait(ctx, t);
        if (r < 0 && ok(agg))
            agg = static_cast<Status>(-r);
    }
    return agg;
}

void *
GpuFs::gmmap(gpu::BlockCtx &ctx, int fd, uint64_t offset, uint64_t len,
             uint64_t *mapped_len, Status *st_out)
{
    harvestBlock(ctx.blockId());
    Status st;
    OpenFile *e = entryOf(fd, &st);
    if (!e) {
        if (st_out)
            *st_out = st;
        return nullptr;
    }
    uint64_t fsize = e->cf.size.load(std::memory_order_relaxed);
    if (len == 0 || (!e->wantsWrite() && offset >= fsize)) {
        if (st_out)
            *st_out = Status::Inval;
        return nullptr;
    }
    const uint64_t page_size = params_.pageSize;
    uint64_t page_idx = offset / page_size;
    uint64_t in_page = offset % page_size;

    uint32_t frame;
    FPage *fp;
    st = pinPageRetry(bc_, ctx, e->cf, page_idx, &frame, &fp, false);
    if (!ok(st)) {
        if (st_out)
            *st_out = st;
        return nullptr;
    }
    // Map at most the prefix within this buffer-cache page (§3.2: gmmap
    // "may map only a prefix of the requested region").
    uint64_t max_len = page_size - in_page;
    if (!e->wantsWrite())
        max_len = std::min(max_len, fsize - offset);
    *mapped_len = std::min(len, max_len);
    if (st_out)
        *st_out = Status::Ok;
    // The page stays pinned until gmunmap; eviction skips pinned pages,
    // which also keeps gfsync away from mapped pages (Table 1).
    return bc_.arena().data(frame) + in_page;
}

Status
GpuFs::gmunmap(gpu::BlockCtx &ctx, void *ptr)
{
    ctx.charge(500);    // trivial translation cost (0.5 us)
    uint32_t frame = bc_.arena().frameOf(ptr);
    if (frame == kNoFrame)
        return Status::Inval;
    PFrame &pf = bc_.arena().frame(frame);
    auto *fp = static_cast<FPage *>(pf.owner.load(std::memory_order_acquire));
    if (!fp || fp->refs.load(std::memory_order_relaxed) <= 0)
        return Status::Inval;
    fp->refs.fetch_sub(1, std::memory_order_seq_cst);
    return Status::Ok;
}

Status
GpuFs::gmsync(gpu::BlockCtx &ctx, void *ptr)
{
    harvestBlock(ctx.blockId());
    uint32_t frame = bc_.arena().frameOf(ptr);
    if (frame == kNoFrame)
        return Status::Inval;
    uint64_t uid =
        bc_.arena().frame(frame).fileUid.load(std::memory_order_acquire);
    OpenFile *e;
    {
        auto lock = lockTable();
        e = table_.findByCacheUid(uid);
    }
    if (!e || e->cf.hostFd < 0)
        return Status::Inval;
    if (e->nosync())
        return Status::Ok;
    return bc_.syncFrame(ctx, e->cf, frame);
}

Status
GpuFs::gunlink(gpu::BlockCtx &ctx, const std::string &path)
{
    if (path.size() >= rpc::kMaxPath)
        return Status::Inval;
    harvestBlock(ctx.blockId());
    Status st = Status::Ok;
    std::vector<int> closes;
    {
        auto lock = lockTable();
        // "Files unlinked on the GPU have their local buffer space
        // reclaimed immediately" (Table 1).
        for (int idx : table_.slotsOfPath(path)) {
            OpenFile &e = table_.at(idx);
            if (e.state() == OpenFile::EState::Closed) {
                if (e.cf.inUse()) {
                    st = Status::Busy;
                    break;
                }
                destroyEntryLocked(idx, closes);
            } else if (e.cf.cache && !bc_.dropPages(e.cf)) {
                st = Status::Busy;
                break;
            }
        }
    }
    closeHostFds(ctx, closes);
    if (!ok(st))
        return st;
    rpc::RpcRequest req;
    req.op = rpc::RpcOp::Unlink;
    std::strncpy(req.path, path.c_str(), rpc::kMaxPath - 1);
    rpc::RpcResponse resp = rpcCall(ctx, req);
    return resp.status;
}

Status
GpuFs::gfstat(gpu::BlockCtx &ctx, int fd, GStat *out)
{
    ctx.charge(500);
    Status st;
    OpenFile *e = entryOf(fd, &st);
    if (!e)
        return st;
    out->ino = e->ino;
    out->size = e->cf.size.load(std::memory_order_relaxed);
    return Status::Ok;
}

Status
GpuFs::gftruncate(gpu::BlockCtx &ctx, int fd, uint64_t new_size)
{
    harvestBlock(ctx.blockId());
    Status st;
    OpenFile *e = entryOf(fd, &st);
    if (!e)
        return st;
    if (!e->wantsWrite())
        return Status::ReadOnlyFile;

    auto lock = lockTable();
    // Reclaim cached pages ("reclaim any relevant pages", Table 1);
    // unsynced dirty data below the cut is pushed home first so a
    // truncate-to-larger does not lose writes. Pages entirely beyond
    // the cut are dropped without write-back.
    const uint64_t keep_pages =
        (new_size + params_.pageSize - 1) / params_.pageSize;
    Status wb_st = bc_.flushDirty(ctx, e->cf, 0, keep_pages);
    if (!ok(wb_st))
        return wb_st;   // do NOT drop pages whose write-back failed
    if (!bc_.dropPages(e->cf))
        return Status::Busy;

    rpc::RpcRequest req;
    req.op = rpc::RpcOp::Truncate;
    req.hostFd = e->cf.hostFd;
    req.offset = new_size;
    rpc::RpcResponse resp = rpcCall(ctx, req);
    if (!ok(resp.status))
        return resp.status;
    e->cf.size.store(new_size, std::memory_order_relaxed);
    e->cf.version.store(resp.version, std::memory_order_relaxed);
    // The host-side length change is durability-relevant state a later
    // gfsync must not dedup away.
    e->cf.needsFsync.store(true, std::memory_order_release);
    return Status::Ok;
}

unsigned
GpuFs::hostFdsHeld() const
{
    auto lock = lockTable();
    return table_.countHostFds();
}

const ReadAheadStreams *
GpuFs::readAheadTracker(int fd)
{
    auto lock = lockTable();
    OpenFile *e = table_.openEntry(fd);
    return e ? &e->cf.ra : nullptr;
}

// ---------------------------------------------------------------------
// rpc::PeerPageSource: the daemon's view of this GPU's cache
// ---------------------------------------------------------------------
//
// All four run on the DAEMON thread while this GPU's blocks keep
// running. The table lock is TRY-taken only: a block of this GPU may
// still hold tableMtx across a synchronous RPC the daemon is queued to
// service (the dirty write-back of an entry gopen recycles, and
// gftruncate's flush and Truncate), so blocking here could close a
// deadlock cycle — on contention the daemon simply falls back to the
// host path. gopen and gclose hold the lock only for table work, never
// across their Open and Close RPCs, so on open/close-heavy kernels the
// probe rarely finds it taken. Holding tableMtx across the cache access
// pins the entry/cache object (destroyEntryLocked runs under it);
// frame-level safety is the pin peerCopyResident/peerMirrorResident
// take.

rpc::PeerCopy
GpuFs::peerCopyPage(uint64_t ino, uint64_t page_idx, uint64_t version,
                    uint8_t *dst, uint32_t *valid_out, Time *ready_out)
{
    std::unique_lock<std::mutex> lock(tableMtx, std::try_to_lock);
    if (!lock.owns_lock())
        return rpc::PeerCopy::Busy;
    OpenFile *e = table_.findAnyByIno(ino, version);
    if (!e)
        return rpc::PeerCopy::NoEntry;
    // Version gate: serve only when this cache reflects exactly the
    // host content the requester expects — the peer path then provides
    // the same close-to-open consistency as the host path.
    if (e->cf.version.load(std::memory_order_acquire) != version)
        return rpc::PeerCopy::Stale;
    return bc_.peerCopyResident(e->cf, page_idx, dst, valid_out,
                                ready_out);
}

bool
GpuFs::peerMirrorExtent(uint64_t ino, uint64_t page_idx, uint64_t version,
                        uint32_t in_page, const uint8_t *src, uint32_t len)
{
    std::unique_lock<std::mutex> lock(tableMtx, std::try_to_lock);
    if (!lock.owns_lock())
        return false;
    OpenFile *e = table_.findAnyByIno(ino, version);
    if (!e)
        return false;
    if (e->cf.version.load(std::memory_order_acquire) != version)
        return false;
    return bc_.peerMirrorResident(e->cf, page_idx, in_page, src, len);
}

bool
GpuFs::peerAdoptPage(uint64_t ino, uint64_t page_idx, uint64_t version,
                     const uint8_t *data, uint32_t valid, Time ready,
                     uint8_t tenant)
{
    std::unique_lock<std::mutex> lock(tableMtx, std::try_to_lock);
    if (!lock.owns_lock())
        return false;
    OpenFile *e = table_.findAnyByIno(ino, version);
    if (!e)
        return false;
    // Same version gate as the serve path: adopt only bytes this cache
    // would have been allowed to serve.
    if (e->cf.version.load(std::memory_order_acquire) != version)
        return false;
    return bc_.peerAdoptResident(e->cf, page_idx, data, valid, ready,
                                 tenant);
}

void
GpuFs::peerPublishVersion(uint64_t ino, uint64_t old_version,
                          uint64_t new_version)
{
    std::unique_lock<std::mutex> lock(tableMtx, std::try_to_lock);
    if (!lock.owns_lock())
        return;     // next peer read just falls back (conservative)
    OpenFile *e = table_.findAnyByIno(ino, old_version);
    if (!e)
        return;
    // CAS from the pre-write version: if anything else moved the
    // version meanwhile, the mirrored bytes' provenance is unclear and
    // staying stale (-> host fallback) is the safe outcome.
    uint64_t expect = old_version;
    e->cf.version.compare_exchange_strong(expect, new_version,
                                          std::memory_order_acq_rel);
}

} // namespace core
} // namespace gpufs
