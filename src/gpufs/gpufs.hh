/**
 * @file
 * GpuFs: the GPU-side file system library (§3, §4).
 *
 * One instance per GPU device, linked into the "kernel" the way the
 * paper's library is linked into application GPU code. All API calls
 * are invoked at threadblock granularity: every thread of a block
 * calls with the same arguments at the same point, which the block-
 * level BlockCtx makes structural.
 *
 * This class is the POSIX-like API layer only: the open/closed file
 * table, flag semantics, and stat bookkeeping. All paging machinery —
 * the frame arena, per-file page caches, miss handling, read-ahead,
 * write-back, and eviction policy — lives one layer down in
 * core::BufferCache (buffer_cache.hh).
 *
 * Deviations from POSIX follow the paper exactly (Table 1):
 *  - gread/gwrite take explicit offsets (pread/pwrite semantics; file
 *    descriptors have no seek pointer);
 *  - gclose does not synchronize: dirty data reaches the host only via
 *    gfsync/gmsync, or when the buffer cache evicts dirty pages;
 *  - gmmap may map only a prefix of the request, never guarantees a
 *    fixed address, and may return writable memory for a read-only
 *    mapping (improper updates are never propagated back);
 *  - O_GWRONCE write-once semantics: pages are implicitly
 *    zero-pristine, write-back diffs against zeros;
 *  - O_NOSYNC temp files are never written back to the host.
 *
 * Non-blocking I/O core. The Table-1 calls are thin submit+wait
 * wrappers over an asynchronous request layer: gread_async /
 * gwrite_async / gfsync_async submit work and return an IoToken
 * immediately; gwait collects one token (and with it the operation's
 * result), gwait_all drains every token the calling block holds. A
 * block may therefore overlap its OWN compute with its OWN I/O —
 * double-buffering a streaming scan (examples/double_buffer.cpp,
 * bench/fig_async_overlap.cc) instead of relying on other blocks to
 * hide host round-trips. Completions are delivered out of order:
 * tokens may be waited in any order, but every token MUST eventually
 * be waited by the block that submitted it (an unwaited token keeps
 * its pages claimed, which stalls other blocks touching them).
 * Vectored greadv/gwritev feed multi-extent requests straight into
 * the batched ReadPages/WritePages RPCs.
 *
 * Error-return convention: calls that return a count (gopen, gread,
 * gwrite, greadv, gwritev, gwait) encode failure as -(int)Status —
 * decode with gstatus_of()/gok() below. Calls that return Status
 * report it directly; gmmap, whose success value is a pointer, is the
 * one exception and reports through a Status out-parameter.
 */

#ifndef GPUFS_GPUFS_GPUFS_HH
#define GPUFS_GPUFS_GPUFS_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "base/status.hh"
#include "gpu/launch.hh"
#include "gpufs/buffer_cache.hh"
#include "gpufs/file_table.hh"
#include "gpufs/params.hh"
#include "rpc/peer.hh"
#include "rpc/queue.hh"

namespace gpufs {
namespace core {

/** Decode the negative-errno convention of count-returning calls:
 *  Status::Ok for rc >= 0, the encoded Status otherwise. */
constexpr Status
gstatus_of(int64_t rc)
{
    return rc < 0 ? static_cast<Status>(-rc) : Status::Ok;
}

/** True iff a count-returning call (gopen/gread/gwrite/gwait/...)
 *  succeeded. */
constexpr bool
gok(int64_t rc)
{
    return rc >= 0;
}

/**
 * Opaque handle to one in-flight asynchronous request. Obtained from
 * gread_async/gwrite_async/gfsync_async (and their vectored forms),
 * redeemed exactly once by gwait — a second wait, a stale token, or a
 * wait from a different block returns -Status::Inval. Submission-time
 * failures (bad fd, wrong access mode, in-flight cap) still yield a
 * valid token whose gwait reports the error, so the sync wrappers
 * return exactly what the pre-async API did.
 */
struct IoToken {
    static constexpr uint32_t kInvalidId = 0xFFFFFFFFu;
    uint32_t id = kInvalidId;
    uint32_t gen = 0;

    bool valid() const { return id != kInvalidId; }
};

/** One extent of a vectored greadv/gwritev request: @p len bytes at
 *  absolute file offset @p offset, read into / written from @p buf. */
struct GIoVec {
    uint64_t offset;
    uint64_t len;
    void *buf;
};

/**
 * One slot of the in-flight request table (see gread_async). Owned by
 * the submitting block between submit and wait: it records the
 * request's segments (page-granular pieces of the user buffer), the
 * split-phase fetches/flushes whose claims span submission→wait, and
 * the clock charges (demand-fetched page count) the block pays when
 * it collects.
 */
struct AsyncIoOp {
    enum class Kind : uint8_t { None, Read, Write, Fsync };

    Kind kind = Kind::None;
    bool active = false;
    uint32_t gen = 1;           ///< must match the redeeming token
    unsigned blockId = 0;
    int fd = -1;
    OpenFile *entry = nullptr;  ///< stable: the table never deallocates
    Status immediate = Status::Ok;  ///< submission-time failure
    int64_t result = 0;             ///< bytes (precomputed for no-ops)

    /** One page-granular piece of the request. */
    struct Seg {
        uint64_t pageIdx;
        uint32_t inPage;    ///< first byte within the page
        uint32_t n;         ///< bytes
        uint8_t *buf;       ///< user-buffer cursor for this piece
    };
    std::vector<Seg> segs;
    uint64_t endOff = 0;        ///< max extent end (write size growth)

    /** Pages this op demand-fetched split-phase: the per-page map
     *  overhead (charged by the sync path inside pinPage) is paid for
     *  them at wait time. */
    unsigned demandPages = 0;
    /** The demand-fetched pages that published, in claim order, which
     *  is the order of their first segments (completePending records
     *  them). completeFetch counted each as a miss, so resolution's
     *  first pin of each counts nothing more. */
    std::vector<uint64_t> fetchedPages;

    uint64_t syncFirstPage = 0;     ///< Fsync range
    uint64_t syncLastPage = 0;

    std::vector<PendingFetch> fetches;
    std::vector<PendingFlush> flushes;
    Status flushStatus = Status::Ok;
    Time flushDone = 0;
};

class GpuFs : public rpc::PeerPageSource
{
  public:
    /**
     * @param device  the GPU this library instance runs on
     * @param rpc_queue this GPU's request queue to the host daemon
     * @param fs_params cache geometry and policy switches
     */
    GpuFs(gpu::GpuDevice &device, rpc::RpcQueue &rpc_queue,
          const GpuFsParams &fs_params = GpuFsParams{});
    ~GpuFs();

    GpuFs(const GpuFs &) = delete;
    GpuFs &operator=(const GpuFs &) = delete;

    // ---- sharded multi-GPU cache ----

    /** Install the machine-wide shard map (GpufsSystem wiring). */
    void setShardMap(const ShardMap *map) { bc_.setShardMap(map); }

    /**
     * Collect every never-waited async submission's in-flight RPCs.
     * GpufsSystem runs this on EVERY instance before destroying ANY of
     * them: an uncollected PeerReadPages of one GPU targets frames (and
     * a peer source) of another, so teardown must quiesce the whole
     * topology first. Callers guarantee no GPU blocks are running.
     */
    void quiesce();

    /**
     * rpc::PeerPageSource — the daemon's window into this GPU's cache
     * for servicing peer ops named at this GPU. Daemon-thread context:
     * all three use try-locks only and decline on any contention or
     * version mismatch (the host path is the always-correct fallback).
     */
    rpc::PeerCopy peerCopyPage(uint64_t ino, uint64_t page_idx,
                               uint64_t version, uint8_t *dst,
                               uint32_t *valid_out,
                               Time *ready_out) override;
    bool peerMirrorExtent(uint64_t ino, uint64_t page_idx,
                          uint64_t version, uint32_t in_page,
                          const uint8_t *src, uint32_t len) override;
    void peerPublishVersion(uint64_t ino, uint64_t old_version,
                            uint64_t new_version) override;
    bool peerAdoptPage(uint64_t ino, uint64_t page_idx, uint64_t version,
                       const uint8_t *data, uint32_t valid, Time ready,
                       uint8_t tenant) override;

    // ---- API (Table 1) ----

    /** Open @p path. @return fd >= 0, or -(int)Status on error. */
    int gopen(gpu::BlockCtx &ctx, const std::string &path, uint32_t flags);

    /** Close. Does NOT synchronize dirty data (decoupled, §3.2). */
    Status gclose(gpu::BlockCtx &ctx, int fd);

    /** pread-style read. @return bytes read, or -(int)Status.
     *  (Submit+wait wrapper over the async core; preserves the
     *  demand-paging RPC pattern page for page.) */
    int64_t gread(gpu::BlockCtx &ctx, int fd, uint64_t offset, uint64_t len,
                  void *dst);

    /** pwrite-style write. @return bytes written, or -(int)Status.
     *  (Submit+wait wrapper over the async core.) */
    int64_t gwrite(gpu::BlockCtx &ctx, int fd, uint64_t offset, uint64_t len,
                   const void *src);

    // ---- non-blocking I/O core ----

    /**
     * Submit a pread-style read and return immediately: missing pages
     * are claimed and their fetch RPCs go to the daemon split-phase,
     * so the block can compute while the DMA lands. The data is
     * materialized into @p dst when the token is waited; @p dst must
     * stay valid until then. gwait returns bytes read or -(int)Status.
     */
    IoToken gread_async(gpu::BlockCtx &ctx, int fd, uint64_t offset,
                        uint64_t len, void *dst);

    /**
     * Submit a pwrite-style write. Partially-overwritten uncached
     * pages start their read-modify-write fetch split-phase at submit;
     * the bytes of @p src are copied into the cache (and become
     * visible to gfsync and other blocks) when the token is waited.
     * @p src must stay valid until then.
     */
    IoToken gwrite_async(gpu::BlockCtx &ctx, int fd, uint64_t offset,
                         uint64_t len, const void *src);

    /** Vectored forms: every extent of @p iov feeds one request whose
     *  missing-page runs coalesce straight into batched ReadPages /
     *  WritePages RPCs. gwait returns total bytes or -(int)Status. */
    IoToken greadv_async(gpu::BlockCtx &ctx, int fd, const GIoVec *iov,
                         unsigned iovcnt);
    IoToken gwritev_async(gpu::BlockCtx &ctx, int fd, const GIoVec *iov,
                          unsigned iovcnt);

    /** Submit a full-file sync: the first rounds of WritePages batches
     *  go to the daemon split-phase; the residual drain, the
     *  durability barrier and the (deduplicated) host fsync run when
     *  the token is waited. gwait returns 0 or -(int)Status. */
    IoToken gfsync_async(gpu::BlockCtx &ctx, int fd);

    /**
     * Collect one token: completes the operation (waits out its RPCs,
     * materializes read data, publishes write data, pays the clock
     * charges) and retires it. @return the operation's result — bytes
     * for reads/writes, 0 for syncs — or -(int)Status; a stale,
     * reused, or foreign token returns -(int)Status::Inval.
     */
    int64_t gwait(gpu::BlockCtx &ctx, IoToken token);

    /** Collect every outstanding token of the calling block — all of
     *  them for @p fd < 0, else those on @p fd. @return first error. */
    Status gwait_all(gpu::BlockCtx &ctx, int fd = -1);

    /** Vectored synchronous wrappers (submit+wait). @return total
     *  bytes, or -(int)Status. */
    int64_t greadv(gpu::BlockCtx &ctx, int fd, const GIoVec *iov,
                   unsigned iovcnt);
    int64_t gwritev(gpu::BlockCtx &ctx, int fd, const GIoVec *iov,
                    unsigned iovcnt);

    /** Synchronously write back all dirty pages of @p fd that are not
     *  mapped or concurrently accessed. */
    Status
    gfsync(gpu::BlockCtx &ctx, int fd)
    {
        return gfsyncRange(ctx, fd, 0, UINT64_MAX);
    }

    /** Range variant (§3.2: applications may "synchronize either an
     *  entire file or a specific offset range"). Pages intersecting
     *  [offset, offset+len) are written back. */
    Status gfsyncRange(gpu::BlockCtx &ctx, int fd, uint64_t offset,
                       uint64_t len);

    /**
     * Map a file region into GPU memory. May map only a prefix: the
     * returned pointer covers *mapped_len <= len bytes, never crossing
     * a buffer-cache page. @return pointer or nullptr on error.
     */
    void *gmmap(gpu::BlockCtx &ctx, int fd, uint64_t offset, uint64_t len,
                uint64_t *mapped_len, Status *st = nullptr);

    /** Unmap a pointer obtained from gmmap. */
    Status gmunmap(gpu::BlockCtx &ctx, void *ptr);

    /** Write back the (dirty part of the) page backing @p ptr. The
     *  application must coordinate with updates by other blocks. */
    Status gmsync(gpu::BlockCtx &ctx, void *ptr);

    /**
     * Durability barrier on @p fd (whole file): returns only once every
     * prior write of this file is durable — on a G_GDURABLE file with
     * journaling on, once the journal COMMIT RECORD covering them is on
     * stable media (a crash after gmsync returns can never lose or tear
     * the acknowledged bytes; recovery replays them). Without the
     * journal it degrades to gfsync + host fsync. Note the overload:
     * gmsync(ctx, ptr) is Table 1's per-mapping sync; this is the
     * fd-typed barrier (pass an int, not a pointer).
     */
    Status
    gmsync(gpu::BlockCtx &ctx, int fd)
    {
        return gstatus_of(gwait(ctx, gmsync_async(ctx, fd)));
    }

    /** Async form of the durability barrier: submit the write-back
     *  rounds now, redeem the commit-record barrier at gwait. */
    IoToken gmsync_async(gpu::BlockCtx &ctx, int fd);

    /** Remove a file; local buffer space is reclaimed immediately. */
    Status gunlink(gpu::BlockCtx &ctx, const std::string &path);

    /** File metadata; size is the first-gopen size (+local writes). */
    Status gfstat(gpu::BlockCtx &ctx, int fd, GStat *out);

    /** Truncate and reclaim affected cached pages. */
    Status gftruncate(gpu::BlockCtx &ctx, int fd, uint64_t new_size);

    // ---- introspection ----
    const GpuFsParams &params() const { return params_; }
    StatSet &stats() { return stats_; }

    /** The adaptive read-ahead stream table of @p fd's file (tests
     *  and benches inspect the MRU window, throttle state, per-stream
     *  trackers and aggregate feedback counters), or null for a bad
     *  fd. The table object is stable for the entry's lifetime; reads
     *  are racy-by-design telemetry. */
    const ReadAheadStreams *readAheadTracker(int fd);

    gpu::GpuDevice &device() { return dev; }
    BufferCache &bufferCache() { return bc_; }
    FrameArena &arena() { return bc_.arena(); }

    /** Open + closed entries currently holding a host fd (tests). */
    unsigned hostFdsHeld() const;

  private:
    gpu::GpuDevice &dev;
    rpc::RpcQueue &queue;
    GpuFsParams params_;
    StatSet stats_;
    BufferCache bc_;

    /** Guards table_ and closeCounter. Held for table work only:
     *  gopen, gclose and gunlink issue their Open and Close RPCs after
     *  dropping it (the exceptions are allocEntryLocked's dirty
     *  write-back and gftruncate). */
    mutable std::mutex tableMtx;
    FileTable table_;
    uint64_t closeCounter = 0;

    /**
     * The in-flight request table. Slots are allocated at submit and
     * retired at wait under asyncMtx; between the two, a slot is owned
     * exclusively by the submitting block's thread, so the operation
     * itself (fetch completion, segment resolution) runs without the
     * lock. The table grows on demand — params_.maxInflightIo caps a
     * single BLOCK's outstanding ops (excess submissions fail with
     * Status::Busy), not the table.
     */
    mutable std::mutex asyncMtx;
    std::vector<std::unique_ptr<AsyncIoOp>> asyncOps_;
    /** Active ops across all blocks (fast-path skip for harvesting). */
    std::atomic<unsigned> asyncActive_{0};

    // Counters (registered once; fast paths use references).
    Counter &cntOpens;
    Counter &cntOpenRpcs;
    Counter &cntCloses;
    Counter &cntInvalidations;
    Counter &cntBytesRead;
    Counter &cntBytesWritten;
    Counter &cntAsyncReads;
    Counter &cntAsyncWrites;
    Counter &cntAsyncSyncs;
    Counter &cntAsyncPeak;
    Counter &cntFsyncsDeduped;

    /**
     * Take the table lock, asserting the paging lock is not already
     * held by this thread — the tableMtx -> pagingMtx order is
     * enforced here rather than documented (a reclaim or flush path
     * re-entering the API layer would deadlock against a gopen).
     */
    std::unique_lock<std::mutex>
    lockTable() const
    {
        gpufs_assert(!bc_.pagingLockHeldByCaller(),
                     "lock-order inversion: pagingMtx held before "
                     "tableMtx");
        return std::unique_lock<std::mutex>(tableMtx);
    }

    /** Validate fd and return its entry (nullptr + status otherwise). */
    OpenFile *
    entryOf(int fd, Status *st)
    {
        OpenFile *e = table_.openEntry(fd);
        if (!e && st)
            *st = Status::BadFd;
        return e;
    }

    /** Synchronous RPC from this block (submit, wait, advance clock). */
    rpc::RpcResponse rpcCall(gpu::BlockCtx &ctx, rpc::RpcRequest &req);

    /** Close @p host_fd on the host (gopen/gclose bookkeeping; table
     *  lock NOT held). */
    void
    closeHostFd(gpu::BlockCtx &ctx, int host_fd)
    {
        rpc::RpcRequest req;
        req.op = rpc::RpcOp::Close;
        req.hostFd = host_fd;
        rpcCall(ctx, req);
    }

    /** closeHostFd each of @p host_fds in order, then clear the list. */
    void closeHostFds(gpu::BlockCtx &ctx, std::vector<int> &host_fds);

    /** Destroy slot @p idx's cache and free the slot (table lock
     *  held). A host fd the entry still held is appended to @p closes
     *  for the caller to close once it has dropped the lock. */
    void destroyEntryLocked(int idx, std::vector<int> &closes);

    /** Free slot, recycling the oldest closed entry if needed (a
     *  recycled entry's host fd goes to @p closes). */
    int allocEntryLocked(gpu::BlockCtx &ctx, std::vector<int> &closes);

    /** gopen's fast path on the Open entry at @p idx: take a reference
     *  unless @p flags ask for write access the entry lacks. @return
     *  the fd, or -(int)Status::NotSupported. */
    int joinOpenLocked(int idx, uint32_t flags);

    /** gopen after its Open RPC @p resp (table lock held): join the
     *  entry another block opened for @p path meanwhile, else reuse a
     *  current parked cache, else take a fresh slot. Host fds to close
     *  go to @p closes. @return the fd, or -(int)Status. */
    int installOpenLocked(gpu::BlockCtx &ctx, const std::string &path,
                          uint32_t flags, const rpc::RpcResponse &resp,
                          std::vector<int> &closes);

    /** Lowest-slot Closed entry whose cache has drained, or -1 (table
     *  lock held; see FileTable::findDrainedClosed). */
    int nextDrainedLocked();

    // ---- async request table internals ----

    /** Allocate a request-table slot for @p ctx's block. Never fails:
     *  when the block is over params_.maxInflightIo the slot carries
     *  immediate = Status::Busy. @return the token; *out is the slot. */
    IoToken allocOp(gpu::BlockCtx &ctx, AsyncIoOp **out);

    /** Validate and claim the slot of @p token for resolution; nullptr
     *  for stale/reused/foreign tokens. */
    AsyncIoOp *claimOp(gpu::BlockCtx &ctx, IoToken token);

    /** Retire a resolved slot: bump the generation (invalidating the
     *  token), clear per-op state, free the slot. */
    void releaseOp(AsyncIoOp &op);

    /**
     * Collect the in-flight RPCs (fetches and flushes) of EVERY active
     * op of @p block_id, releasing their claimed fpage locks. Runs at
     * the top of gwait and of every structural call (gopen, gclose,
     * gmmap, gmsync, gftruncate, gunlink): a block's own pending claim
     * must never sit under a code path that takes fpage locks, or the
     * block would spin on itself. Results land in each op (flush
     * status/completion; fetched pages become Ready for resolution).
     */
    void harvestBlock(unsigned block_id);

    /** Collect one op's in-flight RPCs (see harvestBlock). */
    void completePending(AsyncIoOp &op);

    /** Map extents to page-granular segments; returns total bytes. */
    static uint64_t buildSegs(AsyncIoOp &op, const GIoVec *iov,
                              unsigned iovcnt, uint64_t page_size,
                              bool clamp_to, uint64_t fsize);

    /** Submission back ends (shared by the sync wrappers, the async
     *  entry points, and the vectored calls). @p coalesce selects
     *  multi-page ReadPages demand batches (vectored/async) over the
     *  per-page demand pattern the sync wrappers preserve. */
    IoToken submitRead(gpu::BlockCtx &ctx, int fd, const GIoVec *iov,
                       unsigned iovcnt, bool coalesce);
    IoToken submitWrite(gpu::BlockCtx &ctx, int fd, const GIoVec *iov,
                        unsigned iovcnt);
    IoToken submitFsync(gpu::BlockCtx &ctx, int fd, uint64_t first_page,
                        uint64_t last_page);

    /** The per-page demand pattern of gread and gwrite: one ReadPage
     *  per missing page of @p op's segments, each followed by its
     *  read-ahead window, within the op's fetch budget.
     *  @p skip_whole_pages passes over pages the op overwrites whole
     *  (they need no read-modify-write fetch). */
    void submitDemandPages(gpu::BlockCtx &ctx, AsyncIoOp &op,
                           CacheFile &cf, bool skip_whole_pages);
    /** Split-phase read-ahead behind @p op's demand miss on pages
     *  [run_first, run_last], within the op's fetch budget. */
    void submitOpReadAhead(gpu::BlockCtx &ctx, AsyncIoOp &op,
                           CacheFile &cf, uint64_t run_first,
                           uint64_t run_last);

    /** Wait-side resolution of one claimed op. */
    int64_t resolveOp(gpu::BlockCtx &ctx, AsyncIoOp &op);
    int64_t resolveRead(gpu::BlockCtx &ctx, AsyncIoOp &op);
    int64_t resolveWrite(gpu::BlockCtx &ctx, AsyncIoOp &op);
    int64_t resolveFsync(gpu::BlockCtx &ctx, AsyncIoOp &op);
};

} // namespace core
} // namespace gpufs

#endif // GPUFS_GPUFS_GPUFS_HH
