/**
 * @file
 * The GPU-side buffer cache and paging subsystem (§3.4, §4.2).
 *
 * This layer owns everything between the POSIX-like API (GpuFs) and
 * the RPC transport: the raw data array (FrameArena), the per-file
 * radix-tree caches, page pinning and miss handling, sequential
 * read-ahead with batched multi-page fetch, batched dirty write-back
 * (plain, diff-against-zeros, diff-and-merge — coalesced into
 * WritePages RPCs), and frame reclamation under a pluggable
 * EvictionPolicy.
 *
 * The API layer registers one CacheFile per file-table entry and keeps
 * its bookkeeping fields (host fd, size, open/closed state) current;
 * BufferCache never looks at file descriptors, paths, or flag words —
 * which is what makes it constructible and testable without a GpuFs
 * instance. The sharded multi-GPU cache is one client of this seam:
 * an installed ShardMap turns non-owner misses into PeerReadPages RPCs
 * (and batched write-back of non-owner pages into PeerWritePages)
 * through the same claim protocols, while
 * peerCopyResident/peerMirrorResident are the daemon-side window into
 * THIS cache when this GPU is the owner (see ARCHITECTURE.md
 * "Sharded multi-GPU cache").
 */

#ifndef GPUFS_GPUFS_BUFFER_CACHE_HH
#define GPUFS_GPUFS_BUFFER_CACHE_HH

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/stats.hh"
#include "base/status.hh"
#include "gpu/launch.hh"
#include "gpufs/frame.hh"
#include "gpufs/params.hh"
#include "gpufs/radix.hh"
#include "gpufs/readahead.hh"
#include "gpufs/shard.hh"
#include "rpc/peer.hh"
#include "rpc/queue.hh"

namespace gpufs {
namespace core {

class VictimCache;

/**
 * Per-file state the cache layer operates on. The API layer embeds one
 * in every file-table entry and keeps the bookkeeping fields current;
 * tests may construct them standalone. The policy booleans are derived
 * from the GPUfs open flags by the API layer so this header does not
 * depend on API-level flag encodings.
 */
struct CacheFile {
    /** Adaptive read-ahead: this file's per-stream access-pattern
     *  table and prefetch-feedback state (see readahead.hh). Consulted
     *  by the read-ahead loop (BufferCache::readAhead) under no other
     *  lock — each consult resolves the requesting block's stream
     *  slot; fed back from promotion (pinPage) and eviction
     *  (FileCache::retireSpeculative) through the stream tag published
     *  frames carry. Reset when the table slot is recycled for a
     *  different file. Declared BEFORE the cache: the FileCache holds
     *  a pointer to this table and its destructor (dropAll of
     *  never-pinned speculative frames) may call back into it, so the
     *  table must outlive the cache under member destruction order. */
    ReadAheadStreams ra;

    /** The radix-tree page cache; null until setupFile(). */
    std::unique_ptr<FileCache> cache;

    /** Host fd write-back RPCs target; -1 when released. Atomic for
     *  the same reason as the policy booleans below: the API layer
     *  rewrites it on (re)open/park under its locks while lock-free
     *  miss paths (read-ahead decision points, split-phase submission)
     *  only probe "is there an fd at all" — a momentarily stale value
     *  is tolerated there (the RPC layer validates fds), but the
     *  access must not be a data race. */
    std::atomic<int> hostFd{-1};

    /** Host inode; 0 until the first open. Shard-map lookups key on it
     *  (host fds are per-GPU, inodes are machine-wide), and peer RPCs
     *  carry it so the daemon can find the file in the OWNER's table. */
    uint64_t ino = 0;

    /** File size as the cache layer may read it (first-open size plus
     *  local writes; read-ahead stops at this bound). */
    std::atomic<uint64_t> size{0};

    /** Host version this cache reflects. The cache's own write-backs
     *  advance it so the GPU never mistakes its writes for remote
     *  modifications (§4.4). */
    std::atomic<uint64_t> version{0};

    // Policy booleans. Atomic because the API layer rewrites them on
    // (re)open under its table lock while reclamation reads them under
    // the paging lock only — eviction tolerates a momentarily stale
    // value (the tiers are heuristics), but the access must not be a
    // data race.
    std::atomic<bool> write{false};   ///< opened with write intent
    std::atomic<bool> wronce{false};  ///< O_GWRONCE: zero pristine (§3.1)
    std::atomic<bool> noSync{false};  ///< O_NOSYNC: never written back
    /** G_GDURABLE: durability means the journal commit record, so
     *  fsync never dedups away the barrier (gmsync contract). */
    std::atomic<bool> durable{false};

    /** Tenant currently holding the file open (from the gopen flag
     *  word; 0 until a tenant-tagged open). New frame claims are
     *  charged to it, RPCs carry it for DRR scheduling, and demotions
     *  charge the FRAME's stamped tenant — the one who faulted the
     *  page — not necessarily this word (a reopen under a different
     *  tenant re-points only future faults). */
    std::atomic<uint8_t> tenant{0};

    /** Position in the BufferCache's attach order (the file-table
     *  slot for GpuFs entries); the paging lists keep this order. */
    static constexpr unsigned kNotAttached = ~0u;
    unsigned attachIdx = kNotAttached;

    /** Parked (closed-table) entry: first eviction tier when clean. */
    std::atomic<bool> closed{false};
    /** Queued in the BufferCache's evicted-parked list (see
     *  takeEvictedParked); keeps each file there at most once. Guarded
     *  by the BufferCache's evictedMtx_. */
    bool evictNoted = false;
    /** Stamp of the close that parked this entry (oldest goes first). */
    uint64_t closeSeq = 0;

    /** Drains of this file currently in flight (flushDirty holds it
     *  across its whole take-RPC-finish loop). A collector makes
     *  dirtyCount() drop to 0 BEFORE its WritePages RPC lands, so fd
     *  release (parkFile, the closed-fd sweep) must treat
     *  "clean but wbInFlight" as still-dirty — closing the host fd
     *  under an in-flight write-back would send the write to a dead
     *  (or worse, recycled) descriptor. */
    std::atomic<uint32_t> wbInFlight{0};

    /** Page fetches (demand or read-ahead, split-phase or blocking)
     *  whose RPC has not been collected yet. The claimed pages sit in
     *  Init with their fpage locks held across submission→wait, so
     *  they are invisible to residentPages() — drained-cache
     *  collection, entry recycling and dropPages must treat
     *  "fetchInFlight" as resident, or the daemon's DMA would land in
     *  freed frames. */
    std::atomic<uint32_t> fetchInFlight{0};

    /** Host page cache dirtied by our write-backs since the last host
     *  fsync of this file. gfsync clears it and skips the Fsync RPC
     *  when it is clear — which is what coalesces the per-block gfsync
     *  bursts on a shared file into one host fsync. */
    std::atomic<bool> needsFsync{false};

    /** Async request-table ops submitted against this file and not yet
     *  retired by gwait. Wait-after-close is legal, and resolution may
     *  have to REFETCH a page eviction took between submit and wait —
     *  so fd release (parkFile, the closed-fd sweeps) and cache
     *  destruction (drained collection, entry recycling) must treat a
     *  nonzero count like dirty data: keep the fd, keep the cache. */
    std::atomic<uint32_t> opInFlight{0};

    /** Host fds a reopen replaced while a fetch, write-back or
     *  unretired op of this file could still carry them (see
     *  BufferCache::reopenFile). Closed once none can — by the
     *  post-reclaim fd sweep, or with the entry. Guarded by the
     *  BufferCache's paging lock. */
    std::vector<int> retiredFds;

    /** True when no fetch, write-back or unretired async op of this
     *  file is in flight, so none carries a host fd. */
    bool
    fdIdle() const
    {
        return wbInFlight.load() == 0 && fetchInFlight.load() == 0 &&
            opInFlight.load() == 0;
    }

    /** True while something still reaches into the cache, so it must
     *  not be destroyed: an unretired async op, a split-phase fetch,
     *  or a pinned page (a gmmap mapping that outlived gclose). */
    bool
    inUse() const
    {
        return opInFlight.load(std::memory_order_acquire) != 0 ||
            fetchInFlight.load(std::memory_order_acquire) != 0 ||
            (cache && cache->anyPinned());
    }
};

/**
 * Victim-selection strategy for frame reclamation. reclaim() runs with
 * the paging lock held, on the faulting application block's thread
 * ("pay-as-you-go", §3.4) — policies therefore trade victim quality
 * against the work they burn on that hijacked thread, the trade
 * bench/ablate_eviction quantifies.
 *
 * @p evict(file, allow_dirty, want, frame_hint) reclaims up to
 * @p want frames from one file (handling dirty write-back when
 * @p allow_dirty) and returns the number actually freed. A
 * @p frame_hint other than kNoFrame targets exactly that frame (at
 * most one page, identity-verified); kNoFrame takes the file's pages
 * in FIFO order, a sharded file's pages other GPUs own before its own.
 */
using EvictFn =
    std::function<unsigned(CacheFile &, bool allow_dirty, unsigned want,
                           uint32_t frame_hint)>;

class EvictionPolicy
{
  public:
    virtual ~EvictionPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Free up to @p want frames from @p files: the attached files with
     * a live cache, in attach order; stable while the paging lock is
     * held. @return frames freed.
     */
    virtual unsigned reclaim(const std::vector<CacheFile *> &files,
                             FrameArena &arena, unsigned want,
                             const EvictFn &evict) = 0;
};

/** Instantiate the policy selected by GpuFsParams::evictPolicy. */
std::unique_ptr<EvictionPolicy> makeEvictionPolicy(EvictionPolicyKind kind);

/** One gathered write-back extent: @p len bytes at GPU pointer @p data
 *  landing at absolute file offset @p off. Up to rpc::kMaxBatchPages
 *  of these ride one WritePages RPC. */
struct WriteExtent {
    uint64_t off;
    uint32_t len;
    const uint8_t *data;
};

/**
 * One split-phase page fetch in flight (non-blocking I/O core): the
 * pages were claimed under their fpage locks (beginInitBatch protocol,
 * locks HELD until completeFetch publishes or aborts) and the RPC —
 * a single ReadPage or a batched ReadPages — is outstanding in the
 * queue. The init-batch lifetime spans submission→wait instead of one
 * call, which is exactly what lets the submitting block compute while
 * the daemon fills the frames.
 */
struct PendingFetch {
    rpc::RpcSlot *rpcSlot = nullptr;
    uint64_t startIdx = 0;
    unsigned n = 0;                          ///< claimed pages
    bool single = false;                     ///< ReadPage vs ReadPages
    /** Sharded multi-GPU: the RPC went out as PeerReadPages naming a
     *  non-self owner (counter attribution at collection). */
    bool peer = false;
    /** Read-ahead batch: pages publish with the speculative tag and
     *  count into ra_issued at collection (prefetch feedback). */
    bool spec = false;
    /** Stream slot the read-ahead plan resolved (kNoStream for demand
     *  and static-policy batches): stamped into the published frames
     *  and fed to notePublished at collection, so the whole feedback
     *  loop stays per-stream across the split-phase gap. */
    uint8_t specStream = ReadAheadStreams::kNoStream;
    BatchSlot slots[rpc::kMaxBatchPages];
};

/**
 * One split-phase dirty-extent write-back in flight: the extents were
 * atomically taken (takeDirtyBatch protocol, fpage locks HELD until
 * completeFlush) and the WritePages RPC is outstanding. The owning
 * CacheFile's wbInFlight stays elevated until completion so fd release
 * cannot slip under the RPC.
 */
struct PendingFlush {
    rpc::RpcSlot *rpcSlot = nullptr;
    unsigned n = 0;                          ///< extents taken
    bool zeroDiff = false;
    /** Sharded multi-GPU: this batch went out as PeerWritePages toward
     *  @p peerGpu (counter attribution at collection). Split-phase
     *  flushes of sharded files partition each take by page owner into
     *  one PendingFlush per owner, mirroring writeBatchSharded. */
    bool peer = false;
    unsigned peerGpu = 0;
    DirtyExtent ext[rpc::kMaxBatchPages];
};

class BufferCache
{
  public:
    /**
     * @param device    the GPU whose memory backs the frame arena
     * @param rpc_queue transport for page fetch / write-back RPCs
     * @param fs_params cache geometry and policy switches
     * @param stat_set  counter registry (shared with the API layer so
     *                  benchmarks see one namespace)
     */
    BufferCache(gpu::GpuDevice &device, rpc::RpcQueue &rpc_queue,
                const GpuFsParams &fs_params, StatSet &stat_set);
    ~BufferCache();

    BufferCache(const BufferCache &) = delete;
    BufferCache &operator=(const BufferCache &) = delete;

    // ---- file lifecycle ----

    /** Register @p f as a paging candidate. Reclamation visits only
     *  files with a live FileCache, so attaching the whole file table
     *  up front is cheap. */
    void attach(CacheFile &f);

    /** Allocate @p f's FileCache (on open of a fresh entry). */
    void setupFile(CacheFile &f);

    /**
     * Park @p f as closed (cache retained for reuse, §4.1). When the
     * cache holds no dirty data the host fd is surrendered for the
     * caller to release; a dirty cache keeps it so later eviction can
     * still write back (footnote-2 handling). Runs under the paging
     * lock so reclamation's own fd-release sweep cannot interleave.
     * @return the host fd to close, or -1 to keep it.
     */
    int parkFile(CacheFile &f, uint64_t close_seq);

    /**
     * Reopen a parked file: install the fresh host fd and clear the
     * closed mark, atomically with respect to reclamation. @return the
     * fd the entry had kept for dirty pages, which the caller releases
     * once the new claim is established; -1 if it kept none, or if a
     * fetch, write-back or unretired op of the file may still carry it
     * (the file then keeps it in retiredFds until none can).
     */
    int reopenFile(CacheFile &f, int new_host_fd);

    /**
     * Drop every cached page of @p f without write-back (stale-cache
     * invalidation, truncate, unlink). The FileCache object survives.
     * @return false if any page was pinned (nothing destroyed).
     */
    bool dropPages(CacheFile &f);

    /** dropPages + destroy the FileCache. Asserts nothing is pinned. */
    void destroyFile(CacheFile &f);

    // ---- data plane ----

    /**
     * Pin the page of (f, page_idx), fetching it on a miss and running
     * the paging policy when the arena is exhausted. On success
     * *frame_out is pinned (drop with f.cache->unpin). @p skip_fetch
     * suppresses the host read for pages about to be fully overwritten.
     * @p counted says the caller's own split-phase demand fetch
     * published the page and completeFetch already counted the access
     * as a miss: a pin that finds the page resident then counts no hit
     * and no lock-free or locked access, as a synchronous miss counts
     * one access.
     */
    Status pinPage(gpu::BlockCtx &ctx, CacheFile &f, uint64_t page_idx,
                   uint32_t *frame_out, FPage **fpage_out, bool skip_fetch,
                   bool counted = false);

    // ---- write-back ----

    /** Write one page extent back to the host as WritePages RPCs,
     *  honouring the file's merge semantics: one extent (zero-diff
     *  under O_GWRONCE), or the changed runs of a diff-and-merge page.
     *  On failure the extent is left for the caller to restore, and
     *  the pristine copy of every run that did not land is rolled
     *  back so the next sync diffs it again. @return completion time
     *  of the last write. */
    Time writebackExtent(CacheFile &f, uint64_t page_idx,
                         const uint8_t *data, uint32_t lo, uint32_t hi,
                         Time issue, Status *st);

    /**
     * Write back every dirty, unpinned page of @p f whose page index
     * lies in [first_page, last_page): the dirty extents are taken in
     * batches of up to rpc::kMaxBatchPages and coalesced into
     * WritePages RPCs (diff-and-merge extents are diffed one by one
     * first, see writebackExtent); extents of pages that fail are
     * restored so a later sync can retry. Advances @p ctx past the
     * last completion. @p pages_out, when non-null, receives the
     * number of pages written back (gfsync, eviction, gftruncate and
     * table recycling all route through here). @p max_pages caps the
     * drain (dirty eviction flushes only about as many pages as it
     * wants to reclaim, not the whole file).
     * @return first failure status, Ok otherwise.
     */
    Status flushDirty(gpu::BlockCtx &ctx, CacheFile &f,
                      uint64_t first_page = 0,
                      uint64_t last_page = UINT64_MAX,
                      unsigned *pages_out = nullptr,
                      uint64_t max_pages = UINT64_MAX);

    /** gmsync back end: atomically take @p frame's dirty extent and
     *  write it back, restoring the extent on failure so a later sync
     *  can retry. */
    Status syncFrame(gpu::BlockCtx &ctx, CacheFile &f, uint32_t frame);

    // ---- split-phase I/O (non-blocking core) ----

    /**
     * Claim up to @p max_n contiguous missing pages from @p start_idx
     * and submit ONE read RPC for the run without waiting: ReadPages
     * (vectored reads feed their multi-extent spans through here), or
     * ReadPage when @p single (max_n 1: the per-page demand fetch the
     * sync wrappers use, which keeps the paper's demand-paging RPC
     * pattern). Claims stay clear of the arena's last claimReserve()
     * frames and never reclaim (see the definition). @return pages
     * claimed: 0 when the head of the run is resident, in flight,
     * contended or unallocatable, and the caller resolves it with a
     * normal pinPage at wait time.
     */
    unsigned submitBatchFetch(gpu::BlockCtx &ctx, CacheFile &f,
                              uint64_t start_idx, unsigned max_n,
                              PendingFetch *out, bool single = false);

    /**
     * Split-phase read-ahead from a demand miss covering pages
     * [run_first, run_last] (see readAhead): submits the window's
     * batches without waiting, appending up to @p max_fetches entries
     * to @p out for the async request table to collect at gwait.
     * @return fetches submitted.
     */
    unsigned submitReadAhead(gpu::BlockCtx &ctx, CacheFile &f,
                             uint64_t run_first, uint64_t run_last,
                             PendingFetch *out, unsigned max_fetches);

    /**
     * Collect one split-phase fetch: wait out the RPC, publish the
     * pages (valid byte counts + each page's own DMA-completion
     * readyTime, locks released, pages Ready but NOT pinned) or roll
     * the claim back to Empty on failure. Safe from any thread;
     * charges no block clock — pinners pay via readyTime, as with
     * read-ahead.
     * @return the RPC's status.
     */
    Status completeFetch(CacheFile &f, PendingFetch &pf);

    /**
     * Split-phase gfsync front half: take up to @p max_batches batches
     * of dirty extents of @p f in [first_page, last_page) and submit
     * their WritePages RPCs without waiting. Not for diff-and-merge
     * files (callers fall back to a synchronous flushDirty at wait
     * time — completeFlush + a residual flushDirty is always
     * correct). Sharded files partition each take by page owner —
     * self-owned extents ride WritePages, each peer
     * owner's one PeerWritePages — consuming one output slot per
     * partition, so the async rounds drain through the same
     * owner-partitioned routing as the wait-time flushDirty. Each
     * pending batch elevates f.wbInFlight until its completeFlush.
     * @return batches submitted.
     */
    unsigned submitFlush(gpu::BlockCtx &ctx, CacheFile &f,
                         uint64_t first_page, uint64_t last_page,
                         PendingFlush *out, unsigned max_batches);

    /** Collect one split-phase write-back: wait out the RPC, release
     *  the extents (restored for retry on failure), update the file
     *  version. *done_out maxes with the RPC's virtual completion so
     *  the syncing block can advance its clock past the write.
     *  @return the RPC's status. */
    Status completeFlush(CacheFile &f, PendingFlush &pf,
                         Time *done_out = nullptr);

    // ---- paging ----

    /** "No tenant" sentinel for reclaimFrames: global reclaim. */
    static constexpr uint8_t kAnyTenant = 0xFF;

    /** Frames reclaimed per paging pass (batching amortizes policy
     *  work). */
    static constexpr uint32_t kReclaimBatch = 16;

    /**
     * Free at least @p want frames by running the eviction policy over
     * the attached files. Runs on the calling block's thread. When
     * @p tenant names a tenant sitting at its frame quota, the policy
     * runs over only that tenant's files — eviction WITHIN the quota,
     * so a capped tenant's fault pressure never displaces other
     * tenants' resident pages. @return frames freed.
     */
    unsigned reclaimFrames(gpu::BlockCtx &ctx, unsigned want,
                           uint8_t tenant = kAnyTenant);

    /**
     * Parked files that lost pages (eviction, dropPages) since the last
     * call, each once, in no particular order. A parked file holding a
     * Ready page can become drained only this way, so the API layer's
     * drained-cache collection re-checks just these files and the ones
     * parked since. Callable under the table lock or the paging lock.
     */
    std::vector<CacheFile *> takeEvictedParked();

    // ---- sharded multi-GPU cache ----

    /**
     * Install the machine-wide shard map (GpufsSystem wiring; null =
     * private caching, the default for standalone instances). After
     * this, a miss on a page another GPU owns goes out as a
     * PeerReadPages RPC and batched write-back of such pages as
     * PeerWritePages — both through the SAME claim protocols
     * (beginInitBatch / takeDirtyBatch spanning submission→wait) as
     * the host ops they shadow.
     */
    void setShardMap(const ShardMap *map) { shards_ = map; }
    const ShardMap *shardMap() const { return shards_; }

    /**
     * Install the machine-wide host-RAM victim tier (GpufsSystem
     * wiring; null = demotion off, the default). After this, eviction
     * of clean pages — and of dirty pages once their write-back has
     * landed — copies the frame's bytes into the tier (one D2H charge
     * on SimContext::hostStage) instead of just dropping them; the
     * daemon probes the same tier before the storage backend.
     */
    void setVictimCache(VictimCache *v) { victim_ = v; }
    VictimCache *victimCache() const { return victim_; }

    /** True when @p f's pages carry diff-and-merge semantics: they
     *  must snapshot a pristine copy under the fetching pin, which
     *  excludes them from every batch-published path (split-phase
     *  demand, read-ahead), and write back through writebackExtent's
     *  diff, never split-phase. */
    bool
    diffMergeActive(const CacheFile &f) const
    {
        return params_.enableDiffMerge && f.write && !f.wronce &&
            !f.noSync;
    }

    /** True when @p f participates in sharding: an active map and a
     *  plainly host-backed file (wronce pages are zero-pristine and
     *  never fetched, NOSYNC temps are GPU-local, diff-merge pages
     *  must diff against GPU-side pristine copies). */
    bool
    shardedFile(const CacheFile &f) const
    {
        return shards_ && shards_->active() && !f.wronce && !f.noSync &&
            !(params_.enableDiffMerge && f.write);
    }

    /** Owner GPU of (f, page_idx); self when not sharded. */
    unsigned
    pageOwner(const CacheFile &f, uint64_t page_idx) const
    {
        return shardedFile(f) ? shards_->ownerOf(f.ino, page_idx)
                              : selfGpu();
    }

    /**
     * Daemon-side peer probe: copy page @p page_idx of @p f into
     * @p dst iff it is resident, Ready and CLEAN (dirty pages differ
     * from the host; declining is the baseline behavior). The frame is
     * pinned across the copy so owner-side eviction cannot recycle it
     * mid-transfer; *ready_out maxes with the frame's DMA-ready time.
     * Declines pages whose valid byte count does not match the file
     * size (locally-written pages track content through the dirty
     * extent, not validBytes — the host copy is authoritative).
     * @return Served, Cold (not resident or not Ready) or Unclean.
     */
    rpc::PeerCopy peerCopyResident(CacheFile &f, uint64_t page_idx,
                                   uint8_t *dst, uint32_t *valid_out,
                                   Time *ready_out);

    /** Daemon-side mirror of a written extent into a resident, Ready
     *  page (see RpcOp::PeerWritePages). Does NOT mark the page dirty:
     *  the same bytes land on the host through the enclosing RPC, so
     *  the mirrored copy matches the post-write host content. */
    bool peerMirrorResident(CacheFile &f, uint64_t page_idx,
                            uint32_t in_page, const uint8_t *src,
                            uint32_t len);

    /**
     * Daemon-side owner warming: adopt the bytes a PeerReadPages host
     * fallback just read for a page THIS GPU owns, so the next peer
     * miss on it forwards from these frames instead of re-paying the
     * storage round trip. Declines rather than perturb anything: no
     * reclaim is run (free frames above the claim reserve only), the
     * page must be Empty and uncontended, and @p tenant — the faulting
     * requester's tenant — must be under its frame quota here too.
     */
    bool peerAdoptResident(CacheFile &f, uint64_t page_idx,
                           const uint8_t *src, uint32_t valid,
                           Time ready, uint8_t tenant);

    // ---- read-ahead policy ----

    /** True when the adaptive tracker drives the window: no static
     *  window set (readAheadPages unset). */
    bool adaptiveReadAhead() const { return !params_.readAheadPages; }

    /** True when any read-ahead can be issued at all (the miss paths
     *  skip the read-ahead loop when it is not). */
    bool
    readAheadEnabled() const
    {
        return adaptiveReadAhead() || *params_.readAheadPages > 0;
    }

    /** Frames split-phase submission (and read-ahead) must leave free
     *  or reclaimable for synchronous pins: claims are unreclaimable
     *  until collected, so a claim storm must not exhaust the arena.
     *  Scales down for small arenas where kReclaimBatch would forbid
     *  claiming at all. Public: benches/tests assert the speculative
     *  occupancy cap against it. */
    uint32_t
    claimReserve() const
    {
        return std::max<uint32_t>(
            1, std::min<uint32_t>(kReclaimBatch,
                                  arena_.numFrames() / 4));
    }

    // ---- introspection ----
    FrameArena &arena() { return arena_; }
    EvictionPolicy &policy() { return *policy_; }
    const GpuFsParams &params() const { return params_; }
    unsigned selfGpu() const { return dev.id(); }

    /** True iff the calling thread holds the paging lock. The API
     *  layer asserts this is false before taking its table lock, which
     *  is how the tableMtx -> pagingMtx lock order stays enforced
     *  rather than documented. */
    bool
    pagingLockHeldByCaller() const
    {
        return pagingOwner_.load(std::memory_order_relaxed) ==
            std::this_thread::get_id();
    }

  private:
    gpu::GpuDevice &dev;
    rpc::RpcQueue &queue;
    GpuFsParams params_;
    FrameArena arena_;
    std::unique_ptr<EvictionPolicy> policy_;
    /** Machine-wide page -> owner-GPU map; null = private caching. */
    const ShardMap *shards_ = nullptr;
    /** Machine-wide host-RAM victim tier; null = demotion off. */
    VictimCache *victim_ = nullptr;

    /** Guards the attach counter and the two lists below and serializes
     *  reclamation passes; also excludes FileCache creation/destruction
     *  against a concurrent reclaim walking the same entries. Callers
     *  holding the API layer's table lock may take this after it, never
     *  the reverse (see pagingLockHeldByCaller). */
    std::mutex pagingMtx;
    /** Thread currently inside pagingMtx (lock-order assertions). */
    std::atomic<std::thread::id> pagingOwner_{};
    /** Attach-order position the next attach() hands out. */
    unsigned nextAttachIdx_ = 0;
    /** Attached files with a live cache, in attach order: what the
     *  eviction policies walk (setupFile adds, destroyFile removes). */
    std::vector<CacheFile *> live_;
    /** Parked files that kept their host fd, and files holding
     *  retired fds, in attach order: the post-reclaim release walk
     *  visits only these (parkFile and reopenFile add; a release,
     *  reopen or destroy removes). */
    std::vector<CacheFile *> keptFd_;
    /** Leaf lock (never held around another) over evictedParked_ and
     *  each file's evictNoted flag. */
    std::mutex evictedMtx_;
    std::vector<CacheFile *> evictedParked_;

    /** Queue @p f for takeEvictedParked if it is parked. */
    void noteEvictedParked(CacheFile &f);

    /** pagingMtx RAII that also publishes the owner thread. */
    struct PagingGuard {
        explicit PagingGuard(BufferCache &bc) : bc_(bc)
        {
            bc_.pagingMtx.lock();
            bc_.pagingOwner_.store(std::this_thread::get_id(),
                                   std::memory_order_relaxed);
        }
        ~PagingGuard()
        {
            bc_.pagingOwner_.store(std::thread::id{},
                                   std::memory_order_relaxed);
            bc_.pagingMtx.unlock();
        }
        PagingGuard(const PagingGuard &) = delete;
        PagingGuard &operator=(const PagingGuard &) = delete;
        BufferCache &bc_;
    };

    Counter &cntCacheHits;
    Counter &cntCacheMisses;
    Counter &cntLockfree;
    Counter &cntLocked;
    Counter &cntReadRpcs;
    Counter &cntBatchReadRpcs;
    Counter &cntBatchPages;
    Counter &cntBatchWriteRpcs;
    Counter &cntBatchWritePages;
    Counter &cntPeerReadRpcs;
    Counter &cntPeerPagesForwarded;
    Counter &cntPeerPagesFallback;
    Counter &cntPeerWriteRpcs;
    Counter &cntPeerExtentsMirrored;
    // Adaptive read-ahead feedback: pages published speculatively,
    // ghost-ring hits (ra_hit / ra_wasted live in cacheCounters_ —
    // promotion and eviction run inside the radix layer).
    Counter &cntRaIssued;
    Counter &cntRaGhostHits;
    /** Per-stream read-ahead signals: high-water of any one file's
     *  concurrently-active streams, and live-slot LRU recycles summed
     *  across files (both updated at the decision points). */
    Counter &cntRaStreamsActive;
    Counter &cntRaStreamRecycles;
    CacheCounters cacheCounters_;

    static CacheCounters cacheCounters(StatSet &stat_set);

    /** Fetch one page's content from the host (or zero-fill). */
    Status fetchPage(gpu::BlockCtx &ctx, CacheFile &f, uint64_t page_idx,
                     uint8_t *data, uint32_t *valid, Time *done);

    /**
     * Resolve the read-ahead window for a demand miss on pages
     * [run_first, run_last] of @p f: the static window when
     * readAheadPages is set, the requesting block's stream in the
     * file's adaptive table otherwise (which this call advances —
     * exactly one plan per miss; @p stream_key is the block id the
     * stream resolution keys on). A window of 0 means no prefetch.
     * The returned Decision carries the resolved stream slot for the
     * batch's feedback tags.
     */
    ReadAheadStreams::Decision planReadAhead(CacheFile &f,
                                             uint64_t stream_key,
                                             uint64_t run_first,
                                             uint64_t run_last);

    /** Clip a batch run starting at @p start_idx to its shard group so
     *  one batched RPC never spans two owners (no-op when private). */
    unsigned
    shardRunCap(const CacheFile &f, uint64_t start_idx,
                unsigned max_n) const
    {
        if (!shardedFile(f))
            return max_n;
        uint64_t end = shards_->groupEnd(start_idx);
        return static_cast<unsigned>(
            std::min<uint64_t>(max_n, end - start_idx));
    }

    /** Issue one PeerWritePages RPC carrying @p n gathered extents of
     *  @p f toward @p owner_gpu (host write-through + owner mirror;
     *  see the op's contract). @p base_version gates the owner-side
     *  mirror; @p publish permits the post-write version publish
     *  (single-partition flushes only). Updates f.version /
     *  needsFsync like writeExtentsRpc. */
    Status peerWriteExtentsRpc(CacheFile &f, unsigned owner_gpu,
                               const WriteExtent *ext, unsigned n,
                               uint64_t base_version, bool publish,
                               Time issue, Time *done_out);

    /** Batched write-back dispatch: partition @p n taken extents by
     *  page owner and issue one WritePages (self/host) or
     *  PeerWritePages (each peer owner) RPC per partition.
     *  @p ext_failed (size n, may be null) marks the extents of
     *  partitions whose RPC failed, so the caller restores exactly
     *  those — already-durable siblings must not be re-marked dirty.
     *  @return first failure. */
    Status writeBatchSharded(CacheFile &f, const DirtyExtent *ext,
                             unsigned n, Time issue, Time *done_out,
                             bool *ext_failed = nullptr);

    /**
     * The one read-ahead loop, run on a demand miss covering pages
     * [run_first, run_last] of @p f (one page on the per-page paths,
     * the whole run for vectored demand batches: the tracker needs the
     * run head to judge sequential continuation). Plans the window
     * (planReadAhead, exactly one plan per miss) and walks it: a
     * contiguous window in batches clipped at EOF, radix capacity,
     * the shard group and the claim reserve; a strided one a page per
     * RPC (the gaps must not be fetched). When @p may_reclaim (the pin
     * path, which holds no uncollected queue slots), a batch another
     * GPU serves first reclaims the frames the arena lacks above the
     * reserve; every other batch takes free frames only. Resident or
     * in-flight pages are stepped over; anything else ends the window.
     * Each claimed batch, published speculative, goes to
     * @p issue(pf, i), i being the batches issued before it, which
     * submits it and returns false to end the window (claim rolled
     * back or RPC failed). Stops after @p max_fetches batches, then
     * advances the stream past the covered span. @return batches
     * issued.
     */
    template <typename IssueFn>
    unsigned readAhead(gpu::BlockCtx &ctx, CacheFile &f,
                       uint64_t run_first, uint64_t run_last,
                       unsigned max_fetches, bool may_reclaim,
                       IssueFn &&issue);

    /**
     * The read RPC for pages [start_idx, start_idx + n) of @p f landing
     * in @p dsts, issued now (the one place read requests are built):
     * a non-owner miss routes to the owner GPU (PeerReadPages, *peer
     * set), else ReadPage when @p single, ReadPages otherwise. Records
     * shard heat for sharded files.
     */
    rpc::RpcRequest readRequest(gpu::BlockCtx &ctx, CacheFile &f,
                                uint64_t start_idx, uint8_t *const *dsts,
                                unsigned n, bool single, bool *peer);

    /**
     * Build and submit the RPC for a PendingFetch whose slots are
     * already claimed (shared by the pin path and split-phase paths);
     * elevates f.fetchInFlight until completeFetch. @p blocking
     * callers (the synchronous fetch path — they hold no uncollected
     * slots) may wait for a queue slot; split-phase callers must not
     * (deadlock cycle, see RpcQueue::trySubmit) — for them a full
     * queue aborts the claim. @return false iff aborted.
     */
    bool submitClaimedFetch(gpu::BlockCtx &ctx, CacheFile &f,
                            PendingFetch &pf, bool blocking);

    /** Issue one WritePages RPC carrying @p n gathered extents of @p f
     *  (one CPU-slot charge, one D2H DMA reservation, one pwritev on
     *  the host). Updates f.version on success. *done_out receives the
     *  completion time. */
    Status writeExtentsRpc(CacheFile &f, const WriteExtent *ext,
                           unsigned n, bool zero_diff, Time issue,
                           Time *done_out);

    /** Once nothing of @p f is in flight, close its retired fds, and
     *  its kept host fd if it is parked clean. @return true iff it no
     *  longer holds an fd for the sweep (dropped from keptFd_). */
    bool maybeReleaseClosedFdLocked(gpu::BlockCtx &ctx, CacheFile &f);
};

} // namespace core
} // namespace gpufs

#endif // GPUFS_GPUFS_BUFFER_CACHE_HH
